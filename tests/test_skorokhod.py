"""Reflection map and the Picard solver for generalized problems."""

import numpy as np
import pytest

from twolevel import (
    DomainError,
    GridMismatch,
    NoConvergence,
    ModelParams,
    SampledPath,
    check_complementarity,
    gbar_functional,
    native,
    skorokhod,
    solve_generalized,
)
from twolevel.skorokhod import whole_steps
from fluid_reference import reflect_1d

DT = 1e-3


def sampled(fn, horizon, dt=DT):
    t = dt * np.arange(int(round(horizon / dt)) + 1)
    return SampledPath(0.0, dt, fn(t))


class TestSampledPath:
    def test_times_grid(self):
        path = SampledPath(0.5, 0.25, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(path.times, [0.5, 0.75, 1.0])
        assert len(path) == 3

    def test_bad_dt_rejected(self):
        with pytest.raises(DomainError):
            SampledPath(0.0, 0.0, [1.0])

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_dt_rejected(self, dt):
        """A NaN step made every time NaN."""
        with pytest.raises(DomainError) as err:
            SampledPath(0.0, dt, [1.0, 2.0])
        assert err.value.field == "dt"

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            SampledPath(0.0, 0.1, [])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            SampledPath(0.0, 0.1, [0.0, np.nan])

    def test_same_grid(self):
        a = SampledPath(0.0, 0.1, np.zeros(5))
        assert a.same_grid(SampledPath(0.0, 0.1, np.ones(5)))
        assert not a.same_grid(SampledPath(0.0, 0.1, np.ones(6)))
        assert not a.same_grid(SampledPath(0.0, 0.2, np.ones(5)))


class TestReflect1d:
    """The numpy running-infimum reflection, the reference for the compiled one."""

    def test_sine_reflection_pinned_values(self):
        """Reflected sine touches zero at the trough and carries its depth after."""
        path = sampled(np.sin, 2 * np.pi)
        reflected, regulator = reflect_1d(path)
        k_trough = int(round(1.5 * np.pi / DT))
        k_end = len(path) - 1
        assert reflected.values[k_trough] == pytest.approx(0.0, abs=2e-3)
        assert regulator.values[k_trough] == pytest.approx(1.0, abs=2e-3)
        assert reflected.values[k_end] == pytest.approx(1.0, abs=2e-3)

    def test_nonnegative_path_untouched(self):
        path = sampled(lambda t: 1.0 + np.cos(t), 5.0)
        reflected, regulator = reflect_1d(path)
        np.testing.assert_array_equal(reflected.values, path.values)
        np.testing.assert_array_equal(regulator.values, 0.0)

    def test_decomposition_and_constraints(self):
        rng = np.random.default_rng(11)
        values = np.concatenate(([0.2], rng.normal(0.0, 0.4, 999))).cumsum()
        values[0] = 0.2
        path = SampledPath(0.0, DT, values)
        reflected, regulator = reflect_1d(path)
        np.testing.assert_allclose(
            reflected.values, path.values + regulator.values, atol=0.0
        )
        assert reflected.values.min() >= 0.0
        assert np.diff(regulator.values).min() >= 0.0
        assert regulator.values[0] == 0.0

    def test_negative_start_rejected(self):
        with pytest.raises(DomainError):
            reflect_1d(SampledPath(0.0, DT, [-0.1, 0.0]))

    def test_vector_path_rejected(self):
        with pytest.raises(DomainError):
            reflect_1d(SampledPath(0.0, DT, np.zeros((4, 2))))

    def test_carried_running_min_continues_the_path(self):
        """The tail of a path, reflected from the running minimum of its head,
        is the tail of the whole path reflected, even where it starts below 0."""
        path = sampled(lambda t: np.sin(3 * t) - 0.3 * t, 4.0)
        whole, whole_reg = reflect_1d(path)
        k = 1700
        assert path.values[k] < 0
        tail, tail_reg = reflect_1d(SampledPath(k * DT, DT, path.values[k:]),
                                    running_min=path.values[:k + 1].min())
        np.testing.assert_array_equal(tail.values, whole.values[k:])
        np.testing.assert_array_equal(tail_reg.values, whole_reg.values[k:])


class TestComplementarity:
    def test_reflection_output_is_exactly_complementary(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            steps = rng.normal(-0.05, 0.3, 400)
            steps[0] = abs(steps[0])
            path = SampledPath(0.0, 0.01, np.cumsum(steps))
            reflected, regulator = reflect_1d(path)
            assert check_complementarity(reflected, regulator, tol=0.0)

    def test_tampered_pair_fails(self):
        path = sampled(lambda t: -t, 1.0)
        reflected, regulator = reflect_1d(path)
        lifted = SampledPath(0.0, DT, reflected.values + 0.5)
        assert not check_complementarity(lifted, regulator, tol=1e-9)

    def test_decreasing_regulator_fails(self):
        flat = SampledPath(0.0, DT, np.ones(10))
        shrinking = SampledPath(0.0, DT, np.linspace(1.0, 0.0, 10))
        assert not check_complementarity(flat, shrinking, tol=1e9)

    def test_grid_mismatch_raises(self):
        a = SampledPath(0.0, 0.1, np.zeros(5))
        b = SampledPath(0.0, 0.2, np.zeros(5))
        with pytest.raises(GridMismatch):
            check_complementarity(a, b, tol=1e-9)


def pointwise(fn):
    """A restartable functional acting on each grid point alone, carrying no state:
    ``fn(x, times)`` gives the free path on the window."""
    return lambda x, t0, dt, carried: (fn(x, t0 + dt * np.arange(len(x))), None)


@pytest.mark.parametrize("horizon, dt", [(float("inf"), 0.1), (1e308, 1e-300), (1.0, 5e-324)],
                         ids=["horizon-inf", "ratio-overflow", "dt-subnormal"])
def test_whole_steps_refuses_a_ratio_that_is_not_finite(horizon, dt):
    """floor() of an infinite ratio raised OverflowError, which the CLI reported as exit 4."""
    with pytest.raises(DomainError) as info:
        whole_steps(horizon, dt)
    assert info.value.field == "horizon"


def test_whole_steps_caps_the_grid_points():
    """2^24 steps make the largest grid; one more step is refused on ``horizon``."""
    cap = skorokhod.MAX_POINTS
    assert whole_steps(float(cap - 1), 1.0) == cap - 1
    with pytest.raises(DomainError, match=f"makes {cap + 1} grid points, past the cap of {cap}"
                       ) as info:
        whole_steps(float(cap), 1.0)
    assert info.value.field == "horizon"


class TestSolveGeneralized:
    def test_constant_functional_identity(self):
        """phi ignoring its argument, returning t: solution is t, found in 2 passes."""
        solution, regulator, iterations = solve_generalized(
            pointwise(lambda x, t: t), 1.0, DT)
        np.testing.assert_allclose(solution.values, solution.times, atol=0.0)
        np.testing.assert_array_equal(regulator.values, 0.0)
        assert iterations == 2

    def test_constant_negative_drift_fully_reflected(self):
        solution, regulator, iterations = solve_generalized(
            pointwise(lambda x, t: -t), 1.0, DT)
        np.testing.assert_array_equal(solution.values, 0.0)
        np.testing.assert_allclose(regulator.values, regulator.times, atol=0.0)
        assert iterations == 1

    def test_contraction_converges_to_its_fixed_point(self, monkeypatch):
        monkeypatch.setattr(skorokhod, "TOL", 1e-12)
        damp = pointwise(lambda x, t: 0.5 * x + 0.1)
        solution, _, _ = solve_generalized(damp, 1.0, DT)
        np.testing.assert_allclose(solution.values, 0.2, atol=1e-10)

    def test_oscillator_hits_iteration_budget(self, monkeypatch):
        monkeypatch.setattr(skorokhod, "MAX_ITER", 12)
        with pytest.raises(NoConvergence) as err:
            solve_generalized(pointwise(lambda x, t: 1.0 - x), 0.5, DT)
        assert err.value.max_iter == 12
        assert err.value.residual == pytest.approx(1.0)

    def test_no_budget_no_sweep(self, monkeypatch):
        monkeypatch.setattr(skorokhod, "MAX_ITER", 0)
        with pytest.raises(NoConvergence) as err:
            solve_generalized(pointwise(lambda x, t: x), 0.5, DT)
        assert err.value.max_iter == 0
        assert err.value.residual == np.inf

    @pytest.mark.parametrize("keyword, value", [("tol", 1e-12), ("max_iter", 12)])
    def test_removed_keywords_raise_type_error(self, keyword, value):
        """The tolerance and the sweep budget are ``skorokhod.TOL`` and ``MAX_ITER``."""
        with pytest.raises(TypeError, match=keyword):
            solve_generalized(pointwise(lambda x, t: t), 1.0, DT, **{keyword: value})

    def test_budget_is_per_window_and_reports_the_failing_window(self, monkeypatch):
        """Contracting on [0, 3) and flipping after: the window [0, 2] converges
        in 28 sweeps, and the window [2, 4] spends its own 30 at residual 0.6."""
        def damp_then_flip(x, t):
            return np.where(t < 3.0, 0.5 * x + 0.1, 1.0 - x)

        monkeypatch.setattr(skorokhod, "MAX_ITER", 30)
        with pytest.raises(NoConvergence) as err:
            solve_generalized(pointwise(damp_then_flip), 5.0, DT)
        assert err.value.max_iter == 30
        assert err.value.residual == pytest.approx(0.6)

    def test_later_windows_start_from_clipped_extrapolation(self):
        """Each window's first sweep starts from the line through the last two
        converged points, clipped at 0: here that is already the solution."""
        seen = {}

        def ramp(x, t0, dt, carried):
            seen.setdefault(t0, x.copy())
            return 3.0 - (t0 + dt * np.arange(len(x))), None

        solution, _, iterations = solve_generalized(ramp, 5.3, DT)
        np.testing.assert_allclose(solution.values, np.maximum(3.0 - solution.times, 0.0),
                                   atol=1e-12)
        assert sorted(seen) == pytest.approx([0.0, 2.0, 4.0])
        for t0, first in seen.items():
            if t0 > 0:
                k = int(round(t0 / DT))
                np.testing.assert_allclose(first, solution.values[k:k + len(first)],
                                           atol=1e-12)
        assert iterations == 2

    def test_no_point_past_the_horizon(self):
        """1 / 0.6 = 1.67 steps: the solve once rounded to 2, one point past the horizon."""
        phi = gbar_functional(ModelParams(0.5, 1.0, 1.0, 1.0), 0.3, (0.0, 0.0))
        solution, regulator, _ = solve_generalized(phi, 1.0, 0.6)
        assert len(solution) == len(regulator) == 2

    def test_grid_past_the_cap_refused_before_allocating(self):
        """10^15 points: the two arrays of the solve raised MemoryError (14.2 PiB)."""
        phi = gbar_functional(ModelParams(0.5, 1.0, 1.0, 1.0), 0.3, (0.0, 0.0))
        with pytest.raises(DomainError, match="1000000000000001 grid points") as err:
            solve_generalized(phi, 1e12, 1e-3)
        assert err.value.field == "horizon"

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_nonpositive_dt_rejected(self, dt):
        phi = gbar_functional(ModelParams(0.5, 1.0, 1.0, 1.0), 0.3, (0.0, 0.0))
        with pytest.raises(DomainError) as err:
            solve_generalized(phi, 1.0, dt)
        assert err.value.field == "dt"


def reflect_window(free, guess, running_min=None, pinned=False):
    """The compiled reflection on copies: (reflected, regulator, residual).

    The regulator buffer starts at 7.0, so a sample the kernel leaves
    alone shows."""
    x, reg = guess.copy(), np.full(len(free), 7.0)
    residual = native.library().reflect_window(
        free.ctypes.data, x.ctypes.data, reg.ctypes.data, len(free),
        np.inf if running_min is None else running_min, pinned)
    return x, reg, residual


def ties(seed, n=1000):
    """A path that starts at 0 and returns to +0 and -0 often, with many equal values."""
    steps = np.round(np.random.default_rng(seed).normal(-0.01, 0.3, n - 4), 1)
    return np.concatenate(([0.0, -0.0], np.round(np.cumsum(steps), 1), [-0.0, 0.0]))


class TestReflectWindow:
    """The compiled reflection behind ``solve_generalized`` against ``reflect_1d``."""

    @pytest.mark.parametrize("running_min", [None, 0.3, 0.0, -0.0, -0.4])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_reflect_1d_bit_for_bit(self, seed, running_min):
        free = ties(seed)
        assert np.signbit(free[free == 0.0]).any() and not np.signbit(free[free == 0.0]).all()
        guess = np.random.default_rng(seed + 10).normal(0.0, 1.0, len(free))
        reflected, regulator = reflect_1d(SampledPath(0.0, DT, free), running_min)
        x, reg, residual = reflect_window(free, guess, running_min)
        # tobytes tells +0 from -0, which == does not.
        assert x.tobytes() == reflected.values.tobytes()
        assert reg[1:].tobytes() == regulator.values[1:].tobytes() and reg[0] == 7.0
        assert residual == np.max(np.abs(reflected.values - guess))

    def test_pinned_first_sample_kept(self):
        free, guess = ties(4), np.linspace(0.0, 1.0, 1000)
        reflected, regulator = reflect_1d(SampledPath(0.0, DT, free), running_min=-0.2)
        x, reg, residual = reflect_window(free, guess, -0.2, pinned=True)
        assert x[0] == guess[0] and x[1:].tobytes() == reflected.values[1:].tobytes()
        assert reg[1:].tobytes() == regulator.values[1:].tobytes() and reg[0] == 7.0
        assert residual == np.max(np.abs(reflected.values[1:] - guess[1:]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 500, 999])
    def test_non_finite_free_value_gives_nan(self, bad, where):
        free = np.linspace(0.0, 1.0, 1000)
        free[where] = bad
        assert np.isnan(reflect_window(free, np.zeros(1000))[2])
        assert np.isnan(reflect_window(free, np.zeros(1000), 0.5, pinned=True)[2])

    def test_overflow_gives_nan(self):
        """A finite free path whose reflection overflows is no finite solution either."""
        free = np.array([0.0, -1.7e308, 1.7e308])
        assert np.isnan(reflect_window(free, np.zeros(3))[2])


class TestFreePathRefused:
    """What ``phi`` returns is checked before the compiled reflection reads it."""

    @pytest.mark.parametrize("make", [
        lambda x: x[:-1] + 0.1,
        lambda x: np.append(x, 0.0) + 0.1,
        lambda x: np.zeros((len(x), 2)),
        lambda x: (x + 0.1).astype(np.float32),
        lambda x: np.ones(len(x), dtype=np.int64),
        lambda x: np.repeat(x + 0.1, 2)[::2],
        lambda x: list(x + 0.1),
        lambda x: None,
    ], ids=["short", "long", "vector", "float32", "int64", "strided", "list", "none"])
    def test_bad_free_path(self, make):
        calls = []

        def phi(x, t0, dt, carried):
            calls.append(t0)
            return make(x), None

        with pytest.raises(DomainError, match="phi must return a contiguous float64 array") as err:
            solve_generalized(phi, 5.0, DT)
        assert err.value.field == "free"
        assert calls == [0.0]

    @pytest.mark.parametrize("make", [
        lambda x: x,
        lambda x: np.ascontiguousarray(x),
        lambda x: x[:],
        lambda x: np.add(x, 0.1, out=x),
    ], ids=["input", "ascontiguousarray", "view", "in-place"])
    def test_input_returned_as_free_path(self, make):
        """The reflection overwrites x; a free path in x's memory would be read after."""
        calls = []

        def phi(x, t0, dt, carried):
            calls.append(t0)
            return make(x), None

        with pytest.raises(DomainError, match="not x or a view of it") as err:
            solve_generalized(phi, 5.0, DT)
        assert err.value.field == "free"
        assert calls == [0.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("t_bad", [0.0, 1.0, 3.0])
    def test_non_finite_sweep_raises_at_once(self, bad, t_bad):
        """Before, on and after the first window; never run on to NoConvergence."""
        calls = []

        def phi(x, t0, dt, carried):
            calls.append(t0)
            times = t0 + dt * np.arange(len(x))
            return np.where(np.isclose(times, t_bad), bad, 0.5 * x + 0.1), None

        with pytest.raises(DomainError, match="path values must be finite") as err:
            solve_generalized(phi, 5.0, DT)
        assert err.value.field == "values"
        assert calls.count(calls[-1]) == 1 and calls[-1] == (0.0 if t_bad < 2 else 2.0)

    def test_negative_start_on_first_window(self):
        with pytest.raises(DomainError, match=r"free path must start >= 0, got -0\.1") as err:
            solve_generalized(pointwise(lambda x, t: t - 0.1), 1.0, DT)
        assert err.value.field == "values"

    def test_negative_start_on_later_window_continues(self):
        """A later window starts where the path is, below 0 or not."""
        solution, regulator, _ = solve_generalized(pointwise(lambda x, t: 1.0 - t), 5.0, DT)
        np.testing.assert_allclose(solution.values, np.maximum(1.0 - solution.times, 0.0),
                                   atol=1e-12)
        np.testing.assert_allclose(regulator.values, np.maximum(solution.times - 1.0, 0.0),
                                   atol=1e-12)
