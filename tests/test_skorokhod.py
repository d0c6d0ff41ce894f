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
    reflect_1d,
    solve_generalized,
)

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
    """A restartable functional acting on each grid point alone, carrying no state."""
    return lambda path, carried: (SampledPath(path.t0, path.dt, fn(path)), None)


class TestSolveGeneralized:
    def test_constant_functional_identity(self):
        """phi ignoring its argument, returning t: solution is t, found in 2 passes."""
        solution, regulator, iterations = solve_generalized(
            pointwise(lambda path: path.times), 1.0, DT)
        np.testing.assert_allclose(solution.values, solution.times, atol=0.0)
        np.testing.assert_array_equal(regulator.values, 0.0)
        assert iterations == 2

    def test_constant_negative_drift_fully_reflected(self):
        solution, regulator, iterations = solve_generalized(
            pointwise(lambda path: -path.times), 1.0, DT)
        np.testing.assert_array_equal(solution.values, 0.0)
        np.testing.assert_allclose(regulator.values, regulator.times, atol=0.0)
        assert iterations == 1

    def test_start_override_changes_nothing_for_contraction(self):
        damp = pointwise(lambda path: 0.5 * path.values + 0.1)
        sol_zero, _, _ = solve_generalized(damp, 1.0, DT, tol=1e-12)
        ones = SampledPath(0.0, DT, np.ones(len(sol_zero)))
        sol_one, _, _ = solve_generalized(damp, 1.0, DT, tol=1e-12, start=ones)
        np.testing.assert_allclose(sol_zero.values, sol_one.values, atol=1e-10)
        np.testing.assert_allclose(sol_zero.values, 0.2, atol=1e-10)

    def test_oscillator_hits_iteration_budget(self):
        with pytest.raises(NoConvergence) as err:
            solve_generalized(pointwise(lambda path: 1.0 - path.values), 0.5, DT, max_iter=12)
        assert err.value.max_iter == 12
        assert err.value.residual == pytest.approx(1.0)

    def test_no_budget_no_sweep(self):
        with pytest.raises(NoConvergence) as err:
            solve_generalized(pointwise(lambda path: path.values), 0.5, DT, max_iter=0)
        assert err.value.max_iter == 0
        assert err.value.residual == np.inf

    def test_budget_is_per_window_and_reports_the_failing_window(self):
        """Contracting on [0, 3) and flipping after: the window [0, 2] converges
        in 28 sweeps, and the window [2, 4] spends its own 30 at residual 0.6."""
        def damp_then_flip(path):
            return np.where(path.times < 3.0, 0.5 * path.values + 0.1, 1.0 - path.values)

        with pytest.raises(NoConvergence) as err:
            solve_generalized(pointwise(damp_then_flip), 5.0, DT, max_iter=30)
        assert err.value.max_iter == 30
        assert err.value.residual == pytest.approx(0.6)

    def test_later_windows_start_from_clipped_extrapolation(self):
        """Each window's first sweep starts from the line through the last two
        converged points, clipped at 0: here that is already the solution."""
        seen = {}

        def ramp(path, carried):
            seen.setdefault(path.t0, path.values.copy())
            return SampledPath(path.t0, path.dt, 3.0 - path.times), None

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

    def test_start_seeds_every_window(self):
        """With ``start`` given, each window starts from its slice of it, the
        first point of a later window pinned to its converged value."""
        seen = {}

        def damp(path, carried):
            seen.setdefault(path.t0, path.values.copy())
            return SampledPath(path.t0, path.dt, 0.5 * path.values + 0.1), None

        start = sampled(lambda t: 1.0 + t, 5.3)
        solution, _, _ = solve_generalized(damp, 5.3, DT, tol=1e-12, start=start)
        np.testing.assert_allclose(solution.values, 0.2, atol=1e-11)
        assert len(seen) == 3
        for t0, first in seen.items():
            k = int(round(t0 / DT))
            np.testing.assert_array_equal(first[1:], start.values[k + 1:k + len(first)])
            assert first[0] == (start.values[0] if k == 0 else solution.values[k])

    def test_start_on_another_grid_rejected(self):
        damp = pointwise(lambda path: 0.5 * path.values + 0.1)
        with pytest.raises(GridMismatch):
            solve_generalized(damp, 1.0, DT, start=sampled(np.cos, 2.0))

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_nonpositive_dt_rejected(self, dt):
        phi = gbar_functional(ModelParams(0.5, 1.0, 1.0, 1.0), 0.3, (0.0, 0.0))
        with pytest.raises(DomainError) as err:
            solve_generalized(phi, 1.0, dt)
        assert err.value.field == "dt"
