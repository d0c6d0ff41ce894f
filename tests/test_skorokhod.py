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


class TestSolveGeneralized:
    def test_constant_functional_identity(self):
        """phi ignoring its argument, returning t: solution is t, found in 2 passes."""
        solution, regulator, iterations = solve_generalized(
            lambda path: SampledPath(0.0, path.dt, path.times), 1.0, DT)
        np.testing.assert_allclose(solution.values, solution.times, atol=0.0)
        np.testing.assert_array_equal(regulator.values, 0.0)
        assert iterations == 2

    def test_constant_negative_drift_fully_reflected(self):
        solution, regulator, iterations = solve_generalized(
            lambda path: SampledPath(0.0, path.dt, -path.times), 1.0, DT)
        np.testing.assert_array_equal(solution.values, 0.0)
        np.testing.assert_allclose(regulator.values, regulator.times, atol=0.0)
        assert iterations == 1

    def test_start_override_changes_nothing_for_contraction(self):
        def damp(path):
            return SampledPath(0.0, path.dt, 0.5 * path.values + 0.1)

        sol_zero, _, _ = solve_generalized(damp, 1.0, DT, tol=1e-12)
        ones = SampledPath(0.0, DT, np.ones(len(sol_zero)))
        sol_one, _, _ = solve_generalized(damp, 1.0, DT, tol=1e-12, start=ones)
        np.testing.assert_allclose(sol_zero.values, sol_one.values, atol=1e-10)
        np.testing.assert_allclose(sol_zero.values, 0.2, atol=1e-10)

    def test_oscillator_hits_iteration_budget(self):
        def flip(path):
            return SampledPath(0.0, path.dt, 1.0 - path.values)

        with pytest.raises(NoConvergence) as err:
            solve_generalized(flip, 0.5, DT, max_iter=12)
        assert err.value.max_iter == 12
        assert err.value.residual == pytest.approx(1.0)

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_nonpositive_dt_rejected(self, dt):
        phi = gbar_functional(ModelParams(0.5, 1.0, 1.0, 1.0), 0.3, (0.0, 0.0))
        with pytest.raises(DomainError) as err:
            solve_generalized(phi, 1.0, dt)
        assert err.value.field == "dt"
