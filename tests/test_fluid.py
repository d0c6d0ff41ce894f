"""Fluid systems: drift fields, integrators, reflected auxiliaries, hybrid path."""

import math

import numpy as np
import pytest

from twolevel import (
    DomainError,
    FluidState,
    ModelParams,
    NonFinite,
    SampledPath,
    aux_noblock_fluid,
    aux_saturated_fluid,
    critical_ratio,
    gbar_functional,
    h_bar,
    hybrid_drift,
    hybrid_fluid,
    integrate,
    overloaded_fixed_point,
    overloaded_rhs,
    reflect_1d,
    solve_generalized,
    underloaded_fixed_point,
    underloaded_rhs,
    y_b_closed_form,
)

SYM = ModelParams(0.5, 1.0, 1.0, 1.0)


def random_overloaded_instance(rng):
    """Parameter draw plus a ratio strictly inside the overloaded regime."""
    params = ModelParams(
        rng.uniform(0.25, 0.85),
        rng.uniform(0.5, 2.0),
        rng.uniform(0.5, 2.0),
        rng.uniform(0.5, 2.0),
    )
    r = rng.uniform(0.15, 0.85) * critical_ratio(params)
    return params, r


class TestDriftFields:
    def test_overloaded_rhs_pinned(self):
        np.testing.assert_allclose(overloaded_rhs((0.0, 0.0), SYM, 0.3), (-0.3, 0.65))
        np.testing.assert_allclose(overloaded_rhs((0.0, 0.3), SYM, 0.3), (0.0, 0.2))

    def test_underloaded_rhs_pinned(self):
        np.testing.assert_allclose(underloaded_rhs((0.0, 0.0), SYM, 0.7), (0.5, 0.7))
        params = ModelParams(0.0, 1.3, 1.0, 1.0)
        np.testing.assert_allclose(
            underloaded_rhs((1.0, 0.4), params, 0.4), (-1.3, -1.3), atol=1e-15
        )

    def test_fixed_points_are_zeros(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            params, r = random_overloaded_instance(rng)
            d = overloaded_rhs(overloaded_fixed_point(params, r), params, r)
            assert max(abs(d[0]), abs(d[1])) <= 1e-12
            r_under = critical_ratio(params) * rng.uniform(1.1, 1.6)
            d = underloaded_rhs(underloaded_fixed_point(params, r_under), params, r_under)
            assert max(abs(d[0]), abs(d[1])) <= 1e-12


class TestIntegrate:
    def test_exponential_decay_accuracy(self):
        path = integrate(lambda t, s: -s, (1.0,), 1.0, 1e-3)
        assert path.values[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_underloaded_ode_reaches_fixed_point(self):
        path = integrate(
            lambda t, s: underloaded_rhs(s, SYM, 0.7), (0.0, 0.0), 50.0, 1e-3
        )
        np.testing.assert_allclose(path.values[-1], (0.5, 0.2), atol=1e-6)

    def test_overloaded_ode_settles_at_blocked_fraction(self):
        """Long-run y_star from the dynamics pins the 0.4 closed-form value."""
        params = ModelParams(0.5, 2.0, 1.0, 1.0)
        path = integrate(
            lambda t, s: overloaded_rhs(s, params, 0.4), (0.0, 0.0), 100.0, 1e-3
        )
        np.testing.assert_allclose(path.values[-1], (0.4, 0.2), atol=1e-9)

    def test_bad_steps_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda t, s: -s, (1.0,), 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate(lambda t, s: -s, (1.0,), 1e-4, 1e-3)

    def test_blowup_raises_non_finite(self):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFinite):
            integrate(lambda t, s: s * s, (2.0,), 2.0, 1e-3)


class TestAuxSaturatedFluid:
    def test_fixed_point_start_stays_constant(self):
        fp = overloaded_fixed_point(SYM, 0.3)
        sol = aux_saturated_fluid(SYM, 0.3, fp, 10.0)
        np.testing.assert_allclose(sol.y_star, fp[0], atol=1e-9)
        np.testing.assert_allclose(sol.y, fp[1], atol=1e-9)
        assert sol.regulator.values[-1] == 0.0

    def test_empty_start_reaches_fixed_point(self):
        sol = aux_saturated_fluid(SYM, 0.3, (0.0, 0.0), 50.0)
        np.testing.assert_allclose(
            (sol.y_star[-1], sol.y[-1]), overloaded_fixed_point(SYM, 0.3), atol=1e-3
        )

    def test_reflection_active_only_while_inflow_short(self):
        """From (0,0) the boundary pins y_star until mu01*y outgrows mu02*r."""
        sol = aux_saturated_fluid(SYM, 0.3, (0.0, 0.0), 10.0)
        du = np.diff(sol.regulator.values)
        growing = du > 0
        assert growing[0]
        assert not growing[-1]
        k_last = int(np.nonzero(growing)[0].max())
        assert np.all(sol.y_star[: k_last + 1] <= 1e-12)
        assert sol.regulator.values[-1] > 0.1

    def test_tail_obeys_saturated_ode_exactly(self):
        """Once the regulator goes flat every Euler step is the pure drift."""
        sol = aux_saturated_fluid(SYM, 0.3, (0.0, 0.0), 10.0, dt=1e-3)
        du = np.diff(sol.regulator.values)
        k0 = int(np.nonzero(du > 0)[0].max()) + 2
        states = sol.path.values[:, :2]
        for k in range(k0, len(states) - 1, 257):
            drift = overloaded_rhs(states[k], SYM, 0.3)
            step = (states[k + 1] - states[k]) / 1e-3
            np.testing.assert_allclose(step, drift, atol=1e-9)

    def test_lower_envelope_holds(self):
        dt = 1e-3
        sol = aux_saturated_fluid(SYM, 0.3, (0.0, 0.0), 10.0, dt=dt)
        total = sol.y_star + sol.y
        envelope = h_bar(sol.path.times, SYM, 0.3, 0.0)
        assert np.all(total >= envelope - 10 * dt)

    def test_euler_error_halves_with_dt(self):
        ref = aux_saturated_fluid(SYM, 0.3, (0.0, 0.0), 5.0, dt=2e-4)
        coarse = aux_saturated_fluid(SYM, 0.3, (0.0, 0.0), 5.0, dt=2e-3)
        fine = aux_saturated_fluid(SYM, 0.3, (0.0, 0.0), 5.0, dt=1e-3)
        err_coarse = np.abs(coarse.path.values[:, :2] - ref.path.values[::10, :2]).max()
        err_fine = np.abs(fine.path.values[:, :2] - ref.path.values[::5, :2]).max()
        assert err_fine <= 0.6 * err_coarse

    def test_bad_init_rejected(self):
        with pytest.raises(DomainError):
            aux_saturated_fluid(SYM, 0.3, (-0.1, 0.0), 1.0)
        with pytest.raises(DomainError):
            aux_saturated_fluid(SYM, 0.3, (0.6, 0.6), 1.0)


class TestAuxNoblockFluid:
    def test_fixed_point_start_stays_constant(self):
        fp = underloaded_fixed_point(SYM, 0.7)
        sol = aux_noblock_fluid(SYM, 0.7, fp, 10.0)
        np.testing.assert_allclose(sol.y, fp[0], atol=1e-9)
        np.testing.assert_allclose(sol.z, fp[1], atol=1e-6)

    def test_empty_start_reaches_fixed_point(self):
        sol = aux_noblock_fluid(SYM, 0.7, (0.0, 0.0), 50.0)
        np.testing.assert_allclose(
            (sol.y[-1], sol.z[-1]), underloaded_fixed_point(SYM, 0.7), atol=1e-3
        )

    def test_y_matches_closed_form_exactly(self):
        sol = aux_noblock_fluid(SYM, 0.7, (0.1, 0.2), 5.0)
        expected = y_b_closed_form(sol.path.times, SYM, 0.1)
        np.testing.assert_allclose(sol.y, expected, atol=0.0)

    def test_underloaded_regulator_eventually_flat_and_tail_solves_ode(self):
        dt = 1e-3
        sol = aux_noblock_fluid(SYM, 0.7, (1.0, 0.0), 30.0, dt=dt)
        du = np.diff(sol.regulator.values)
        assert du[:50].max() > 0.0
        active = np.nonzero(du > 0)[0]
        k0 = int(active.max()) + 2
        assert k0 < len(sol.z) - 100
        yb = y_b_closed_form(sol.path.times, SYM, 1.0)
        for k in range(k0, len(sol.z) - 1, 997):
            step = (sol.z[k + 1] - sol.z[k]) / dt
            drift = 1.0 * (0.7 - sol.z[k]) - 1.0 * yb[k]
            assert step == pytest.approx(drift, abs=1e-9)

    def test_bad_init_rejected(self):
        with pytest.raises(DomainError):
            aux_noblock_fluid(SYM, 0.7, (1.2, 0.0), 1.0)
        with pytest.raises(DomainError):
            aux_noblock_fluid(SYM, 0.7, (0.5, 0.9), 1.0)


class TestGbarFunctional:
    def test_zero_path_zero_at_origin(self):
        phi = gbar_functional(SYM, 0.3, (0.0, 0.0))
        n = int(round(2.0 / 1e-3)) + 1
        out = phi.apply(SampledPath(0.0, 1e-3, np.zeros(n)))
        assert out.values[0] == 0.0

    def test_matches_direct_double_quadrature(self):
        """The O(n) prefix recursion equals brute-force trapezoid convolution."""
        params = ModelParams(0.4, 1.3, 0.8, 1.1)
        r, init = 0.25, (0.1, 0.2)
        dt, horizon = 1e-3, 2.0
        n = int(round(horizon / dt)) + 1
        t = dt * np.arange(n)
        x = np.sin(t) ** 2
        phi = gbar_functional(params, r, init)
        fast = phi.apply(SampledPath(0.0, dt, x)).values

        mubar = (1 - params.p) * params.mu01 + params.p * params.mu11
        inner = np.concatenate(([0.0], np.cumsum((x[1:] + x[:-1]) * dt / 2)))
        w = x + params.mu11 * inner
        slow = np.empty(n)
        for k in range(0, n, 100):
            integrand = w[: k + 1] * np.exp(-mubar * (t[k] - t[: k + 1]))
            slow_g = -params.p * params.mu01 * np.trapezoid(integrand, dx=dt)
            et = math.exp(-mubar * t[k])
            k_decay = (params.p * init[0] + init[1]) / mubar * (1 - et) + (
                params.p * params.mu11 / mubar**2
            ) * (et + mubar * t[k] - 1.0)
            slow[k] = slow_g + init[0] + params.mu01 * k_decay - params.mu02 * r * t[k]
            assert fast[k] == pytest.approx(slow[k], abs=1e-9)


class TestPicardAgainstProjectedEuler:
    def test_baseline_cross_method_agreement(self):
        dt, horizon = 1e-3, 10.0
        sol, _, _ = solve_generalized(gbar_functional(SYM, 0.3, (0.0, 0.0)), horizon, dt)
        euler = aux_saturated_fluid(SYM, 0.3, (0.0, 0.0), horizon, dt=dt)
        assert np.abs(sol.values - euler.y_star).max() <= 1e-3

    def test_random_draws_cross_method_agreement(self):
        rng = np.random.default_rng(515)
        for _ in range(3):
            params, r = random_overloaded_instance(rng)
            y0 = rng.uniform(0.0, 0.5)
            init = (0.0, y0)
            sol, _, _ = solve_generalized(gbar_functional(params, r, init), 10.0, 1e-3)
            euler = aux_saturated_fluid(params, r, init, 10.0, dt=1e-3)
            assert np.abs(sol.values - euler.y_star).max() <= 1e-3

    def test_picard_residuals_follow_contraction_rate(self):
        horizon, dt = 2.0, 1e-3
        phi = gbar_functional(SYM, 0.3, (0.0, 0.0))
        # Lipschitz constant of Gbar on [0, t]: p * mu01 * (1 + mu11 * t).
        budget = SYM.p * SYM.mu01 * (1.0 + SYM.mu11 * horizon) * horizon
        n = int(round(horizon / dt)) + 1
        x = SampledPath(0.0, dt, np.zeros(n))
        residuals = []
        for _ in range(40):
            new, _ = reflect_1d(phi.apply(x))
            residuals.append(float(np.abs(new.values - x.values).max()))
            x = new
            if residuals[-1] < 1e-12:
                break
        assert residuals[-1] < 1e-12
        for k in range(1, len(residuals) - 1):
            assert residuals[k] <= residuals[k - 1] * (budget / (k + 1)) * 2


class TestHybridFluid:
    def test_overloaded_fixed_point_is_stationary(self):
        init = FluidState(0.4, 0.3, 0.0)
        path = hybrid_fluid(SYM, 0.3, init, 10.0)
        assert np.abs(path.values - init.as_array()).max() <= 1e-9

    def test_underloaded_fixed_point_is_stationary(self):
        init = FluidState(0.0, 0.5, 0.2)
        path = hybrid_fluid(SYM, 0.7, init, 10.0)
        assert np.abs(path.values - init.as_array()).max() <= 1e-9

    def test_empty_start_converges_by_regime(self):
        over = hybrid_fluid(SYM, 0.3, FluidState(0.0, 0.0, 0.0), 50.0)
        np.testing.assert_allclose(over.values[-1], (0.4, 0.3, 0.0), atol=1e-3)
        under = hybrid_fluid(SYM, 0.7, FluidState(0.0, 0.0, 0.0), 50.0)
        np.testing.assert_allclose(under.values[-1], (0.0, 0.5, 0.2), atol=1e-3)

    def test_admissibility_and_complementarity_along_path(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            params, r = random_overloaded_instance(rng)
            path = hybrid_fluid(params, r, FluidState(0.0, 0.0, 0.0), 20.0, dt=1e-3)
            ys, y, z = path.values.T
            assert ys.min() >= 0.0 and y.min() >= 0.0
            assert z.min() >= 0.0 and z.max() <= r + 1e-12
            assert (ys + y).max() <= 1.0 + 1e-12
            assert np.abs(ys * z).max() <= 1e-12

    def test_matches_regime_ode_when_interior(self):
        """Hybrid path agrees with the plain regime ODE while no boundary is hit."""
        dt = 1e-3
        hybrid = hybrid_fluid(SYM, 0.3, FluidState(0.2, 0.3, 0.0), 10.0, dt=dt)
        ode = integrate(lambda t, s: overloaded_rhs(s, SYM, 0.3), (0.2, 0.3), 10.0, dt)
        gap = np.abs(hybrid.values[:, :2] - ode.values).max()
        assert gap <= max(1e-3, 10 * dt)
        hybrid_u = hybrid_fluid(SYM, 0.7, FluidState(0.0, 0.3, 0.1), 10.0, dt=dt)
        ode_u = integrate(lambda t, s: underloaded_rhs(s, SYM, 0.7), (0.3, 0.1), 10.0, dt)
        gap_u = np.abs(hybrid_u.values[:, 1:] - ode_u.values).max()
        assert gap_u <= max(1e-3, 10 * dt)
        assert np.abs(hybrid_u.values[:, 0]).max() == 0.0

    def test_invalid_init_rejected(self):
        with pytest.raises(DomainError):
            hybrid_fluid(SYM, 0.3, FluidState(0.2, 0.3, 0.2), 1.0)


class TestHybridDrift:
    def test_boundary_surplus_selects_blocking_branch(self):
        d = hybrid_drift((0.0, 0.9, 0.0), SYM, 0.3)
        assert d.d_y_star > 0.0
        assert d.d_z == 0.0

    def test_boundary_deficit_selects_free_branch(self):
        d = hybrid_drift((0.0, 0.1, 0.0), SYM, 0.7)
        assert d.d_y_star == 0.0
        assert d.d_z > 0.0
