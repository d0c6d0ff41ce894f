"""Fluid systems: drift fields, exact regime flows, reflected auxiliaries, hybrid path."""

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.signal import lfilter

from twolevel import (
    DomainError,
    FluidState,
    ModelParams,
    NonFinite,
    SampledPath,
    TooManySwitches,
    aux_noblock_fluid,
    aux_saturated_fluid,
    check_complementarity,
    cli,
    critical_ratio,
    fluid,
    gbar_functional,
    h_bar,
    hybrid_fluid,
    overloaded_fixed_point,
    reflect_1d,
    solve_generalized,
    underloaded_fixed_point,
    y_b_closed_form,
)
from fluid_reference import (
    euler_hybrid,
    euler_noblock,
    euler_saturated,
    overloaded_rhs,
    underloaded_rhs,
)

SYM = ModelParams(0.5, 1.0, 1.0, 1.0)


def affine_flow(a, b, x0, times):
    """Rows x(t) = e^{At} x0 + \\int_0^t e^{As} b ds of x' = A x + b, from scipy's expm."""
    d = len(x0)
    m = np.zeros((d + 1, d + 1))
    m[:d, :d], m[:d, d] = a, b
    start = np.append(np.asarray(x0, dtype=float), 1.0)
    return np.array([(expm(m * t) @ start)[:d] for t in times])


def overloaded_flow(params, r):
    """(A, b) of the overloaded drift of (y_star, y), written from the model."""
    p, mu01, mu11, mu02 = params.p, params.mu01, params.mu11, params.mu02
    a = [[0.0, mu01], [-p * mu11, -mu01 - p * mu11]]
    return a, [-mu02 * r, p * (mu02 * r + mu11)]


def underloaded_flow(params, r):
    """(A, b) of the underloaded drift of (y, z), written from the model."""
    p, mu01, mu11, mu02 = params.p, params.mu01, params.mu11, params.mu02
    a = [[-(p * mu11 + (1 - p) * mu01), 0.0], [-mu01, -mu02]]
    return a, [p * mu11, mu02 * r]


def first_order_errors(exact, euler, dt):
    """Sup gaps of the Euler reference at dt and dt/2 to the exact samples on the dt grid."""
    coarse, fine = euler(dt), euler(dt / 2)
    return (float(np.abs(coarse - exact).max()), float(np.abs(fine[::2] - exact).max()))


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
    """The two regime ODEs through ``solve_system``."""

    def test_exponential_decay_accuracy(self):
        # With p = 0 nothing feeds class 0, so y decays as exp(-mu01 t).
        params = ModelParams(0.0, 1.0, 1.0, 1.0)
        sol = fluid.solve_system("underloaded-ode", params, 0.5, (0.0, 1.0, 0.0), 1.0, 1e-3)
        assert sol.y[-1] == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_underloaded_ode_reaches_fixed_point(self):
        sol = fluid.solve_system("underloaded-ode", SYM, 0.7, (0.0, 0.0, 0.0), 50.0, 1e-3)
        np.testing.assert_allclose((sol.y[-1], sol.z[-1]), (0.5, 0.2), atol=1e-6)

    def test_overloaded_ode_settles_at_blocked_fraction(self):
        """Long-run y_star from the dynamics pins the 0.4 closed-form value."""
        params = ModelParams(0.5, 2.0, 1.0, 1.0)
        sol = fluid.solve_system("overloaded-ode", params, 0.4, (0.0, 0.0, 0.0), 100.0, 1e-3)
        np.testing.assert_allclose((sol.y_star[-1], sol.y[-1]), (0.4, 0.2), atol=1e-9)

    def test_bad_steps_rejected(self):
        with pytest.raises(DomainError):
            fluid.solve_system("overloaded-ode", SYM, 0.3, (0.0, 0.0, 0.0), 1.0, 0.0)
        with pytest.raises(DomainError):
            fluid.solve_system("overloaded-ode", SYM, 0.3, (0.0, 0.0, 0.0), 1e-4, 1e-3)

    def test_blowup_raises_non_finite(self):
        """Rates so large that the matrix exponential overflows fail loudly."""
        huge = ModelParams(0.5, 1e308, 1e308, 1e308)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFinite):
            fluid.solve_system("overloaded-ode", huge, 0.3, (0.0, 0.0, 0.0), 2.0, 1e-3)

    def test_ode_paths_match_closed_form(self):
        times = 1e-3 * np.arange(0, 10001, 613)
        over = fluid.solve_system("overloaded-ode", SYM, 0.3, (0.2, 0.1, 0.0), 10.0, 1e-3)
        expected = affine_flow(*overloaded_flow(SYM, 0.3), (0.2, 0.1), times)
        np.testing.assert_allclose(over.path.values[::613, :2], expected, rtol=0, atol=1e-12)
        under = fluid.solve_system("underloaded-ode", SYM, 0.7, (0.0, 0.9, 0.6), 10.0, 1e-3)
        expected = affine_flow(*underloaded_flow(SYM, 0.7), (0.9, 0.6), times)
        np.testing.assert_allclose(under.path.values[::613, 1:], expected, rtol=0, atol=1e-12)


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
        """Once the regulator goes flat the path is the overloaded flow in closed form."""
        dt = 1e-3
        sol = aux_saturated_fluid(SYM, 0.3, (0.0, 0.0), 10.0, dt=dt)
        du = np.diff(sol.regulator.values)
        k0 = int(np.nonzero(du > 0)[0].max()) + 2
        states = sol.path.values[:, :2]
        ks = np.arange(k0, len(states), 257)
        expected = affine_flow(*overloaded_flow(SYM, 0.3), states[k0], (ks - k0) * dt)
        np.testing.assert_allclose(states[ks], expected, rtol=0, atol=1e-12)

    def test_lower_envelope_holds(self):
        dt = 1e-3
        sol = aux_saturated_fluid(SYM, 0.3, (0.0, 0.0), 10.0, dt=dt)
        total = sol.y_star + sol.y
        envelope = h_bar(sol.path.times, SYM, 0.3, 0.0)
        assert np.all(total >= envelope - 10 * dt)

    def test_euler_error_halves_with_dt(self):
        """The projected-Euler reference converges to the exact path at first order."""
        dt = 2e-3
        sol = aux_saturated_fluid(SYM, 0.3, (0.0, 0.0), 5.0, dt=dt)
        exact = np.column_stack((sol.path.values, sol.regulator.values))
        coarse, fine = first_order_errors(
            exact, lambda h: np.column_stack(euler_saturated(SYM, 0.3, (0.0, 0.0), 5.0, h)), dt)
        assert fine <= 0.6 * coarse
        assert coarse <= 0.25 * dt

    def test_sliding_phase_ends_at_closed_form_time(self):
        """On y_star = 0, y relaxes to p mu11 / mubar; the path leaves the
        boundary when y reaches mu02 r / mu01."""
        rng = np.random.default_rng(808)
        dt = 1e-3
        for _ in range(10):
            params, r = random_overloaded_instance(rng)
            mubar = (1 - params.p) * params.mu01 + params.p * params.mu11
            y_inf = params.p * params.mu11 / mubar
            y_thr = params.mu02 * r / params.mu01
            y0 = rng.uniform(0.0, y_thr)
            tau = math.log((y_inf - y0) / (y_inf - y_thr)) / mubar
            sol = aux_saturated_fluid(params, r, (0.0, y0), tau + 2.0, dt=dt)
            k_last = int(np.nonzero(np.diff(sol.regulator.values) > 0)[0].max())
            assert abs((k_last + 1) * dt - tau) <= dt
            assert np.all(sol.y_star[: k_last + 1] == 0.0)
            assert np.all(sol.y_star[k_last + 2:] > 0.0)

    def test_regulator_complementary_to_path(self):
        rng = np.random.default_rng(909)
        for _ in range(10):
            params, r = random_overloaded_instance(rng)
            sol = aux_saturated_fluid(params, r, (0.0, rng.uniform(0.0, 0.5)), 10.0)
            y_star = SampledPath(0.0, sol.path.dt, sol.y_star)
            assert check_complementarity(y_star, sol.regulator, 1e-12)

    def test_switch_cap_raises_naming_count(self, monkeypatch, capsys, tmp_path):
        """From the origin the path slides, then leaves the boundary: one switch."""
        monkeypatch.setattr(fluid, "MAX_SWITCHES", 0)
        with pytest.raises(TooManySwitches, match="more than 0 times"):
            aux_saturated_fluid(SYM, 0.3, (0.0, 0.0), 10.0)
        code = cli.main(["fluid", "--system", "aux-saturated", "--n", "100", "--c2", "30",
                         "--horizon", "10", "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: fluid path switched mode more than 0 times")
        assert not (tmp_path / "out").exists()

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
        ks = np.arange(k0, len(sol.z), 997)
        start = (sol.y[k0], sol.z[k0])
        expected = affine_flow(*underloaded_flow(SYM, 0.7), start, (ks - k0) * dt)
        np.testing.assert_allclose(sol.path.values[ks, 1:], expected, rtol=0, atol=1e-12)

    def test_euler_error_halves_with_dt(self):
        """The projected-Euler reference converges to the exact path at first order."""
        dt = 2e-3
        sol = aux_noblock_fluid(SYM, 0.7, (1.0, 0.0), 5.0, dt=dt)
        exact = np.column_stack((sol.path.values, sol.regulator.values))
        coarse, fine = first_order_errors(
            exact, lambda h: np.column_stack(euler_noblock(SYM, 0.7, (1.0, 0.0), 5.0, h)), dt)
        assert fine <= 0.6 * coarse
        assert coarse <= 0.25 * dt

    def test_regulator_complementary_to_path(self):
        rng = np.random.default_rng(910)
        active = 0
        for _ in range(10):
            params, _ = random_overloaded_instance(rng)
            r = critical_ratio(params) * rng.uniform(1.1, 1.6)
            sol = aux_noblock_fluid(params, r, (1.0, 0.0), 10.0)
            active += sol.regulator.values[-1] > 0.0
            z = SampledPath(0.0, sol.path.dt, sol.z)
            assert check_complementarity(z, sol.regulator, 1e-12)
        assert active >= 5

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
    """The Picard solver of the generalized problem against the exact reflected path."""

    def test_baseline_cross_method_agreement(self):
        dt, horizon = 1e-3, 10.0
        sol, _, _ = solve_generalized(gbar_functional(SYM, 0.3, (0.0, 0.0)), horizon, dt)
        exact = aux_saturated_fluid(SYM, 0.3, (0.0, 0.0), horizon, dt=dt)
        assert np.abs(sol.values - exact.y_star).max() <= 1e-3

    def test_random_draws_cross_method_agreement(self):
        rng = np.random.default_rng(515)
        for _ in range(3):
            params, r = random_overloaded_instance(rng)
            y0 = rng.uniform(0.0, 0.5)
            init = (0.0, y0)
            sol, _, _ = solve_generalized(gbar_functional(params, r, init), 10.0, 1e-3)
            exact = aux_saturated_fluid(params, r, init, 10.0, dt=1e-3)
            assert np.abs(sol.values - exact.y_star).max() <= 1e-3

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
        times = dt * np.arange(10001)
        hybrid = hybrid_fluid(SYM, 0.3, FluidState(0.2, 0.3, 0.0), 10.0, dt=dt)
        ode = affine_flow(*overloaded_flow(SYM, 0.3), (0.2, 0.3), times[::100])
        gap = np.abs(hybrid.values[::100, :2] - ode).max()
        assert gap <= max(1e-3, 10 * dt)
        assert np.abs(hybrid.values[:, 2]).max() == 0.0
        hybrid_u = hybrid_fluid(SYM, 0.7, FluidState(0.0, 0.3, 0.1), 10.0, dt=dt)
        ode_u = affine_flow(*underloaded_flow(SYM, 0.7), (0.3, 0.1), times[::100])
        gap_u = np.abs(hybrid_u.values[::100, 1:] - ode_u).max()
        assert gap_u <= max(1e-3, 10 * dt)
        assert np.abs(hybrid_u.values[:, 0]).max() == 0.0

    def test_euler_error_halves_with_dt(self):
        """The projected-Euler reference converges to the exact path at first order."""
        dt = 2e-3
        for r in (0.3, 0.7):
            init = FluidState(0.0, 0.0, 0.0)
            exact = hybrid_fluid(SYM, r, init, 5.0, dt=dt).values
            coarse, fine = first_order_errors(
                exact, lambda h: euler_hybrid(SYM, r, (0.0, 0.0, 0.0), 5.0, h), dt)
            assert fine <= 0.6 * coarse
            assert coarse <= 0.25 * dt

    def test_leaves_blocking_when_y_star_empties(self):
        """From a blocked start with too little inflow, y_star drains to 0 and
        the idle pool then fills: one switch, each constraint held exactly."""
        path = hybrid_fluid(SYM, 0.7, FluidState(0.3, 0.2, 0.0), 10.0).values
        ys, _, z = path.T
        k = int(np.argmax(ys == 0.0))
        assert 0 < k and np.all(ys[k:] == 0.0) and np.all(z[:k] == 0.0)
        assert z[-1] == pytest.approx(0.2, abs=1e-3)

    def test_invalid_init_rejected(self):
        with pytest.raises(DomainError):
            hybrid_fluid(SYM, 0.3, FluidState(0.2, 0.3, 0.2), 1.0)


class TestHybridDrift:
    """The mode chosen at the double boundary y_star = z = 0, seen in the first step."""

    def test_boundary_surplus_selects_blocking_branch(self):
        path = hybrid_fluid(SYM, 0.3, FluidState(0.0, 0.9, 0.0), 1e-3, dt=1e-3)
        assert path.values[1, 0] > 0.0
        assert path.values[1, 2] == 0.0

    def test_boundary_deficit_selects_free_branch(self):
        path = hybrid_fluid(SYM, 0.7, FluidState(0.0, 0.1, 0.0), 1e-3, dt=1e-3)
        assert path.values[1, 0] == 0.0
        assert path.values[1, 2] > 0.0


class TestPicardRecursion:
    """The banded solve inside ``gbar_functional`` against scipy's lfilter recursion."""

    def test_recursion_matches_lfilter(self, monkeypatch):
        blas_dtbsv, solves = fluid.dtbsv, []

        def recording(k, band, c, **flags):
            before = c.copy()
            solves.append((before, blas_dtbsv(k, band, c, **flags).copy()))
            return solves[-1][1]

        monkeypatch.setattr(fluid, "dtbsv", recording)
        params = ModelParams(0.4, 1.3, 0.8, 1.1)
        t = 1e-3 * np.arange(10001)
        gbar_functional(params, 0.25, (0.1, 0.2)).apply(SampledPath(0.0, 1e-3, np.sin(t) ** 2))
        solve_generalized(gbar_functional(SYM, 0.3, (0.0, 0.0)), 10.0, 1e-3)
        assert len(solves) >= 5
        for i, (c, conv) in enumerate(solves):
            p = params if i == 0 else SYM
            decay = math.exp(-((1 - p.p) * p.mu01 + p.p * p.mu11) * 1e-3)
            np.testing.assert_allclose(conv, lfilter([1.0], [1.0, -decay], c), rtol=1e-13, atol=0)

    def test_grid_terms_follow_the_grid(self):
        """One functional applied on alternating grids gives what a fresh one gives."""
        params, r, init = ModelParams(0.4, 1.3, 0.8, 1.1), 0.25, (0.1, 0.2)
        phi = gbar_functional(params, r, init)
        x = np.cos(1e-3 * np.arange(2001)) ** 2
        paths = [SampledPath(0.0, 1e-3, x), SampledPath(0.0, 2e-3, x),
                 SampledPath(0.5, 1e-3, x), SampledPath(0.0, 1e-3, x[:1001])]
        for path in paths + paths:
            fresh = gbar_functional(params, r, init).apply(path).values
            assert np.array_equal(phi.apply(path).values, fresh)


class TestBrentPort:
    """``fluid._brentq`` returns what scipy's ``brentq`` returns, bit for bit."""

    def test_switch_times_match_scipy(self, monkeypatch):
        port, solves = fluid._brentq, []

        def both(f, a, b, xtol):
            s = port(f, a, b, xtol)
            solves.append((s, brentq(f, a, b, xtol=xtol)))
            return s

        monkeypatch.setattr(fluid, "_brentq", both)
        rng = np.random.default_rng(1044)
        for _ in range(40):
            params, r = random_overloaded_instance(rng)
            r_under = critical_ratio(params) * rng.uniform(1.1, 1.6)
            y_star = rng.uniform(0.0, 0.5)
            y = rng.uniform(0.0, 1.0 - y_star)
            start = FluidState(y_star, y, 0.0)
            hybrid_fluid(params, r, start, 10.0, dt=1e-2)
            hybrid_fluid(params, r_under, start, 10.0, dt=1e-2)
            aux_saturated_fluid(params, r, (y_star, y), 10.0, dt=1e-2)
            aux_noblock_fluid(params, r_under, (y, rng.uniform(0.0, r_under)), 10.0, dt=1e-2)
        assert len(solves) >= 50
        assert [s for s, t in solves] == [t for s, t in solves]

    def test_roots_match_scipy_on_random_brackets(self):
        """Cubics, exponentials, steep tanh and flat triple roots on random
        brackets, tolerances and iteration caps: same root or same error."""

        def outcome(solve):
            try:
                return solve()
            except (ValueError, RuntimeError) as exc:
                return type(exc)

        rng = np.random.default_rng(4)
        for i in range(2000):
            c = rng.normal(size=4)
            f = (lambda x: c[0] + c[1] * x + c[2] * x**2 + c[3] * x**3,
                 lambda x: math.exp(c[0] * x) - 1.5 + c[1] * x,
                 lambda x: math.tanh(5.0 * c[0] * (x - c[1])) + 1e-3 * c[2],
                 lambda x: (x - c[0]) ** 3 * abs(c[1]) + 1e-9 * c[2])[i % 4]
            a, b = sorted(2.0 * rng.normal(size=2))
            xtol, maxiter = 10.0 ** rng.uniform(-16, -2), int(rng.integers(1, 120))
            assert outcome(lambda: fluid._brentq(f, a, b, xtol, maxiter=maxiter)) == (
                outcome(lambda: brentq(f, a, b, xtol=xtol, maxiter=maxiter)))

    @pytest.mark.parametrize("a, b", [(1.0, 3.0), (-1.0, 1.0)])
    def test_root_at_an_endpoint(self, a, b):
        assert fluid._brentq(lambda x: x - 1.0, a, b, 1e-15) == 1.0
        assert brentq(lambda x: x - 1.0, a, b, xtol=1e-15) == 1.0

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-15)
        with pytest.raises(ValueError, match="different signs"):
            fluid._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-15)

    def test_too_few_iterations_raise(self):
        with pytest.raises(RuntimeError):
            brentq(lambda x: x**3 - 2.0, 0.0, 2.0, xtol=1e-15, maxiter=3)
        with pytest.raises(RuntimeError, match="after 3 iterations"):
            fluid._brentq(lambda x: x**3 - 2.0, 0.0, 2.0, 1e-15, maxiter=3)
        # With the fewest iterations scipy needs, both converge to the same root.
        steps = next(m for m in range(1, 101)
                     if brentq(lambda x: x**3 - 2.0, 0.0, 2.0, xtol=1e-15, maxiter=m,
                               disp=False, full_output=True)[1].converged)
        assert fluid._brentq(lambda x: x**3 - 2.0, 0.0, 2.0, 1e-15, maxiter=steps) == (
            brentq(lambda x: x**3 - 2.0, 0.0, 2.0, xtol=1e-15, maxiter=steps))
        with pytest.raises(RuntimeError):
            fluid._brentq(lambda x: x**3 - 2.0, 0.0, 2.0, 1e-15, maxiter=steps - 1)
