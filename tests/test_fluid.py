"""Fluid systems: drift fields, exact regime flows, reflected auxiliaries, hybrid path."""

import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction

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
    ScalingParams,
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
    native,
    overloaded_fixed_point,
    skorokhod,
    solve_generalized,
    underloaded_fixed_point,
    y_b_closed_form,
)
from fluid_reference import (
    affine_path_reference,
    euler_hybrid,
    euler_noblock,
    euler_saturated,
    gbar_reference,
    overloaded_rhs,
    picard_full_horizon,
    reference_modes,
    reflect_1d,
    underloaded_rhs,
)
from sim_reference import drift

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


class TestTableModes:
    """The modes ``fluid`` derives from the transition tables, against the closed forms
    of ``fluid_reference``, and the premise that makes the sliding modes affine."""

    def test_modes_match_closed_forms(self):
        """Every mode of the five systems at 250 draws, each at an overloaded and an
        underloaded ratio: the same pinned coordinates, matrices and guards within 8 ulps
        of the reference matrix's largest entry (measured: 2.5; 7.1 over 2,000 draws with
        p in [0, 1] and rates in [0.2, 3])."""
        rng, eps, worst = np.random.default_rng(27), np.finfo(float).eps, 0.0
        for _ in range(250):
            params, r = random_overloaded_instance(rng)
            for ratio in (r, critical_ratio(params) * rng.uniform(1.1, 1.6)):
                for system in fluid.SYSTEMS:
                    got = fluid._system_modes(system, params, ratio)
                    want = reference_modes(system, params, ratio)
                    assert [m.pinned for m in got] == [pinned for *_, pinned in want], system
                    for mode, (matrix, guard, _) in zip(got, want, strict=True):
                        scale = np.abs(matrix).max()
                        worst = max(worst, np.abs(mode.matrix - matrix).max() / scale)
                        assert (mode.guard is None) == (guard is None), system
                        if guard is not None:
                            worst = max(worst, np.abs(mode.guard - guard).max() / scale)
        assert worst <= 8 * eps

    def test_filippov_premise_of_the_auxiliary_tables(self):
        """Across its boundary coordinate c, each auxiliary table's drift jumps by F+ - F0,
        every row of which is a constant times row c: -p times it in y for aux-saturated
        (c = y_star), 0 for aux-noblock (c = z).  F+ on c = 0 is the affine drift above c,
        extrapolated from c = 1 and 2."""
        rng = np.random.default_rng(28)
        for _ in range(100):
            params, r = random_overloaded_instance(rng)
            scaling, y = ScalingParams(1, r), rng.uniform(0.1, 1.0)
            cases = (("aux-saturated", lambda t: (t, y), 0, -params.p),
                     ("aux-noblock", lambda t: (y, t), 1, 0.0))
            for process, point, c, multiple in cases:
                at = [drift(process, point(t), params, scaling) for t in (0.0, 1.0, 2.0)]
                jump = 2 * at[1] - at[2] - at[0]
                assert abs(jump[c]) > 0.01, process
                assert jump[1 - c] == pytest.approx(multiple * jump[c], rel=0, abs=1e-12), process

    def test_no_jump_across_the_boundary_never_slides(self):
        """At r = 0 no specialist ever frees a blocked operator, so F+ = F0 on y_star = 0:
        the saturated path from 0 leaves the boundary at once and is the overloaded ODE's."""
        params = ModelParams(0.5, 1.0, 1.0, 1.0)
        sol = aux_saturated_fluid(params, 0.0, (0.0, 0.0), 5.0, dt=1e-2)
        ode = fluid.solve_system("overloaded-ode", params, 0.0, (0.0, 0.0, 0.0), 5.0, 1e-2)
        assert np.array_equal(sol.path.values, ode.path.values)
        assert not sol.regulator.values.any() and sol.y_star[-1] > 0.5

    def test_unknown_system_refused_before_any_work(self):
        """It once raised a bare KeyError from the mode lookup, after the grid checks."""
        for horizon, dt in ((1.0, 0.1), (-1.0, 0.0)):
            with pytest.raises(DomainError) as err:
                fluid.solve_system("bogus", SYM, 0.3, (0.0, 0.0, 0.0), horizon, dt)
            assert err.value.field == "system"
            assert str(fluid.SYSTEMS) in str(err.value)

    @pytest.mark.parametrize("r", [-0.1, math.nan, math.inf])
    def test_bad_ratio_refused_as_r(self, r):
        """Negative and NaN r were reported as a fault in z ("z must lie in [0, -0.1]");
        r = inf reached the segments and ended in NonFinite."""
        for solve in (lambda: fluid.solve_system("hybrid", SYM, r, (0, 0, 0), 1.0, 0.1),
                      lambda: hybrid_fluid(SYM, r, FluidState(0.0, 0.0, 0.0), 1.0, 0.1)):
            with pytest.raises(DomainError, match="^r must be finite and >= 0") as err:
                solve()
            assert err.value.field == "r"


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


# Each system at a ratio of its regime, with the coordinates it evolves.
EVOLVED = [
    ("hybrid", 0.3, ("y_star", "y", "z")),
    ("aux-saturated", 0.3, ("y_star", "y")),
    ("aux-noblock", 0.7, ("y", "z")),
    ("overloaded-ode", 0.3, ("y_star", "y")),
    ("underloaded-ode", 0.7, ("y", "z")),
]
COORDS = ("y_star", "y", "z")
# The named solver of a system, on a (y_star, y, z) start, as (path, regulator or None).
NAMED = {
    "hybrid": lambda r, x0: (hybrid_fluid(SYM, r, FluidState(*x0), 2.0, dt=1e-2).values, None),
    "aux-saturated": lambda r, x0: _pair(aux_saturated_fluid(SYM, r, x0[:2], 2.0, dt=1e-2)),
    "aux-noblock": lambda r, x0: _pair(aux_noblock_fluid(SYM, r, x0[1:], 2.0, dt=1e-2)),
}


def _pair(sol):
    return sol.path.values, sol.regulator.values


def _solvers(system):
    """solve_system and, where the system has one, its named solver."""
    yield lambda r, x0: _pair(fluid.solve_system(system, SYM, r, x0, 2.0, 1e-2))
    if system in NAMED:
        yield NAMED[system]


class TestStartPointRule:
    """One start-point check, ``FluidState.check``, for every system and solver."""

    @pytest.mark.parametrize("system, r, evolved", EVOLVED)
    def test_start_just_below_zero_is_clamped(self, system, r, evolved):
        for coord in evolved:
            at_zero, below = [0.0, 0.3, 0.0], [0.0, 0.3, 0.0]
            at_zero[COORDS.index(coord)], below[COORDS.index(coord)] = 0.0, -1e-10
            for solve in _solvers(system):
                values, regulator = solve(r, below)
                assert values[0, COORDS.index(coord)] == 0.0
                expected, expected_regulator = solve(r, at_zero)
                assert np.array_equal(values, expected)
                assert regulator is None or np.array_equal(regulator, expected_regulator)

    @pytest.mark.parametrize("system, r, evolved", EVOLVED)
    def test_start_outside_tolerance_is_refused(self, system, r, evolved):
        for coord in evolved:
            start = [0.0, 0.3, 0.0]
            start[COORDS.index(coord)] = -1e-8
            for solve in _solvers(system):
                with pytest.raises(DomainError) as err:
                    solve(r, start)
                assert err.value.field == coord

    @pytest.mark.parametrize("system, r, start, field", [
        ("hybrid", 0.3, [0.7, 0.3, 0.0], "y_star"),
        ("aux-saturated", 0.3, [0.0, 1.0, 0.0], "y_star"),
        ("aux-noblock", 0.7, [0.0, 0.2, 0.7], "z"),
        ("overloaded-ode", 0.3, [0.5, 0.5, 0.0], "y_star"),
        ("underloaded-ode", 0.7, [0.0, 0.3, 0.7], "z"),
    ])
    def test_upper_boundary_tolerance(self, system, r, start, field):
        """y_star + y = 1 or z = r, passed by 1e-10 runs and by 1e-8 is refused."""
        index = 2 if field == "z" else 1
        for excess, ok in ((1e-10, True), (1e-8, False)):
            past = list(start)
            past[index] += excess
            for solve in _solvers(system):
                if ok:
                    assert np.isfinite(solve(r, past)[0]).all()
                else:
                    with pytest.raises(DomainError) as err:
                        solve(r, past)
                    assert err.value.field == field

    @pytest.mark.parametrize("system, r, start", [
        ("hybrid", 0.3, [0.3, 0.7, 0.0]),
        ("hybrid", 0.7, [0.0, 0.3, 0.7]),
        ("aux-saturated", 0.3, [0.2, 0.8, 0.0]),
        ("aux-saturated", 0.3, [0.0, 1.0, 0.0]),
        ("aux-noblock", 0.7, [0.0, 1.0, 0.0]),
        ("aux-noblock", 0.7, [0.0, 0.2, 0.7]),
        ("overloaded-ode", 0.3, [0.5, 0.5, 0.0]),
        ("underloaded-ode", 0.7, [0.0, 1.0, 0.0]),
        ("underloaded-ode", 0.7, [0.0, 0.3, 0.7]),
    ])
    def test_start_just_above_upper_boundary_is_clamped(self, system, r, start):
        """1e-10 past y_star + y = 1 (in y) or z = r gives the path from the boundary.

        Such a start once wrote a first row outside the domain."""
        index = 2 if start[2] else 1
        past = list(start)
        past[index] += 1e-10
        for solve in _solvers(system):
            values, regulator = solve(r, past)
            assert values[0, index] == start[index]
            expected, expected_regulator = solve(r, start)
            assert np.array_equal(values, expected)
            assert regulator is None or np.array_equal(regulator, expected_regulator)

    @pytest.mark.parametrize("system", ["aux-noblock", "underloaded-ode"])
    def test_y_above_one_named_y_where_y_star_is_held(self, system):
        """Such a system has no y_star, so y > 1 is not reported as y_star + y > 1."""
        for solve in _solvers(system):
            with pytest.raises(DomainError, match="^y exceeds 1$") as err:
                solve(0.7, [0.0, 1.0 + 1e-8, 0.0])
            assert err.value.field == "y"

    def test_held_coordinate_is_zeroed_before_the_check(self):
        """Each ODE ignores the coordinate it holds at 0, so y_star * z > 0 is no fault."""
        over = fluid.solve_system("overloaded-ode", SYM, 0.3, (0.1, 0.3, 0.2), 2.0, 1e-2)
        held = fluid.solve_system("overloaded-ode", SYM, 0.3, (0.1, 0.3, 0.0), 2.0, 1e-2)
        assert np.array_equal(over.path.values, held.path.values)
        assert not over.z.any()
        under = fluid.solve_system("underloaded-ode", SYM, 0.7, (0.1, 0.3, 0.2), 2.0, 1e-2)
        held = fluid.solve_system("underloaded-ode", SYM, 0.7, (0.0, 0.3, 0.2), 2.0, 1e-2)
        assert np.array_equal(under.path.values, held.path.values)
        assert not under.y_star.any()

    def test_ode_start_outside_domain_refused(self):
        """Both once returned a path from a start outside the fluid domain."""
        with pytest.raises(DomainError, match="y_star must be non-negative"):
            fluid.solve_system("overloaded-ode", SYM, 0.3, (-5.0, 2.0, 0.0), 6.0, 1e-3)
        with pytest.raises(DomainError, match="exceeds 1"):
            fluid.solve_system("underloaded-ode", SYM, 0.7, (0.0, 1.2, 0.0), 6.0, 1e-3)

    def test_gbar_start_checked_by_fluid_state(self):
        for init, field in (((-1e-8, 0.2), "y_star"), ((0.2, -1e-8), "y"), ((0.6, 0.5), "y_star")):
            with pytest.raises(DomainError) as err:
                gbar_functional(SYM, 0.3, init)
            assert err.value.field == field
        gbar_functional(SYM, 0.3, (-1e-10, 1.0))

    @pytest.mark.parametrize("solve", [
        lambda: aux_saturated_fluid(SYM, 0.3, (0.0, 0.0), 1e-4),
        lambda: aux_noblock_fluid(SYM, 0.7, (0.0, 0.0), 1e-4),
        lambda: hybrid_fluid(SYM, 0.3, FluidState(0.0, 0.0, 0.0), 1e-4),
    ], ids=["aux-saturated", "aux-noblock", "hybrid"])
    def test_named_solver_refuses_horizon_below_dt(self, solve):
        with pytest.raises(DomainError) as err:
            solve()
        assert err.value.field == "horizon"


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
        out, _ = phi(np.zeros(n), 0.0, 1e-3, None)
        assert out[0] == 0.0

    def test_restart_continues_the_whole_path(self):
        """A window fed the state carried out of the window before gives the
        free path of the whole grid on its points, and the same end state."""
        params, r, init = ModelParams(0.4, 1.3, 0.8, 1.1), 0.25, (0.1, 0.2)
        x = np.sin(1e-3 * np.arange(5001)) ** 2
        phi = gbar_functional(params, r, init)
        whole, end = phi(x, 0.0, 1e-3, None)
        head, carried = phi(x[:2001], 0.0, 1e-3, None)
        tail, tail_end = phi(x[2000:], 2.0, 1e-3, carried)
        np.testing.assert_array_equal(head, whole[:2001])
        # The grid terms read t = 2 + k dt here, not (2000 + k) dt.
        np.testing.assert_allclose(tail, whole[2000:], rtol=0, atol=1e-14)
        assert tail_end == end

    def test_matches_direct_double_quadrature(self):
        """The O(n) prefix recursion equals brute-force trapezoid convolution."""
        params = ModelParams(0.4, 1.3, 0.8, 1.1)
        r, init = 0.25, (0.1, 0.2)
        dt, horizon = 1e-3, 2.0
        n = int(round(horizon / dt)) + 1
        t = dt * np.arange(n)
        x = np.sin(t) ** 2
        phi = gbar_functional(params, r, init)
        fast = phi(x, 0.0, dt, None)[0]

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

    @pytest.mark.parametrize("t0, dt, carried", [
        (0.0, 1e-3, None), (2.0, 1e-3, (0.3, 0.2)), (0.5, 2e-3, (1.0, -0.5)),
        (0.0, 1e-3, (0.0, 0.0)),
    ])
    def test_matches_numpy_reference(self, t0, dt, carried):
        """The compiled pass against the numpy and banded-solve form it replaced."""
        params, r, init = ModelParams(0.4, 1.3, 0.8, 1.1), 0.25, (0.1, 0.2)
        x = np.sin(t0 + dt * np.arange(2001)) ** 2
        free, end = gbar_functional(params, r, init)(x, t0, dt, carried)
        ref, ref_end = gbar_reference(params, r, init)(x, t0, dt, carried)
        np.testing.assert_allclose(free, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())
        np.testing.assert_allclose(end, ref_end, rtol=1e-13, atol=0)

    def test_reference_solves_to_the_same_path(self):
        """Picard on the reference functional lands on the compiled one's path."""
        phi, ref = (f(SYM, 0.3, (0.1, 0.2)) for f in (gbar_functional, gbar_reference))
        sol, reg, _ = solve_generalized(phi, 5.0, 1e-3)
        ref_sol, ref_reg, _ = solve_generalized(ref, 5.0, 1e-3)
        np.testing.assert_allclose(sol.values, ref_sol.values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(reg.values, ref_reg.values, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("x, dt, field", [
        (np.zeros(0), 1e-3, "values"), (np.zeros((3, 2)), 1e-3, "values"),
        (np.zeros(3), 0.0, "dt"), (np.zeros(3), -1e-3, "dt"),
    ], ids=["empty", "vector", "zero-dt", "negative-dt"])
    def test_bad_window_refused(self, x, dt, field):
        with pytest.raises(DomainError) as err:
            gbar_functional(SYM, 0.3, (0.0, 0.0))(x, 0.0, dt, None)
        assert err.value.field == field

    def test_any_real_sequence_is_taken(self):
        """A list, integers or a strided view are read as a contiguous float path."""
        phi = gbar_functional(SYM, 0.3, (0.1, 0.2))
        x = np.arange(20.0)
        want = phi(x[::2].copy(), 0.0, 1e-3, None)[0]
        for same in (x[::2], list(x[::2]), np.arange(0, 20, 2)):
            np.testing.assert_array_equal(phi(same, 0.0, 1e-3, None)[0], want)


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
            new, _ = reflect_1d(SampledPath(0.0, dt, phi(x.values, 0.0, dt, None)[0]))
            residuals.append(float(np.abs(new.values - x.values).max()))
            x = new
            if residuals[-1] < 1e-12:
                break
        assert residuals[-1] < 1e-12
        for k in range(1, len(residuals) - 1):
            assert residuals[k] <= residuals[k - 1] * (budget / (k + 1)) * 2


class TestWindowedPicard:
    """Windowed ``solve_generalized`` against Picard on the whole horizon at once."""

    def test_matches_full_horizon_picard_on_criterion_06_instances(self):
        rng = np.random.default_rng(12345)
        instances = [(SYM, 0.3)] + [random_overloaded_instance(rng) for _ in range(20)]
        worst = 0.0
        for params, r in instances:
            phi = gbar_functional(params, r, (0.0, 0.0))
            sol, reg, _ = solve_generalized(phi, 10.0, 1e-3)
            ref, ref_reg, _ = picard_full_horizon(phi, 10.0, 1e-3)
            worst = max(worst, np.abs(sol.values - ref.values).max(),
                        np.abs(reg.values - ref_reg.values).max())
            assert check_complementarity(sol, reg, 1e-12)
        # Measured: 1.9e-10.
        assert worst <= 1e-8

    @pytest.mark.parametrize("horizon", [5.3, 0.5, 1e-3])
    def test_window_edges(self, horizon):
        """A last window shorter than the rest, a horizon inside one window,
        and a grid of two points; one window is full-horizon Picard itself."""
        phi = gbar_functional(SYM, 0.3, (0.1, 0.2))
        sol, reg, _ = solve_generalized(phi, horizon, 1e-3)
        ref, ref_reg, _ = picard_full_horizon(phi, horizon, 1e-3)
        assert len(sol) == len(ref) == int(round(horizon / 1e-3)) + 1
        if horizon <= skorokhod.WINDOW:
            np.testing.assert_array_equal(sol.values, ref.values)
            np.testing.assert_array_equal(reg.values, ref_reg.values)
        else:
            np.testing.assert_allclose(sol.values, ref.values, rtol=0, atol=1e-8)
            np.testing.assert_allclose(reg.values, ref_reg.values, rtol=0, atol=1e-8)
        assert check_complementarity(sol, reg, 1e-12)

    @pytest.mark.parametrize("horizon", [60.0, 100.0])
    def test_long_horizon_converges(self, horizon):
        """Full-horizon Picard stalls at horizon 60 (residual 1.9e-6 after 200
        sweeps); the windowed solve stays within 1e-5 of the exact path."""
        sol, reg, iterations = solve_generalized(
            gbar_functional(SYM, 0.3, (0.0, 0.0)), horizon, 1e-3)
        exact = aux_saturated_fluid(SYM, 0.3, (0.0, 0.0), horizon, dt=1e-3)
        assert iterations < 200
        # Measured: 3.4e-8.
        assert np.abs(sol.values - exact.y_star).max() <= 1e-5
        assert check_complementarity(sol, reg, 1e-12)

    def test_sweeps_cover_under_half_the_full_horizon_points(self):
        """Grid points passed to the functional over all sweeps at horizon 10:
        full-horizon Picard takes 25 sweeps of 10,001 points."""
        phi = gbar_functional(SYM, 0.3, (0.0, 0.0))
        points = []

        def counting(x, t0, dt, carried):
            points.append(len(x))
            return phi(x, t0, dt, carried)

        solve_generalized(counting, 10.0, 1e-3)
        assert sum(points) < 25 * 10001 / 2


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
    """The convolution inside ``gbar_functional`` against scipy's lfilter recursion."""

    def test_recursion_matches_lfilter(self):
        """Each output, on one long path and on every window of a solve, is Gbar
        with the convolution run by lfilter from the carried pair."""
        calls = []

        def recording(params, r, init):
            phi = gbar_functional(params, r, init)

            def record(x, t0, dt, carried):
                free, out = phi(x, t0, dt, carried)
                calls.append((params, r, init, x.copy(), t0, dt, carried, free.copy()))
                return free, out

            return record

        t = 1e-3 * np.arange(10001)
        recording(ModelParams(0.4, 1.3, 0.8, 1.1), 0.25, (0.1, 0.2))(np.sin(t) ** 2, 0.0, 1e-3,
                                                                     None)
        solve_generalized(recording(SYM, 0.3, (0.0, 0.0)), 10.0, 1e-3)
        assert len(calls) >= 5 and sum(c[6] is not None for c in calls) >= 4
        for params, r, init, x, t0, dt, carried, free in calls:
            p, mu01, mu11, mu02 = params.p, params.mu01, params.mu11, params.mu02
            mubar = (1 - p) * mu01 + p * mu11
            decay = math.exp(-mubar * dt)
            inner0, conv0 = (0.0, 0.0) if carried is None else carried
            inner = inner0 + np.concatenate(([0.0], np.cumsum((x[1:] + x[:-1]) * dt / 2)))
            w = x + mu11 * inner
            c = np.concatenate(([conv0], (w[1:] + decay * w[:-1]) * dt / 2))
            conv = lfilter([1.0], [1.0, -decay], c)
            times = t0 + dt * np.arange(len(x))
            et = np.exp(-mubar * times)
            k_decay = (p * init[0] + init[1]) / mubar * (1 - et) + (
                p * mu11 / mubar**2) * (et + mubar * times - 1.0)
            base = init[0] + mu01 * k_decay - mu02 * r * times
            # Within 1e-13 of the larger of the two terms it sums, at each point.
            bound = 1e-13 * (np.abs(p * mu01 * conv) + np.abs(base))
            assert np.all(np.abs(free - (base - p * mu01 * conv)) <= bound)

    def test_pass_is_the_stated_float_recursion(self):
        """Bit for bit, the recursion in double precision with the convolution
        step a fused multiply-add, rounded once (exactly, through Fraction):
        what a BLAS banded solve with FMA kernels computes, on any host."""
        params, r, init = ModelParams(0.4, 1.3, 0.8, 1.1), 0.25, (0.1, 0.2)
        p, mu01, mu11 = params.p, params.mu01, params.mu11
        dt, h, coef = 1e-3, 1e-3 / 2, -p * mu01
        decay = float(np.exp(-((1 - p) * mu01 + p * mu11) * dt))
        x = (np.sin(2.0 + dt * np.arange(300)) ** 2).tolist()
        phi = gbar_functional(params, r, init)
        base = phi(np.zeros(len(x)), 2.0, dt, None)[0].tolist()
        inner, conv = 0.3, 0.2
        w_prev, want = mu11 * inner + x[0], [coef * conv + base[0]]
        for k in range(1, len(x)):
            inner += (x[k] + x[k - 1]) * h
            w = mu11 * inner + x[k]
            c = (w_prev * decay + w) * h
            conv = float(Fraction(decay) * Fraction(conv) + Fraction(c))
            want.append(coef * conv + base[k])
            w_prev = w
        free, end = phi(np.array(x), 2.0, dt, (0.3, 0.2))
        assert free.tobytes() == np.array(want).tobytes()
        assert end == (inner, conv)

    def test_grid_terms_follow_the_grid(self):
        """One functional applied on alternating grids gives what a fresh one gives."""
        params, r, init = ModelParams(0.4, 1.3, 0.8, 1.1), 0.25, (0.1, 0.2)
        phi = gbar_functional(params, r, init)
        x = np.cos(1e-3 * np.arange(2001)) ** 2
        grids = [(x, 0.0, 1e-3), (x, 0.0, 2e-3), (x, 0.5, 1e-3), (x[:1001], 0.0, 1e-3)]
        for grid in grids + grids:
            fresh = gbar_functional(params, r, init)(*grid, None)[0]
            assert np.array_equal(phi(*grid, None)[0], fresh)


class TestHostIndependence:
    """Picard's and the exact solver's bits do not depend on the BLAS kernel the host
    selects."""

    def test_symmetric_solve_same_under_another_blas_core(self):
        """Criterion 06's symmetric solve, in fresh interpreters with OpenBLAS
        free to pick its kernel and held to its Prescott (no FMA) one.  The
        banded BLAS solve that the compiled pass replaced gave different bits."""
        code = ("import hashlib; from twolevel import ModelParams, gbar_functional, "
                "solve_generalized\n"
                "x, u, k = solve_generalized(gbar_functional(ModelParams(0.5, 1.0, 1.0, 1.0), "
                "0.3, (0.0, 0.0)), 10.0, 1e-3)\n"
                "print(k, hashlib.sha256(x.values.tobytes() + u.values.tobytes()).hexdigest())")
        src = os.path.dirname(os.path.dirname(os.path.abspath(fluid.__file__)))
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs = []
        for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env={**env, **extra}, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        x, u, k = solve_generalized(gbar_functional(SYM, 0.3, (0.0, 0.0)), 10.0, 1e-3)
        here = f"{k} {hashlib.sha256(x.values.tobytes() + u.values.tobytes()).hexdigest()}\n"
        assert outputs == [here, here]

    def test_exact_paths_same_under_other_blas_cores(self):
        """The exact solver's doubling and exponentials are in the compiled library, in a
        fixed order, and the modes are plain sums of the table's rates: the saturated paths
        at r = 0.2 and 0.3, a congested hybrid path and the z and u columns of a no-blocking
        path that slides on z = 0 hash alike whichever kernel OpenBLAS picks.  Through
        numpy's matmul and scipy's expm the first three hashes differed.  (aux-noblock's y
        column is numpy's exp, not covered here.)"""
        code = ("import hashlib; from twolevel import FluidState, ModelParams, "
                "aux_noblock_fluid, aux_saturated_fluid, hybrid_fluid\n"
                "sym, h = ModelParams(0.5, 1.0, 1.0, 1.0), hashlib.sha256()\n"
                "for r in (0.2, 0.3):\n"
                "    sol = aux_saturated_fluid(sym, r, (0.0, 0.0), 10.0, dt=1e-3)\n"
                "    h.update(sol.path.values.tobytes() + sol.regulator.values.tobytes())\n"
                "h.update(hybrid_fluid(sym, 0.3, FluidState(0.5, 0.4, 0.0), 10.0, dt=1e-3)"
                ".values.tobytes())\n"
                "sol = aux_noblock_fluid(sym, 0.3, (0.0, 0.3), 10.0, dt=1e-3)\n"
                "h.update(sol.z.tobytes() + sol.regulator.values.tobytes())\n"
                "print(h.hexdigest())")
        src = os.path.dirname(os.path.dirname(os.path.abspath(fluid.__file__)))
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs = []
        for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"}, {"OPENBLAS_CORETYPE": "Haswell"}):
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env={**env, **extra}, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        h = hashlib.sha256()
        for r in (0.2, 0.3):
            sol = aux_saturated_fluid(SYM, r, (0.0, 0.0), 10.0, dt=1e-3)
            h.update(sol.path.values.tobytes() + sol.regulator.values.tobytes())
        h.update(hybrid_fluid(SYM, 0.3, FluidState(0.5, 0.4, 0.0), 10.0, dt=1e-3).values.tobytes())
        sol = aux_noblock_fluid(SYM, 0.3, (0.0, 0.3), 10.0, dt=1e-3)
        assert sol.regulator.values[-1] > 0.5  # it slides on z = 0
        h.update(sol.z.tobytes() + sol.regulator.values.tobytes())
        assert outputs == [h.hexdigest() + "\n"] * 3


def compiled_expm(matrix, s):
    """expm(matrix s) from the library's ``segment_flow``, one unit vector per column."""
    lib, e, out = native.library(), np.ascontiguousarray(matrix, dtype=float), np.empty((5, 5))
    column = np.empty(5)
    for j, unit in enumerate(np.eye(5)):
        lib.segment_flow(e.ctypes.data, None, unit.ctypes.data, column.ctypes.data, s)
        out[:, j] = column
    return out


class TestCompiledSegment:
    """The library's exact segments against scipy's ``expm`` and the numpy doubling."""

    def test_exponential_matches_scipy(self):
        """Every mode of the five systems over random draws: within 5e-14 of scipy's expm,
        relative to its largest entry (measured: 5.8e-15 here, 8.9e-15 over 200 draws)."""
        rng = np.random.default_rng(26)
        worst, squared = 0.0, 0
        for _ in range(40):
            params, r = random_overloaded_instance(rng)
            r_under = critical_ratio(params) * rng.uniform(1.1, 1.6)
            for system in fluid.SYSTEMS:
                ratio = r_under if system in ("aux-noblock", "underloaded-ode") else r
                for mode in fluid._system_modes(system, params, ratio):
                    for s in (0.0, 1e-6, 1e-3, 0.1, 1.0, 10.0):
                        want = expm(mode.matrix * s)
                        got = compiled_expm(mode.matrix, s)
                        worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
                        # Above 1/2 the series is taken on M s / 2^q and squared q times.
                        squared += np.abs(mode.matrix * s).sum(axis=1).max() > 0.5
        assert squared > 500
        assert worst <= 5e-14
        np.testing.assert_array_equal(compiled_expm(fluid._system_modes("hybrid", SYM, 0.3)[0]
                                                    .matrix, 0.0), np.eye(5))

    def test_overflowing_norm_gives_nan(self):
        """||M|| |s| past the largest double has no scaling: NaN, which the solver refuses."""
        matrix = np.zeros((5, 5))
        matrix[0, 0] = 1e308
        assert np.isnan(compiled_expm(matrix, 10.0)).all()
        matrix[0, 1] = 1e308
        assert np.isnan(compiled_expm(matrix, 1e-9)).all()

    def test_segment_reports_its_first_non_finite_row(self):
        """y_star grows by e^700 a step: row 1 is 1e304 and row 2 overflows, reported as
        -1 - 2 with or without a guard, unless the guard crosses first.  A coupling of
        1e300 from y, which stays 0, overflows the segment's bound on its entries but no
        entry: the rows are then scanned, and none is reported."""
        lib = native.library()

        def segment(matrix, x, guard=None):
            seg = np.empty((6, 3))
            g = None if guard is None else np.asarray(guard, dtype=float).ctypes.data
            end = lib.affine_segment(matrix.ctypes.data, g, x.ctypes.data, 0.0, 1.0,
                                     len(seg), 3, seg.ctypes.data)
            return end, seg

        growth = np.zeros((5, 5))
        growth[0, 0] = 700.0
        start = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
        for guard, want in ((None, -3), ([1.0, 0, 0, 0, 0], -3), ([-1.0, 0, 0, 0, 1e300], 1)):
            end, seg = segment(growth, start, guard)
            assert end == want
            assert np.isfinite(seg[:2]).all() and seg[1, 0] == pytest.approx(math.exp(700))
        coupling = np.zeros((5, 5))
        coupling[0, 1] = 1e300
        end, seg = segment(coupling, np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
        assert end == len(seg) and not seg.any()

    def test_guard_value_is_the_guard_of_the_flow(self):
        mode = fluid._system_modes("aux-saturated", SYM, 0.3)[1]
        x, out = np.array([0.0, 0.2, 0.0, 0.1, 1.0]), np.empty(5)
        g = native.library().segment_flow(mode.matrix.ctypes.data, mode.guard.ctypes.data,
                                          x.ctypes.data, out.ctypes.data, 0.25)
        np.testing.assert_allclose(out, expm(mode.matrix * 0.25) @ x, rtol=0, atol=1e-15)
        assert g == pytest.approx(mode.guard @ out, abs=1e-16)

    def test_same_as_numpy_doubling(self):
        """Criterion 06's 21 saturated instances and 20 drawn instances of the three
        reflected systems: the same crossing indices, paths and regulators within 1e-12,
        switch times within 1e-11 (measured: 2.5e-13 and 2.9e-13 over 61 switches)."""
        rng = np.random.default_rng(12345)
        cases = [("aux-saturated", params, r) for params, r in
                 [(SYM, 0.3)] + [random_overloaded_instance(rng) for _ in range(20)]]
        rng = np.random.default_rng(41)
        for _ in range(20):
            params, r = random_overloaded_instance(rng)
            cases += [("aux-saturated", params, r), ("hybrid", params, r),
                      ("aux-noblock", params, 1.3 * critical_ratio(params))]
        switches = 0
        for system, params, r in cases:
            x0 = np.zeros(3)
            values, regulator, got = fluid._affine_path(system, params, r, x0, 10.0, 1e-3)
            ref_values, ref_regulator, want = affine_path_reference(system, params, r, x0,
                                                                    10.0, 1e-3)
            assert [k for k, _ in got] == [k for k, _ in want], system
            np.testing.assert_allclose(values, ref_values, rtol=0, atol=1e-12)
            np.testing.assert_allclose(regulator, ref_regulator, rtol=0, atol=1e-12)
            np.testing.assert_allclose([t for _, t in got], [t for _, t in want], rtol=0,
                                       atol=1e-11)
            switches += len(got)
        assert switches >= 40


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
