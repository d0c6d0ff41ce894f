"""Jump-chain simulators: clause enumeration, sampling, rescaling, residuals."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import solve_continuous_lyapunov

from twolevel import (
    DomainError,
    InvalidState,
    MicroState,
    ModelParams,
    ScalingParams,
    Trajectory,
    build_generator,
    check_state,
    martingale_residual,
    overloaded_fixed_point,
    rescale,
    residual_sup,
    simulate,
    simulate_aux_noblock,
    simulate_aux_saturated,
    simulate_process,
    stationary_distribution,
    stationary_moments,
    step,
    transitions,
    underloaded_fixed_point,
    write_trajectory_csv,
)
from twolevel import fluid, sim
from twolevel.sim import _CHUNK, PROCESSES, _jump_draws, drift
from fluid_reference import overloaded_rhs, underloaded_rhs
from rate_clauses import rate_clauses
import sim_reference

SYM = ModelParams(0.5, 1.0, 1.0, 1.0)


def step_loop(process, init, params, scaling, horizon, seed):
    """(times, states) of repeated ``step`` calls from ``init`` up to ``horizon``."""
    rng = np.random.default_rng(seed)
    t, state = 0.0, init
    times, states = [0.0], [state]
    while True:
        holding, nxt = step(process, state, rng, params, scaling)
        t += holding
        if t >= horizon:
            return times, states
        state = nxt
        times.append(t)
        states.append(state)


def as_target_rates(state, enabled):
    return {
        tuple(a + b for a, b in zip(state, tr.delta)): tr.rate for tr in enabled
    }


class TestCheckState:
    def test_valid_state_passes(self):
        check_state((1, 2, 0), ScalingParams(n=5, c2=2))

    @pytest.mark.parametrize(
        "state", [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (3, 3, 0), (0, 0, 3), (1, 0, 1)]
    )
    def test_invalid_states_rejected(self, state):
        with pytest.raises(InvalidState):
            check_state(state, ScalingParams(n=5, c2=2))


class TestEnabledTransitions:
    def test_idle_specialist_state_enumeration(self):
        scaling = ScalingParams(n=3, c2=1)
        got = as_target_rates((0, 2, 1), transitions("main", (0, 2, 1), SYM, scaling))
        assert got == {(0, 1, 0): 1.0, (0, 2, 0): 1.0, (0, 3, 1): 0.5}

    def test_blocked_operator_state_enumeration(self):
        scaling = ScalingParams(n=3, c2=1)
        got = as_target_rates((1, 1, 0), transitions("main", (1, 1, 0), SYM, scaling))
        assert got == {(2, 0, 0): 1.0, (0, 1, 0): 0.5, (0, 2, 0): 0.5, (1, 2, 0): 0.5}

    def test_degenerate_corner_is_absorbing(self):
        params = ModelParams(0.0, 1.0, 1.0, 1.0)
        assert transitions("main", (0, 0, 1), params, ScalingParams(n=1, c2=1)) == []

    def test_total_rate_double_entry(self):
        """Sum of clause rates equals the independently derived exit rate."""
        params = ModelParams(0.35, 1.4, 0.7, 1.2)
        scaling = ScalingParams(n=7, c2=3)
        rng = np.random.default_rng(42)
        for _ in range(200):
            y_star = int(rng.integers(0, 8))
            y = int(rng.integers(0, 8 - y_star))
            z = 0 if y_star > 0 else int(rng.integers(0, 4))
            total = sum(tr.rate for tr in transitions("main", (y_star, y, z), params, scaling))
            spec_total = params.mu01 * y + params.p * params.mu11 * (7 - y_star - y)
            spec_total += params.mu02 * (3 if y_star > 0 else 3 - z)
            assert total == pytest.approx(spec_total, abs=1e-12)

    def test_targets_are_valid_states(self):
        scaling = ScalingParams(n=4, c2=2)
        for y_star in range(5):
            for y in range(5 - y_star):
                for z in range(3):
                    if y_star > 0 and z > 0:
                        continue
                    for tr in transitions("main", (y_star, y, z), SYM, scaling):
                        target = tuple(
                            a + b for a, b in zip((y_star, y, z), tr.delta)
                        )
                        check_state(target, scaling)
                        assert tr.rate > 0


class TestAuxTransitions:
    def test_saturated_no_blocked_operators_disables_level2(self):
        got = transitions("aux-saturated", (0, 5), SYM, ScalingParams(n=10, c2=2))
        deltas = {tr.delta for tr in got}
        assert deltas == {(1, -1), (0, 1)}

    def test_saturated_blocked_state_enumeration(self):
        got = transitions("aux-saturated", (1, 0), SYM, ScalingParams(n=3, c2=2))
        assert as_target_rates((1, 0), got) == {(0, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0}

    def test_noblock_busy_specialists_drop_handover(self):
        got = transitions("aux-noblock", (4, 0), SYM, ScalingParams(n=10, c2=3))
        rates = {tr.delta: tr.rate for tr in got}
        assert rates[(-1, 0)] == pytest.approx(0.5 * 4)
        assert (-1, -1) not in rates and (0, -1) not in rates

    def test_noblock_all_idle_only_admission(self):
        got = transitions("aux-noblock", (0, 3), SYM, ScalingParams(n=10, c2=3))
        assert [(tr.delta, tr.rate) for tr in got] == [((1, 0), 0.5 * 10)]

    def test_unknown_process_rejected(self):
        with pytest.raises(DomainError):
            transitions("warp", (0, 0), SYM, ScalingParams(n=3, c2=1))

    def test_out_of_space_states_rejected(self):
        with pytest.raises(InvalidState):
            transitions("aux-saturated", (-1, 0), SYM, ScalingParams(n=3, c2=1))
        with pytest.raises(InvalidState):
            transitions("aux-noblock", (0, 2), SYM, ScalingParams(n=3, c2=1))


class TestCouplingConsistency:
    """Shared-coordinate rate agreement between the main and auxiliary chains.

    The main side comes from the hand-written reference clauses, so the aux
    tables are checked against an independent statement of the model.
    """

    @staticmethod
    def reference_deltas(state, params, scaling, keep):
        return {
            tuple(b - a for a, b in zip(state, target))[keep]: rate
            for target, rate in rate_clauses(state, params, scaling)
        }

    def test_blocked_states_match_saturated_chain(self):
        params = ModelParams(0.4, 1.2, 0.9, 1.1)
        scaling = ScalingParams(n=6, c2=3)
        for y_star in range(1, 7):
            for y in range(7 - y_star):
                main = self.reference_deltas((y_star, y, 0), params, scaling, slice(0, 2))
                aux = {
                    tr.delta: tr.rate
                    for tr in transitions("aux-saturated", (y_star, y), params, scaling)
                }
                assert main == aux

    def test_idle_states_match_noblock_chain(self):
        params = ModelParams(0.4, 1.2, 0.9, 1.1)
        scaling = ScalingParams(n=6, c2=3)
        for y in range(7):
            for z in range(1, 4):
                main = self.reference_deltas((0, y, z), params, scaling, slice(1, 3))
                aux = {
                    tr.delta: tr.rate
                    for tr in transitions("aux-noblock", (y, z), params, scaling)
                }
                assert main == aux


class TestTableDrift:
    """Sum of delta * rate / n over each table against the closed-form fluid model.

    Kurtz's fluid limit of a density-dependent chain is this drift, so the
    tables must vanish at the model's fixed points and reproduce the fluid
    right-hand sides, which are written out separately in ``fluid``.
    """

    PARAMS = ModelParams(0.35, 1.4, 0.7, 1.2)  # critical ratio ~0.2475
    N = 1000
    OVER, UNDER = ScalingParams(N, 120), ScalingParams(N, 370)

    def at(self, process, point, scaling):
        x = tuple(self.N * v for v in point)
        return drift(process, x, self.PARAMS, scaling)

    def mode(self, system, point, scaling):
        """(d y_star, d y, d z) of the exact fluid solver's first mode of ``system``."""
        matrix = fluid._system_modes(system, self.PARAMS, scaling.r)[0].matrix
        return (matrix @ (*point, 0.0, 1.0))[:3]

    def test_vanishes_at_fixed_points(self):
        ys, y = overloaded_fixed_point(self.PARAMS, self.OVER.r)
        yu, zu = underloaded_fixed_point(self.PARAMS, self.UNDER.r)
        assert ys > 0 and zu > 0
        for process, point, scaling in [
            ("main", (ys, y, 0.0), self.OVER),
            ("aux-saturated", (ys, y), self.OVER),
            ("main", (0.0, yu, zu), self.UNDER),
            ("aux-noblock", (yu, zu), self.UNDER),
        ]:
            assert np.abs(self.at(process, point, scaling)).max() <= 1e-12, process

    def test_matches_fluid_right_hand_sides(self):
        rng = np.random.default_rng(5)
        p, over, under = self.PARAMS, self.OVER, self.UNDER
        for _ in range(50):
            ys = rng.uniform(0.01, 0.99)
            y = rng.uniform(0.0, 1.0 - ys)
            blocked = (*overloaded_rhs((ys, y), p, over.r), 0.0)
            np.testing.assert_allclose(self.at("main", (ys, y, 0.0), over), blocked, rtol=0, atol=1e-12)
            for system in ("hybrid", "aux-saturated", "overloaded-ode"):
                np.testing.assert_allclose(self.mode(system, (ys, y, 0.0), over), blocked,
                                           rtol=0, atol=1e-12)
            np.testing.assert_allclose(self.at("aux-saturated", (ys, y), over), blocked[:2],
                                       rtol=0, atol=1e-12)
            y = rng.uniform(0.0, 1.0)
            z = rng.uniform(0.01, under.r)
            idle = (0.0, *underloaded_rhs((y, z), p, under.r))
            np.testing.assert_allclose(self.at("main", (0.0, y, z), under), idle, rtol=0, atol=1e-12)
            for system in ("aux-noblock", "underloaded-ode"):
                np.testing.assert_allclose(self.mode(system, (0.0, y, z), under), idle,
                                           rtol=0, atol=1e-12)
            np.testing.assert_allclose(self.at("aux-noblock", (y, z), under), idle[1:],
                                       rtol=0, atol=1e-12)


class TestStep:
    def test_single_transition_deterministic_target_and_mean_holding(self):
        scaling = ScalingParams(n=1, c2=1)
        rng = np.random.default_rng(2024)
        holdings = np.empty(100_000)
        for i in range(len(holdings)):
            holding, nxt = step("main", (0, 0, 1), rng, SYM, scaling)
            assert nxt == (0, 1, 1)
            holdings[i] = holding
        lam = 0.5
        se = (1 / lam) / math.sqrt(len(holdings))
        assert abs(holdings.mean() - 1 / lam) <= 3 * se

    def test_selection_frequencies(self):
        scaling = ScalingParams(n=3, c2=1)
        rng = np.random.default_rng(7)
        counts = {(0, 1, 0): 0, (0, 2, 0): 0, (0, 3, 1): 0}
        draws = 100_000
        for _ in range(draws):
            _, nxt = step("main", (0, 2, 1), rng, SYM, scaling)
            counts[tuple(nxt)] += 1
        for target, prob in [((0, 1, 0), 0.4), ((0, 2, 0), 0.4), ((0, 3, 1), 0.2)]:
            sigma = math.sqrt(prob * (1 - prob) / draws)
            assert abs(counts[target] / draws - prob) <= 3 * sigma

    def test_absorbing_state_returns_marker(self):
        params = ModelParams(0.0, 1.0, 1.0, 1.0)
        rng = np.random.default_rng(0)
        holding, nxt = step("main", (0, 0, 1), rng, params, ScalingParams(n=1, c2=1))
        assert holding == math.inf and nxt == (0, 0, 1)

    def test_fixed_seed_reproducible(self):
        scaling = ScalingParams(n=3, c2=1)
        a = step("main", (0, 2, 1), np.random.default_rng(55), SYM, scaling)
        b = step("main", (0, 2, 1), np.random.default_rng(55), SYM, scaling)
        assert a == b


class TestSimulate:
    def test_zero_horizon_no_events(self):
        traj = simulate((0, 0, 0), SYM, ScalingParams(n=5, c2=2), 0.0, seed=1)
        assert traj.num_events == 0
        assert traj.events == []
        assert traj.initial == MicroState(0, 0, 0)

    def test_tiny_instance_alternation(self):
        """With one operator, one specialist and certain handover the chain cycles."""
        params = ModelParams(1.0, 1.0, 1.0, 1.0)
        traj = simulate((0, 0, 1), params, ScalingParams(n=1, c2=1), 20.0, seed=9)
        states = [tuple(r) for r in traj.states]
        assert states[1] == (0, 1, 1)
        assert states[2] == (0, 1, 0)
        reachable = {(0, 0, 1), (0, 1, 1), (0, 1, 0), (1, 0, 0)}
        assert set(states) <= reachable

    @pytest.mark.parametrize(
        "process, n, c2, horizon, min_events",
        [pytest.param(p, 8, 3, 6.0, 10, id=p) for p in PROCESSES]
        # Past two refills of the loops' block of draws.
        + [pytest.param(p, 200, 100, 20.0, 2 * _CHUNK, id=f"{p}-blocks") for p in PROCESSES],
    )
    def test_matches_manual_step_loop(self, process, n, c2, horizon, min_events):
        """Each compiled loop replays exactly the embedded chain that step() exposes."""
        scaling = ScalingParams(n=n, c2=c2)
        init = (0,) * len(PROCESSES[process].columns)
        traj = simulate_process(process, init, SYM, scaling, horizon, seed=99)
        assert traj.process == process and traj.columns == PROCESSES[process].columns
        times, states = step_loop(process, init, SYM, scaling, horizon, 99)
        assert traj.num_events > min_events
        assert traj.times.tolist() == times
        assert [tuple(r) for r in traj.states] == [tuple(s) for s in states]

    def test_every_visited_state_valid(self):
        scaling = ScalingParams(n=25, c2=9)
        params = ModelParams(0.45, 1.1, 0.8, 1.3)
        for seed in range(4):
            traj = simulate((0, 0, 0), params, scaling, 30.0, seed=seed)
            ys, y, z = traj.states.T
            assert ys.min() >= 0 and y.min() >= 0 and z.min() >= 0
            assert (ys + y).max() <= 25
            assert z.max() <= 9
            assert np.all(ys * z == 0)
            assert np.all(np.diff(traj.times) > 0)

    def test_low_load_blocking_indicator_rare(self):
        scaling = ScalingParams(n=200, c2=140)
        traj = simulate((0, 0, 0), SYM, scaling, 50.0, seed=31)
        t_lo, t_hi = 10.0, 50.0
        lo = np.concatenate([traj.times, [traj.horizon]])
        occupied = 0.0
        for k in range(len(traj.times)):
            a, b = max(lo[k], t_lo), min(lo[k + 1], t_hi)
            if b > a and traj.states[k, 0] > 0:
                occupied += b - a
        assert occupied / (t_hi - t_lo) <= 0.02

    def test_absorbed_flag_set(self):
        params = ModelParams(0.0, 1.0, 1.0, 1.0)
        traj = simulate((0, 0, 1), params, ScalingParams(n=1, c2=1), 5.0, seed=3)
        assert traj.absorbed and traj.num_events == 0

    def test_seed_determinism(self):
        scaling = ScalingParams(n=10, c2=4)
        a = simulate((0, 0, 0), SYM, scaling, 10.0, seed=77)
        b = simulate((0, 0, 0), SYM, scaling, 10.0, seed=77)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_matches_oracle_time_average(self):
        """Long-run empirical mean of y agrees with the exact stationary mean."""
        params, scaling = SYM, ScalingParams(n=2, c2=1)
        pi = stationary_distribution(build_generator(params, scaling))
        exact = stationary_moments(pi, scaling)[1] * scaling.n
        horizon, burn = 4000.0, 200.0
        traj = simulate((0, 0, 0), params, scaling, horizon, seed=13)
        edges = np.linspace(burn, horizon, 21)
        starts = np.searchsorted(traj.times, edges[:-1], side="right") - 1
        batch = np.empty(20)
        for b in range(20):
            tt = np.clip(traj.times[starts[b] :], edges[b], edges[b + 1])
            span = np.diff(np.append(tt, edges[b + 1]))
            batch[b] = (traj.states[starts[b] :, 1] * span).sum() / (edges[b + 1] - edges[b])
        se = batch.std(ddof=1) / math.sqrt(len(batch))
        assert abs(batch.mean() - exact) <= 3 * se

    @pytest.mark.parametrize("process", list(PROCESSES))
    def test_event_cap_keeps_prefix_of_uncapped_run(self, process):
        """A capped run is the uncapped run's first min(cap, events) jumps, bit for bit."""
        scaling, horizon = ScalingParams(n=200, c2=100), 20.0
        init = (0,) * len(PROCESSES[process].columns)
        full = simulate_process(process, init, SYM, scaling, horizon, seed=4)
        events = full.num_events
        assert events > 2 * _CHUNK + 1 and not full.truncated
        # Caps on both sides of the loops' refills of their block of draws.
        for cap in (1, 300, 1023, 1024, 1025, 2048, events - 1, events, events + 1):
            capped = simulate_process(process, init, SYM, scaling, horizon, seed=4,
                                      max_events=cap)
            kept = min(cap, events)
            assert capped.truncated == (cap < events), cap
            assert capped.times.tolist() == full.times[: kept + 1].tolist(), cap
            assert np.array_equal(capped.states, full.states[: kept + 1]), cap

    def test_event_cap_stops_the_loop(self):
        """The loop stops at the first refill past the cap, not at the horizon.

        Uncapped, this run makes about 150,000 jumps: megabytes of times.
        """
        tracemalloc.start()
        try:
            traj = simulate((0, 0, 0), SYM, ScalingParams(n=20, c2=6), 1e4, seed=1,
                            max_events=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.truncated and traj.num_events == 10
        assert peak < 2**19

    def test_run_truncated_before_absorption_is_not_absorbed(self):
        """With p = 0 the run from (0, 5, 0) absorbs at (0, 0, c2) after a dozen jumps."""
        params, scaling = ModelParams(0.0, 1.0, 1.0, 1.0), ScalingParams(n=5, c2=2)
        full = simulate((0, 5, 0), params, scaling, 50.0, seed=3)
        capped = simulate((0, 5, 0), params, scaling, 50.0, seed=3, max_events=3)
        assert full.absorbed and full.num_events > 3
        assert capped.truncated and not capped.absorbed and capped.num_events == 3

    @pytest.mark.parametrize("process", list(PROCESSES))
    @pytest.mark.parametrize("cap", [0, -3])
    def test_event_cap_below_one_rejected(self, process, cap):
        init = (0,) * len(PROCESSES[process].columns)
        with pytest.raises(DomainError, match="max_events"):
            simulate_process(process, init, SYM, ScalingParams(n=4, c2=2), 5.0, seed=1,
                             max_events=cap)


class TestReferenceLoops:
    """The case-split, code-recording loops against straight-line loops that
    test every clause and append every state column (``sim_reference``)."""

    PARAMS = {"sym": SYM, "asym": ModelParams(0.3, 1.7, 0.6, 1.3)}
    # Starts in every guard case: the empty state, y_star > 0 and z > 0.
    STARTS = {
        "main": [(0, 0, 0), (12, 20, 0), (0, 25, 5)],
        "aux-saturated": [(0, 0), (12, 20)],
        "aux-noblock": [(0, 0), (25, 5)],
    }

    # r = 0.1 is overloaded for both rate sets, r = 0.7 underloaded for both.
    @pytest.mark.parametrize("c2", [6, 18, 42])
    @pytest.mark.parametrize("params", list(PARAMS), ids=list(PARAMS))
    @pytest.mark.parametrize("process", list(PROCESSES))
    def test_bit_identical_to_reference(self, process, params, c2):
        scaling = ScalingParams(n=60, c2=c2)
        for init in self.STARTS[process]:
            traj = simulate_process(process, init, self.PARAMS[params], scaling, 150.0, seed=c2)
            times, states, absorbed = sim_reference.SIMULATORS[process](
                init, self.PARAMS[params], scaling, 150.0, seed=c2)
            # Past two refills of the block of draws.
            assert traj.num_events > 2 * _CHUNK
            assert traj.times.tolist() == times.tolist()
            assert np.array_equal(traj.states, states) and traj.states.dtype == states.dtype
            assert traj.absorbed is absorbed is False

    @pytest.mark.parametrize("process, init", [
        ("main", (0, 3, 0)), ("aux-saturated", (2, 1)), ("aux-noblock", (3, 0)),
    ])
    def test_absorbed_corner_matches_reference(self, process, init):
        """With p = 0 nothing feeds class 0, so each chain ends in an absorbing state."""
        params, scaling = ModelParams(0.0, 1.0, 1.0, 1.0), ScalingParams(n=3, c2=2)
        traj = simulate_process(process, init, params, scaling, 100.0, seed=8)
        times, states, absorbed = sim_reference.SIMULATORS[process](
            init, params, scaling, 100.0, seed=8)
        assert traj.absorbed and absorbed
        assert traj.times.tolist() == times.tolist()
        assert np.array_equal(traj.states, states)


class TestCompiledLoops:
    """The loops are generated from ``PROCESSES``, the only copy of the rates and jumps."""

    def test_patched_coefficient_reaches_loop_and_step(self, monkeypatch):
        main = PROCESSES["main"]
        table = list(main.table)
        delta, coefficient, factor, guard = table[3]
        table[3] = (delta, f"2.5 * {coefficient}", factor, guard)
        monkeypatch.setitem(PROCESSES, "main", main._replace(table=tuple(table)))
        scaling, init = ScalingParams(n=60, c2=18), (0, 25, 5)
        traj = sim._compile_loop("main")(init, SYM, scaling, 60.0, seed=6)
        times, states = step_loop("main", init, SYM, scaling, 60.0, 6)
        assert traj.num_events > 2 * _CHUNK
        assert traj.times.tolist() == times
        assert [tuple(r) for r in traj.states] == [tuple(s) for s in states]
        # The module's loop was compiled from the unpatched table.
        assert simulate(init, SYM, scaling, 60.0, seed=6).times.tolist() != times

    def test_unreachable_guard_case_pruned(self):
        """main never has y_star > 0 and z > 0, so its loop has three cases, not four."""
        guarded, cases = sim._cases(PROCESSES["main"])
        assert guarded == ["z", "y_star"]
        assert cases == [{"z": 1, "y_star": 0}, {"z": 0, "y_star": 1}, {"z": 0, "y_star": 0}]
        assert sim.loop_source("main").count("if y_star:") == 1

    @pytest.mark.parametrize("process", list(PROCESSES))
    def test_bound_loops_compiled_from_tables(self, process):
        run = getattr(sim, sim._LOOP_NAMES[process])
        assert run.__code__.co_filename == f"<sim:{process}>"
        assert run.__module__ == "twolevel.sim"


class TestJumpDraws:
    def test_exponentials_follow_exp1(self):
        exps, unis = _jump_draws(np.random.default_rng(2024), 100_000)
        assert len(exps) == len(unis) == 100_000
        assert stats.kstest(exps, "expon").pvalue > 0.01
        assert stats.kstest(unis, "uniform").pvalue > 0.01

    def test_block_equals_scalar_draws(self):
        """Jump k of a block takes uniforms 2k and 2k+1 of the scalar stream."""
        exps, unis = _jump_draws(np.random.default_rng(11), _CHUNK)
        rng = np.random.default_rng(11)
        scalar = [rng.random() for _ in range(2 * _CHUNK)]
        assert unis == scalar[1::2]
        assert exps == (-np.log1p(-np.array(scalar[0::2]))).tolist()


class TestAuxSimulate:
    def test_zero_horizon(self):
        traj = simulate_aux_saturated((0, 0), SYM, ScalingParams(n=4, c2=2), 0.0, seed=5)
        assert traj.num_events == 0 and traj.columns == ("y_star", "y")

    def test_noblock_columns_and_bounds(self):
        scaling = ScalingParams(n=30, c2=10)
        traj = simulate_aux_noblock((0, 0), SYM, scaling, 20.0, seed=8)
        assert traj.columns == ("y", "z")
        assert traj.states[:, 0].max() <= 30 and traj.states[:, 1].max() <= 10
        assert traj.states.min() >= 0

    def test_saturated_bounds_hold(self):
        scaling = ScalingParams(n=30, c2=10)
        traj = simulate_aux_saturated((0, 0), SYM, scaling, 20.0, seed=8)
        assert traj.states.min() >= 0
        assert traj.states.sum(axis=1).max() <= 30

    def test_invalid_inits_rejected(self):
        with pytest.raises(InvalidState):
            simulate_aux_saturated((3, 3), SYM, ScalingParams(n=5, c2=2), 1.0, seed=0)
        with pytest.raises(InvalidState):
            simulate_aux_noblock((0, 3), SYM, ScalingParams(n=5, c2=2), 1.0, seed=0)

    def test_seed_determinism(self):
        scaling = ScalingParams(n=12, c2=5)
        runs = [
            simulate_aux_noblock((0, 0), SYM, scaling, 15.0, seed=21) for _ in range(2)
        ]
        assert np.array_equal(runs[0].times, runs[1].times)
        assert np.array_equal(runs[0].states, runs[1].states)


# Density rates of each aux process away from its boundary, written from the
# model: (jump, rate / n) as a function of the rescaled state x and r = c2 / n.
P, MU01, MU11, MU02 = SYM.p, SYM.mu01, SYM.mu11, SYM.mu02
AUX_DENSITY_RATES = {
    "aux-saturated": [  # x = (y_star, y); y_star > 0
        ((1, -1), lambda x, r: MU01 * x[1]),
        ((-1, 0), lambda x, r: (1 - P) * MU02 * r),
        ((-1, 1), lambda x, r: P * MU02 * r),
        ((0, 1), lambda x, r: P * MU11 * (1 - x[0] - x[1])),
    ],
    "aux-noblock": [  # x = (y, z); z > 0
        ((-1, -1), lambda x, r: (1 - P) * MU01 * x[0]),
        ((0, -1), lambda x, r: P * MU01 * x[0]),
        ((1, 0), lambda x, r: P * MU11 * (1 - x[0])),
        ((0, 1), lambda x, r: MU02 * (r - x[1])),
    ],
}


class TestStationaryFluctuations:
    """Stationary n*Cov at each aux fixed point equals the linear-noise prediction.

    Both aux processes have affine rates away from their boundaries, so the
    first two moments close exactly: the stationary covariance of X/n is S/n
    with A S + S A^T + B = 0, where A is the drift Jacobian and
    B = sum(delta delta^T * rate / n) at the fixed point.  This pins the
    C / sqrt(n) size of the path fluctuations that criterion 04 measures.
    """

    N, RUNS, HORIZON = 200, 500, 10.0

    @staticmethod
    def drift(jumps, x, r):
        return sum(np.array(d, float) * rate(x, r) for d, rate in jumps)

    @pytest.mark.parametrize(
        "process, simulator, r, fixed_point",
        [
            ("aux-saturated", simulate_aux_saturated, 0.3, overloaded_fixed_point(SYM, 0.3)),
            ("aux-noblock", simulate_aux_noblock, 0.7, underloaded_fixed_point(SYM, 0.7)),
        ],
        ids=["aux-saturated", "aux-noblock"],
    )
    def test_covariance_matches_lyapunov(self, process, simulator, r, fixed_point):
        jumps = AUX_DENSITY_RATES[process]
        x = np.array(fixed_point)
        assert np.allclose(self.drift(jumps, x, r), 0.0)
        # Rates are affine, so central differences give the Jacobian exactly.
        h = 1e-3
        A = np.column_stack([
            (self.drift(jumps, x + h * e, r) - self.drift(jumps, x - h * e, r)) / (2 * h)
            for e in np.eye(2)
        ])
        B = sum(np.outer(d, d) * rate(x, r) for d, rate in jumps)
        S = solve_continuous_lyapunov(A, -B)

        n = self.N
        scaling = ScalingParams(n, round(r * n))
        init = tuple(int(round(v * n)) for v in x)
        finals = np.array([
            simulator(init, SYM, scaling, self.HORIZON, seed=seed).states[-1]
            for seed in range(self.RUNS)
        ])
        mean = finals.mean(axis=0) / n
        n_cov = n * np.cov(finals.T / n)

        mean_se = np.sqrt(np.diag(S) / (n * self.RUNS))
        assert np.all(np.abs(mean - x) <= 3 * mean_se), (x, mean)
        # Sample-covariance standard error of a Gaussian: each variance is known
        # to sqrt(2 / (RUNS - 1)) ~ 6%, so 3 SE (19%) rejects a variance 30% low.
        se = np.sqrt((np.outer(np.diag(S), np.diag(S)) + S**2) / (self.RUNS - 1))
        assert np.all(3 * np.diag(se) < 0.3 * np.diag(S))
        assert np.all(np.abs(n_cov - S) <= 3 * se), (S, n_cov)


class TestRescale:
    @staticmethod
    def constant_traj(state, n, c2, horizon):
        return Trajectory(
            "main",
            ("y_star", "y", "z"),
            np.array([0.0]),
            np.array([state]),
            horizon,
            seed=0,
            n=n,
            c2=c2,
        )

    def test_constant_trajectory_rescales_to_constant(self):
        traj = self.constant_traj((0, 100, 0), 100, 30, 2.0)
        path = rescale(traj, ScalingParams(n=100, c2=30), 0.5)
        assert path.values.shape == (5, 3)
        assert np.all(path.values == (0.0, 1.0, 0.0))

    def test_division_by_n(self):
        traj = self.constant_traj((40, 30, 0), 100, 30, 1.0)
        path = rescale(traj, ScalingParams(n=100, c2=30), 1.0)
        np.testing.assert_allclose(path.values[0], (0.4, 0.3, 0.0))

    def test_fine_grid_reproduces_every_jump(self):
        scaling = ScalingParams(n=2, c2=1)
        traj = simulate((0, 0, 0), SYM, scaling, 5.0, seed=3)
        assert traj.num_events > 3
        min_gap = np.diff(traj.times).min()
        k = int(math.ceil(traj.horizon / (min_gap / 2)))
        path = rescale(traj, scaling, traj.horizon / k)
        changes = int(np.any(np.diff(path.values, axis=0) != 0, axis=1).sum())
        assert changes == traj.num_events

    def test_truncated_run_rejected(self):
        """A truncated run stops before its horizon; holding its last state would be wrong."""
        scaling = ScalingParams(n=20, c2=6)
        traj = simulate((0, 0, 0), SYM, scaling, 20.0, seed=1, max_events=10)
        assert traj.truncated and traj.times[-1] < traj.horizon
        with pytest.raises(InvalidState, match="truncated"):
            rescale(traj, scaling, 0.1)

    def test_bad_grid_rejected(self):
        traj = simulate((0, 0, 0), SYM, ScalingParams(n=2, c2=1), 1.0, seed=0)
        with pytest.raises(InvalidState):
            rescale(traj, ScalingParams(n=2, c2=1), 0.0)


class TestMartingaleResidual:
    def test_zero_rate_trajectory_residual_identically_zero(self):
        params = ModelParams(0.0, 1.0, 1.0, 1.0)
        scaling = ScalingParams(n=1, c2=1)
        traj = simulate((0, 0, 1), params, scaling, 5.0, seed=3)
        res = martingale_residual(traj, params, scaling, 0.01)
        assert np.all(res.values == 0.0)
        assert residual_sup(traj, params, scaling).max() == 0.0

    def test_residual_starts_at_zero(self):
        scaling = ScalingParams(n=20, c2=6)
        traj = simulate((0, 0, 0), SYM, scaling, 5.0, seed=11)
        res = martingale_residual(traj, SYM, scaling, 0.01)
        assert np.all(res.values[0] == 0.0)

    def test_single_jump_size_is_one_over_n(self):
        params = ModelParams(1.0, 1.0, 1.0, 1.0)
        scaling = ScalingParams(n=1, c2=1)
        traj = simulate((0, 0, 1), params, scaling, 3.0, seed=6)
        assert traj.num_events >= 1
        t1 = traj.times[1]
        res = martingale_residual(traj, params, scaling, 1e-5)
        k_after = int(np.searchsorted(res.times, t1, side="left"))
        jump = res.values[k_after] - res.values[k_after - 1]
        np.testing.assert_allclose(jump, (0.0, 1.0, 0.0), atol=1e-4)

    def test_sup_residual_shrinks_with_n(self):
        """Doubling n twice halves the sup-residual RMS (within sampling slack)."""
        reps = 50
        sups = {}
        for n in (100, 400):
            scaling = ScalingParams(n=n, c2=max(1, (3 * n) // 10))
            acc = np.zeros((reps, 3))
            for i in range(reps):
                traj = simulate((0, 0, 0), SYM, scaling, 10.0, seed=500 + i)
                acc[i] = residual_sup(traj, SYM, scaling)
            sups[n] = np.sqrt((acc**2).mean(axis=0))
        ratio = sups[100] / sups[400]
        assert ratio.min() >= 1.5

    def test_truncated_or_foreign_trajectories_rejected(self):
        scaling = ScalingParams(n=4, c2=2)
        aux = simulate_aux_saturated((0, 0), SYM, scaling, 2.0, seed=0)
        with pytest.raises(InvalidState):
            residual_sup(aux, SYM, scaling)


class TestTrajectoryCsv:
    def test_header_and_rows(self):
        scaling = ScalingParams(n=3, c2=1)
        traj = simulate((0, 0, 0), SYM, scaling, 3.0, seed=2)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,y_star,y,z"
        assert len(lines) == len(traj.times) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert [int(v) for v in first[1:]] == [0, 0, 0]

    @pytest.mark.parametrize("process, init, c2", [
        ("main", (0, 0, 0), 600), ("aux-saturated", (0, 0), 600), ("aux-noblock", (0, 0), 1400),
    ])
    def test_bytes_match_row_by_row_reference(self, process, init, c2):
        """Runs of over two 16,384-row blocks give the bytes of a plain per-row writer."""
        traj = simulate_process(process, init, SYM, ScalingParams(2000, c2), 30.0, seed=4)
        assert len(traj.times) > 2 * 16384
        expected = "t," + ",".join(traj.columns) + "\n" + "".join(
            f"{t:.9g}," + ",".join(str(int(v)) for v in row) + "\n"
            for t, row in zip(traj.times, traj.states)
        )
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        assert buf.getvalue() == expected
