"""Jump-chain simulators: clause enumeration, sampling, rescaling, residuals."""

import ast
import ctypes
import dataclasses
import functools
import hashlib
import io
import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import solve_continuous_lyapunov

from twolevel import (
    BuildError,
    DomainError,
    InvalidState,
    ModelParams,
    ScalingParams,
    Trajectory,
    build_generator,
    check_state,
    overloaded_fixed_point,
    rescale,
    residual_sup,
    simulate,
    simulate_aux_noblock,
    simulate_aux_saturated,
    simulate_process,
    solve_generalized,
    stationary_distribution,
    stationary_moments,
    underloaded_fixed_point,
    write_trajectory_csv,
)
from twolevel import experiments, fluid, native, sim
from twolevel.model import PROCESSES
from twolevel.sim import _CHUNK
from twolevel.skorokhod import grid_steps
from fluid_reference import overloaded_rhs, reference_modes, underloaded_rhs
from rate_clauses import rate_clauses
import sim_reference
from sim_reference import drift, enabled, jump_draws

SYM = ModelParams(0.5, 1.0, 1.0, 1.0)


def step_loop(process, init, params, scaling, horizon, seed):
    """(times, states) of one jump at a time from ``init`` up to ``horizon``.

    The rates are the table's as it is at the call, through ``sim.rates``;
    each jump draws its own two uniforms and takes the first row whose
    cumulative rate exceeds u' * total, as the loops do.
    """
    deltas = [row[0] for row in PROCESSES[process].table]
    rng = np.random.default_rng(seed)
    t, state = 0.0, tuple(init)
    times, states = [0.0], [state]
    while True:
        sums = list(itertools.accumulate(sim.rates(process, state, params, scaling)))
        if sums[-1] <= 0:
            return times, states
        exps, unis = jump_draws(rng, 1)
        t += exps[0] / sums[-1]
        if t >= horizon:
            return times, states
        u = unis[0] * sums[-1]
        row = next((k for k, acc in enumerate(sums) if u < acc), len(sums) - 1)
        state = tuple(a + b for a, b in zip(state, deltas[row]))
        times.append(t)
        states.append(state)


def as_target_rates(state, pairs):
    return {tuple(a + b for a, b in zip(state, delta)): rate for delta, rate in pairs}


@pytest.fixture
def blocks(monkeypatch):
    """The jumps of each block of draws, in the order ``sim._draws`` hands them out."""
    sizes, draws = [], sim._draws

    def recording(rng, count):
        sizes.append(count)
        return draws(rng, count)

    monkeypatch.setattr(sim, "_draws", recording)
    return sizes


@pytest.fixture
def walks(monkeypatch):
    """(init, codes, rows) of each state rebuild ``sim._rows`` makes, in call order."""
    calls, rebuild = [], sim._rows

    def recording(walk, init, codes):
        rows = rebuild(walk, init, codes)
        calls.append((tuple(init), codes.copy(), rows))
        return rows

    monkeypatch.setattr(sim, "_rows", recording)
    return calls


def spanned(sizes, events):
    """How many of the blocks ``sizes`` hold at least one of a run's ``events`` jumps."""
    return sum(start < events for start in itertools.accumulate([0, *sizes[:-1]]))


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
        got = as_target_rates((0, 2, 1), enabled("main", (0, 2, 1), SYM, scaling))
        assert got == {(0, 1, 0): 1.0, (0, 2, 0): 1.0, (0, 3, 1): 0.5}

    def test_blocked_operator_state_enumeration(self):
        scaling = ScalingParams(n=3, c2=1)
        got = as_target_rates((1, 1, 0), enabled("main", (1, 1, 0), SYM, scaling))
        assert got == {(2, 0, 0): 1.0, (0, 1, 0): 0.5, (0, 2, 0): 0.5, (1, 2, 0): 0.5}

    def test_degenerate_corner_is_absorbing(self):
        params = ModelParams(0.0, 1.0, 1.0, 1.0)
        assert enabled("main", (0, 0, 1), params, ScalingParams(n=1, c2=1)) == []

    def test_total_rate_double_entry(self):
        """Sum of clause rates equals the independently derived exit rate."""
        params = ModelParams(0.35, 1.4, 0.7, 1.2)
        scaling = ScalingParams(n=7, c2=3)
        rng = np.random.default_rng(42)
        for _ in range(200):
            y_star = int(rng.integers(0, 8))
            y = int(rng.integers(0, 8 - y_star))
            z = 0 if y_star > 0 else int(rng.integers(0, 4))
            total = sum(rate for _, rate in enabled("main", (y_star, y, z), params, scaling))
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
                    for delta, rate in enabled("main", (y_star, y, z), SYM, scaling):
                        check_state(tuple(a + b for a, b in zip((y_star, y, z), delta)), scaling)
                        assert rate > 0


class TestAuxTransitions:
    def test_saturated_no_blocked_operators_disables_level2(self):
        got = enabled("aux-saturated", (0, 5), SYM, ScalingParams(n=10, c2=2))
        deltas = {delta for delta, _ in got}
        assert deltas == {(1, -1), (0, 1)}

    def test_saturated_blocked_state_enumeration(self):
        got = enabled("aux-saturated", (1, 0), SYM, ScalingParams(n=3, c2=2))
        assert as_target_rates((1, 0), got) == {(0, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0}

    def test_noblock_busy_specialists_drop_handover(self):
        rates = dict(enabled("aux-noblock", (4, 0), SYM, ScalingParams(n=10, c2=3)))
        assert rates[(-1, 0)] == pytest.approx(0.5 * 4)
        assert (-1, -1) not in rates and (0, -1) not in rates

    def test_noblock_all_idle_only_admission(self):
        got = enabled("aux-noblock", (0, 3), SYM, ScalingParams(n=10, c2=3))
        assert got == [((1, 0), 0.5 * 10)]

    def test_unknown_process_rejected(self):
        with pytest.raises(DomainError):
            sim.rates("warp", (0, 0), SYM, ScalingParams(n=3, c2=1))
        with pytest.raises(DomainError):
            simulate_process("warp", (0, 0), SYM, ScalingParams(n=3, c2=1), 1.0, seed=1)

    def test_out_of_space_states_rejected(self):
        with pytest.raises(InvalidState):
            simulate_process("aux-saturated", (-1, 0), SYM, ScalingParams(n=3, c2=1), 1.0, 1)
        with pytest.raises(InvalidState):
            simulate_process("aux-noblock", (0, 2), SYM, ScalingParams(n=3, c2=1), 1.0, 1)


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
                aux = dict(enabled("aux-saturated", (y_star, y), params, scaling))
                assert main == aux

    def test_idle_states_match_noblock_chain(self):
        params = ModelParams(0.4, 1.2, 0.9, 1.1)
        scaling = ScalingParams(n=6, c2=3)
        for y in range(7):
            for z in range(1, 4):
                main = self.reference_deltas((0, y, z), params, scaling, slice(1, 3))
                aux = dict(enabled("aux-noblock", (y, z), params, scaling))
                assert main == aux


class TestTableDrift:
    """Sum of delta * rate / n over each table against the closed-form fluid model.

    Kurtz's fluid limit of a density-dependent chain is this drift, so the
    tables must vanish at the model's fixed points and reproduce the fluid
    right-hand sides and the interior modes built from them, which are
    written out separately in ``fluid_reference``.
    """

    PARAMS = ModelParams(0.35, 1.4, 0.7, 1.2)  # critical ratio ~0.2475
    N = 1000
    OVER, UNDER = ScalingParams(N, 120), ScalingParams(N, 370)

    def at(self, process, point, scaling):
        x = tuple(self.N * v for v in point)
        return drift(process, x, self.PARAMS, scaling)

    def mode(self, system, point, scaling):
        """(d y_star, d y, d z) of the first closed-form mode of ``system``."""
        matrix = reference_modes(system, self.PARAMS, scaling.r)[0][0]
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
            blocked = self.at("main", (ys, y, 0.0), over)
            np.testing.assert_allclose(blocked, (*overloaded_rhs((ys, y), p, over.r), 0.0),
                                       rtol=0, atol=1e-12)
            for system in ("hybrid", "aux-saturated", "overloaded-ode"):
                np.testing.assert_allclose(self.mode(system, (ys, y, 0.0), over), blocked,
                                           rtol=0, atol=1e-12)
            np.testing.assert_allclose(self.at("aux-saturated", (ys, y), over), blocked[:2],
                                       rtol=0, atol=1e-12)
            y = rng.uniform(0.0, 1.0)
            z = rng.uniform(0.01, under.r)
            idle = self.at("main", (0.0, y, z), under)
            np.testing.assert_allclose(idle, (0.0, *underloaded_rhs((y, z), p, under.r)),
                                       rtol=0, atol=1e-12)
            for system in ("aux-noblock", "underloaded-ode"):
                np.testing.assert_allclose(self.mode(system, (0.0, y, z), under), idle,
                                           rtol=0, atol=1e-12)
            np.testing.assert_allclose(self.at("aux-noblock", (y, z), under), idle[1:],
                                       rtol=0, atol=1e-12)


class TestStep:
    """The law of one jump, read off ``simulate`` runs: the holding time is exponential in
    the total rate before the jump, and the row that fires is drawn in proportion to its rate."""

    ASYM, NEAR_CRITICAL = ModelParams(0.35, 1.3, 0.8, 1.1), ScalingParams(n=30, c2=9)

    @staticmethod
    def pre_jump_rates(traj, params, scaling):
        """Per jump, each table row's rate at the state the jump leaves (rows x jumps)."""
        rates = sim.rates(traj.process, traj.states[:-1].T, params, scaling)
        return np.array([np.broadcast_to(r, traj.num_events) for r in rates], dtype=float)

    def test_single_transition_deterministic_target_and_mean_holding(self):
        """From (0, 0, 1) at n = c2 = 1 only an admission, at rate 0.5, is enabled."""
        traj = simulate((0, 0, 1), SYM, ScalingParams(n=1, c2=1), 700_000.0, seed=2024)
        leaving = np.all(traj.states[:-1] == (0, 0, 1), axis=1)
        holdings = np.diff(traj.times)[leaving]
        assert len(holdings) > 90_000
        assert np.all(traj.states[1:][leaving] == (0, 1, 1))
        lam = 0.5
        se = (1 / lam) / math.sqrt(len(holdings))
        assert abs(holdings.mean() - 1 / lam) <= 3 * se

    def test_selection_frequencies(self):
        """Out of (0, 2, 1) at n = 3, c2 = 1 the three rows have rates 1, 1 and 0.5."""
        traj = simulate((0, 2, 1), SYM, ScalingParams(n=3, c2=1), 850_000.0, seed=7)
        leaving = np.all(traj.states[:-1] == (0, 2, 1), axis=1)
        targets = [tuple(row) for row in traj.states[1:][leaving].tolist()]
        draws = len(targets)
        assert draws > 90_000
        assert set(targets) == {(0, 1, 0), (0, 2, 0), (0, 3, 1)}
        for target, prob in [((0, 1, 0), 0.4), ((0, 2, 0), 0.4), ((0, 3, 1), 0.2)]:
            sigma = math.sqrt(prob * (1 - prob) / draws)
            assert abs(targets.count(target) / draws - prob) <= 3 * sigma

    @pytest.mark.parametrize("process", list(PROCESSES))
    def test_holding_times_scaled_by_total_rate_are_exp1(self, process):
        params, scaling = self.ASYM, self.NEAR_CRITICAL
        init = (0,) * len(PROCESSES[process].columns)
        traj = simulate_process(process, init, params, scaling, 2_000.0, seed=21)
        total = self.pre_jump_rates(traj, params, scaling).sum(axis=0)
        assert traj.num_events > 40_000 and np.all(total > 0)
        assert stats.kstest(np.diff(traj.times) * total, "expon").pvalue > 0.01

    @pytest.mark.parametrize("process", list(PROCESSES))
    def test_row_firing_counts_match_rate_shares(self, process):
        """Row j fires sum_k rate_j / total at jump k times in expectation, with variance
        sum_k share (1 - share); every row fires, within 3 sigma."""
        params, scaling = self.ASYM, self.NEAR_CRITICAL
        spec = PROCESSES[process]
        traj = simulate_process(process, (0,) * len(spec.columns), params, scaling, 2_000.0,
                                seed=22)
        rates = self.pre_jump_rates(traj, params, scaling)
        shares = rates / rates.sum(axis=0)
        deltas = np.array([row[0] for row in spec.table])
        fired = np.all(np.diff(traj.states, axis=0)[None] == deltas[:, None], axis=2)
        assert np.array_equal(fired.sum(axis=0), np.ones(traj.num_events))
        counts, expected = fired.sum(axis=1), shares.sum(axis=1)
        sigma = np.sqrt((shares * (1 - shares)).sum(axis=1))
        assert np.all(counts > 100)
        assert np.all(np.abs(counts - expected) <= 3 * sigma), (counts, expected, sigma)


class TestSimulate:
    def test_zero_horizon_no_events(self):
        traj = simulate((0, 0, 0), SYM, ScalingParams(n=5, c2=2), 0.0, seed=1)
        assert traj.num_events == 0
        assert traj.states.tolist() == [[0, 0, 0]]

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
        "process, n, c2, horizon, min_blocks",
        [pytest.param(p, 8, 3, 6.0, 1, id=p) for p in PROCESSES]
        # Jumps in at least two blocks of draws, of different sizes.
        + [pytest.param(p, 200, 100, 20.0, 2, id=f"{p}-blocks") for p in PROCESSES],
    )
    def test_matches_manual_step_loop(self, process, n, c2, horizon, min_blocks, blocks):
        """Each compiled loop replays exactly the embedded chain of ``step_loop``, which
        draws one jump at a time: block sizes do not change the stream."""
        scaling = ScalingParams(n=n, c2=c2)
        init = (0,) * len(PROCESSES[process].columns)
        traj = simulate_process(process, init, SYM, scaling, horizon, seed=99)
        sizes = blocks[:]
        assert traj.process == process and traj.columns == PROCESSES[process].columns
        times, states = step_loop(process, init, SYM, scaling, horizon, 99)
        assert traj.num_events > 10
        assert spanned(sizes, traj.num_events) >= min_blocks
        assert min_blocks == 1 or sizes[1] != _CHUNK
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
    def test_event_cap_keeps_prefix_of_uncapped_run(self, process, blocks):
        """A capped run is the uncapped run's first min(cap, events) jumps, bit for bit."""
        scaling, horizon = ScalingParams(n=200, c2=100), 20.0
        init = (0,) * len(PROCESSES[process].columns)
        full = simulate_process(process, init, SYM, scaling, horizon, seed=4)
        events = full.num_events
        assert events > 2 * _CHUNK + 1 and not full.truncated
        # Caps on both sides of the ends of the uncapped run's first two blocks of draws.
        first, second = itertools.accumulate(blocks[:2])
        assert second < events
        for cap in (1, 300, 1023, 1024, 1025, 2048, first - 1, first, first + 1,
                    second - 1, second, second + 1, events - 1, events, events + 1):
            blocks.clear()
            capped = simulate_process(process, init, SYM, scaling, horizon, seed=4,
                                      max_events=cap)
            kept = min(cap, events)
            assert sum(blocks) <= cap + 1, cap
            assert capped.truncated == (cap < events), cap
            assert capped.times.tolist() == full.times[: kept + 1].tolist(), cap
            assert np.array_equal(capped.states, full.states[: kept + 1]), cap

    def test_event_cap_stops_the_loop(self, blocks):
        """The loop makes exactly max_events + 1 jumps, then stops short of the horizon.

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
        assert blocks == [11]
        assert peak < 2**19

    def test_run_truncated_before_absorption_is_not_absorbed(self):
        """With p = 0 the run from (0, 5, 0) absorbs at (0, 0, c2) after a dozen jumps."""
        params, scaling = ModelParams(0.0, 1.0, 1.0, 1.0), ScalingParams(n=5, c2=2)
        full = simulate((0, 5, 0), params, scaling, 50.0, seed=3)
        capped = simulate((0, 5, 0), params, scaling, 50.0, seed=3, max_events=3)
        assert full.absorbed and full.num_events > 3
        assert capped.truncated and not capped.absorbed and capped.num_events == 3

    @pytest.mark.parametrize("process", list(PROCESSES))
    def test_negative_seed_rejected(self, process):
        init = (0,) * len(PROCESSES[process].columns)
        with pytest.raises(DomainError, match="seed must be >= 0, got -1") as err:
            simulate_process(process, init, SYM, ScalingParams(n=4, c2=2), 5.0, seed=-1)
        assert err.value.field == "seed"

    @pytest.mark.parametrize("process", list(PROCESSES))
    @pytest.mark.parametrize("field, value", [
        ("seed", 3.0), ("seed", True), ("max_events", 2.5), ("max_events", True),
    ])
    def test_non_integer_seed_or_cap_rejected(self, process, field, value, blocks):
        """A float or a bool is refused by name before any draw; numpy integers run."""
        init, scaling = (0,) * len(PROCESSES[process].columns), ScalingParams(n=4, c2=2)
        run = dict(seed=1, max_events=50) | {field: value}
        with pytest.raises(DomainError, match=f"{field} must be an integer, got {value!r}") as err:
            simulate_process(process, init, SYM, scaling, 5.0, **run)
        assert err.value.field == field and blocks == []
        traj = simulate_process(process, init, SYM, scaling, 5.0, seed=np.int64(1),
                                max_events=np.int32(50))
        plain = simulate_process(process, init, SYM, scaling, 5.0, seed=1, max_events=50)
        assert traj.times.tolist() == plain.times.tolist()

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
    def test_bit_identical_to_reference(self, process, params, c2, blocks):
        """The reference draws in fixed blocks of _CHUNK jumps, the loops in blocks sized
        to the run: the same bits show that block sizes do not change the stream."""
        scaling = ScalingParams(n=60, c2=c2)
        for init in self.STARTS[process]:
            blocks.clear()
            traj = simulate_process(process, init, self.PARAMS[params], scaling, 150.0, seed=c2)
            sizes = blocks[:]
            times, states, absorbed = sim_reference.SIMULATORS[process](
                init, self.PARAMS[params], scaling, 150.0, seed=c2)
            assert spanned(sizes, traj.num_events) >= 2 and sizes[1] != _CHUNK
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


class TestStateWalk:
    """The library's walk from a run's codes to its state rows against the numpy rebuild
    of ``sim_reference.states``."""

    # p = 0: nothing feeds class 0, so each chain absorbs (as in the corner tests above).
    ABSORBING = {"main": ((0, 5, 0), ScalingParams(n=5, c2=2)),
                 "aux-saturated": ((2, 1), ScalingParams(n=3, c2=2)),
                 "aux-noblock": ((3, 0), ScalingParams(n=3, c2=2))}

    @pytest.mark.parametrize("process", list(PROCESSES))
    def test_walk_equals_numpy_reference(self, process, walks):
        init, scaling = (0,) * len(PROCESSES[process].columns), ScalingParams(n=60, c2=18)
        corner, small = self.ABSORBING[process]
        runs = [simulate_process(process, init, SYM, scaling, 20.0, seed) for seed in range(20)]
        runs += [simulate_process(process, init, SYM, ScalingParams(n=200, c2=100), 20.0, 4),
                 simulate_process(process, init, SYM, scaling, 0.0, 5),
                 simulate_process(process, corner, ModelParams(0.0, 1.0, 1.0, 1.0), small, 50.0, 3),
                 simulate_process(process, init, SYM, scaling, 20.0, 6, max_events=10)]
        assert max(traj.num_events for traj in runs) > 2 * _CHUNK
        assert runs[-3].num_events == 0 and runs[-2].absorbed and runs[-1].truncated
        assert len(walks) == len(runs)
        for traj, (start, codes, rows) in zip(runs, walks):
            reference = sim_reference.states(process, start, codes)
            assert rows.dtype == reference.dtype == np.int64
            assert np.array_equal(rows, reference) and np.array_equal(traj.states, rows)
            assert len(codes) == traj.num_events


class TestCompiledLoops:
    """The loops are generated from ``PROCESSES``, the only copy of the rates and jumps."""

    def test_patched_coefficient_reaches_loop_and_step(self, monkeypatch):
        main = PROCESSES["main"]
        table = list(main.table)
        delta, coefficient, factor, guard = table[3]
        table[3] = (delta, f"2.5 * {coefficient}", factor, guard)
        monkeypatch.setitem(PROCESSES, "main", main._replace(table=tuple(table)))
        scaling, init = ScalingParams(n=60, c2=18), (0, 25, 5)
        traj = sim._loop("main", PROCESSES["main"],
                         functools.partial(native._library, native._library_source(PROCESSES)))(
            init, SYM, scaling, 60.0, seed=6)
        times, states = step_loop("main", init, SYM, scaling, 60.0, 6)
        assert traj.num_events > 2 * _CHUNK
        assert traj.times.tolist() == times
        assert [tuple(r) for r in traj.states] == [tuple(s) for s in states]
        # The module's loop was compiled from the unpatched table.
        assert simulate(init, SYM, scaling, 60.0, seed=6).times.tolist() != times

    def test_patched_factor_gets_its_own_library(self, monkeypatch):
        """A factor is C source, so a patched one is a new cache key and a fresh build."""
        unpatched = native._library_source(PROCESSES)
        main = PROCESSES["main"]
        table = list(main.table)
        delta, coefficient, factor, guard = table[3]
        table[3] = (delta, coefficient, f"2 * ({factor})", guard)
        monkeypatch.setitem(PROCESSES, "main", main._replace(table=tuple(table)))
        scaling, init = ScalingParams(n=60, c2=18), (0, 25, 5)
        traj = sim._loop("main", PROCESSES["main"],
                         functools.partial(native._library, native._library_source(PROCESSES)))(
            init, SYM, scaling, 60.0, seed=6)
        times, states = step_loop("main", init, SYM, scaling, 60.0, 6)
        assert traj.num_events > 2 * _CHUNK
        assert traj.times.tolist() == times
        assert [tuple(r) for r in traj.states] == [tuple(s) for s in states]
        patched = native._library_source(PROCESSES)
        assert patched != unpatched
        assert native._library(patched)._name != native._library(unpatched)._name
        assert simulate(init, SYM, scaling, 60.0, seed=6).times.tolist() != times

    def test_reordered_rows_get_new_codes_and_walk(self, monkeypatch, walks):
        """A code is its row's place in the table: swap two rows, and the patched library
        records the new places and its walk rebuilds the states ``step_loop`` replays."""
        main = PROCESSES["main"]
        table = list(main.table)
        table[1], table[2] = table[2], table[1]
        monkeypatch.setitem(PROCESSES, "main", main._replace(table=tuple(table)))
        scaling, init = ScalingParams(n=60, c2=18), (0, 25, 5)
        traj = sim._loop("main", PROCESSES["main"],
                         functools.partial(native._library, native._library_source(PROCESSES)))(
            init, SYM, scaling, 60.0, seed=6)
        times, states = step_loop("main", init, SYM, scaling, 60.0, 6)
        assert traj.num_events > 2 * _CHUNK
        assert traj.times.tolist() == times
        assert [tuple(r) for r in traj.states] == [tuple(s) for s in states]
        (_, codes, _), = walks
        moves = np.diff(traj.states, axis=0)
        assert {1, 2} <= set(codes.tolist())
        assert np.array_equal(moves, np.array([row[0] for row in table])[codes])
        assert not np.array_equal(moves, np.array([row[0] for row in main.table])[codes])

    # main at (0, 0, 2), n = c2 = 4: z > 0 and y = 0, so the sums are 0, 0, 2 and total 4.
    @pytest.mark.parametrize("pick", [0.0, math.nextafter(0.5, 0.0), 0.5, 1 - 2**-53])
    def test_selection_edges_take_first_sum_above_draw(self, pick):
        """At u' = 0 the draw equals two zero sums, at u' = 0.5 it equals the third; the
        jump is the first row whose cumulative rate exceeds u' * total."""
        scaling, state = ScalingParams(n=4, c2=4), (0, 0, 2)
        sums = list(itertools.accumulate(sim.rates("main", state, SYM, scaling)))
        assert sums == [0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 4.0]
        row = next(i for i, acc in enumerate(sums) if pick * sums[-1] < acc)
        x, clock, done = np.array(state, dtype=np.int64), np.zeros(1), np.zeros(1, dtype=np.int64)
        a = sim._coefficients(PROCESSES["main"], SYM, scaling)
        e, u = np.ones(1), np.array([0.5, pick])
        times, codes = np.zeros(1), np.full(1, -1, dtype=np.int8)
        status = native.library().simulate(
            *(v.ctypes.data for v in (x, clock, a)), 4, 4, 10.0, e.ctypes.data, u.ctypes.data,
            1, *(v.ctypes.data for v in (times, codes, done)))
        assert status == native.USED_UP and done[0] == 1 and times[0] == 0.25
        assert codes[0] == row
        assert x.tolist() == [s + d for s, d in zip(state, PROCESSES["main"].table[row][0])]

    def test_patched_table_reaches_residual_sup(self, monkeypatch):
        """The compensator is C generated from the table: patch a factor and a coefficient,
        and the patched library's sup follows the numpy formula of the patched table."""
        scaling = ScalingParams(n=60, c2=18)
        traj = simulate((0, 25, 5), SYM, scaling, 20.0, seed=6)
        unpatched = residual_sup(traj)
        main = PROCESSES["main"]
        table = list(main.table)
        table[3] = (table[3][0], table[3][1], f"2 * ({table[3][2]})", table[3][3])
        table[6] = (table[6][0], f"2.5 * {table[6][1]}", table[6][2], table[6][3])
        monkeypatch.setitem(PROCESSES, "main", main._replace(table=tuple(table)))
        monkeypatch.setattr(native, "_SOURCE", native._library_source(PROCESSES))
        monkeypatch.setattr(sim, "_MAIN", PROCESSES["main"])
        patched = residual_sup(traj)
        assert patched.tolist() == sim_reference.residual_sup(traj).tolist()
        assert patched.tolist() != unpatched.tolist()

    def test_unreachable_guard_case_pruned(self):
        """main never has y_star > 0 and z > 0, so its loop has three cases, not four."""
        guarded, cases = native._cases(PROCESSES["main"])
        assert guarded == ["z", "y_star"]
        assert cases == [{"z": 1, "y_star": 0}, {"z": 0, "y_star": 1}, {"z": 0, "y_star": 0}]
        assert native.loop_source("main").count("if (y_star) {") == 1

    @pytest.mark.parametrize("process", list(PROCESSES))
    def test_source_holds_each_reachable_guard_case_once(self, process):
        source = native.loop_source(process)
        assert source.count("double total = ") == len(native._cases(PROCESSES[process])[1])
        assert source.count(f"int {native.LOOP_NAMES[process]}(") == 1

    def test_library_exports_one_function_per_process(self):
        source = native._library_source(PROCESSES)
        assert source.count("\nint ") == len(PROCESSES)
        lib = native._library(source)
        for process in PROCESSES:
            loop = getattr(lib, native.LOOP_NAMES[process])
            assert loop.argtypes == [ctypes.c_void_p] * 3 + [ctypes.c_int64] * 2 + [
                ctypes.c_double] + [ctypes.c_void_p] * 2 + [ctypes.c_int64] + [
                ctypes.c_void_p] * 3
            assert loop.restype is ctypes.c_int
            walk = getattr(lib, f"{native.LOOP_NAMES[process]}_states")
            assert walk.argtypes == [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
            assert walk.restype is None
        assert lib.format_trajectory_rows.argtypes == [ctypes.c_void_p] * 2 + [
            ctypes.c_int64] * 2 + [ctypes.c_void_p, ctypes.c_int64]
        assert lib.format_trajectory_rows.restype is ctypes.c_int64
        assert lib.residual_sup.argtypes == [ctypes.c_void_p] * 2 + [
            ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_double,
            ctypes.c_void_p]
        assert lib.residual_sup.restype is None
        assert lib.grid_sup.argtypes == [ctypes.c_void_p] * 5 + [ctypes.c_int64] * 7 + [
            ctypes.c_double]
        assert lib.grid_sup.restype is None
        assert lib.gbar_window.argtypes == [ctypes.c_void_p] * 2 + [ctypes.c_int64] + [
            ctypes.c_double] * 4 + [ctypes.c_void_p] * 2
        assert lib.gbar_window.restype is None
        assert lib.reflect_window.argtypes == [ctypes.c_void_p] * 3 + [
            ctypes.c_int64, ctypes.c_double, ctypes.c_int]
        assert lib.reflect_window.restype is ctypes.c_double
        run = getattr(sim, native.LOOP_NAMES["aux-noblock"])
        assert run.__name__ == "simulate_aux_noblock" and run.__module__ == "twolevel.sim"

    def test_every_exported_function_declared_as_its_c_signature(self):
        """Each non-static function of the source has ctypes argtypes and restype matching
        its C parameters and return type: undeclared, ctypes would pass every argument and
        read every result as an int."""
        kinds = {"int": ctypes.c_int, "int64_t": ctypes.c_int64, "double": ctypes.c_double,
                 "void": None}
        lib = native.library()
        found = re.findall(r"^(?!static\b)(\w+) (\w+)\(([^)]*)\)", native._SOURCE, re.M)
        assert {name for _, name, _ in found} >= {"simulate", "grid_sup", "residual_sup",
                                                  "format_trajectory_rows", "reflect_window",
                                                  "affine_segment", "segment_flow",
                                                  "simulate_states", "simulate_aux_noblock_states",
                                                  "simulate_aux_saturated_states"}
        for result, name, params in found:
            args = [ctypes.c_void_p if "*" in p else kinds[p.split()[-2]]
                    for p in params.split(",")]
            function = getattr(lib, name)
            assert (function.argtypes, function.restype) == (args, kinds[result]), name

    def test_library_source_compiles_without_warnings(self):
        """Strict C99 with -Wall catches an implicit declaration or a missing feature macro."""
        proc = subprocess.run(["cc", "-std=c99", "-Wall", "-Werror", "-fsyntax-only", "-x", "c",
                               "-"], input=native._library_source(PROCESSES), capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty cache directory, and no simulator library loaded by this process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    native._library.cache_clear()
    yield tmp_path / "twolevel"
    native._library.cache_clear()


@pytest.fixture
def compiler_calls(monkeypatch):
    """The commands run through ``subprocess.run``, recorded as they run."""
    calls, run = [], subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda cmd, **kw: calls.append(cmd) or run(cmd, **kw))
    return calls


class TestLibraryCache:
    def test_cold_cache_builds_and_warm_cache_loads(self, cold_cache, compiler_calls):
        scaling = ScalingParams(n=60, c2=18)
        first = simulate((0, 25, 5), SYM, scaling, 20.0, seed=3)
        assert [cmd[0] for cmd in compiler_calls] == ["cc"]
        # One library and no temporary file.
        assert [p.suffix for p in cold_cache.iterdir()] == [".so"]
        native._library.cache_clear()
        again = simulate((0, 25, 5), SYM, scaling, 20.0, seed=3)
        assert len(compiler_calls) == 1
        assert again.times.tolist() == first.times.tolist()

    @pytest.mark.parametrize("damage", ["flip", "truncate"])
    def test_damaged_library_is_rebuilt(self, cold_cache, compiler_calls, damage):
        source = native._library_source(PROCESSES)
        native._library(source)
        (path,) = cold_cache.iterdir()
        blob = bytearray(path.read_bytes())
        if damage == "flip":
            blob[len(blob) // 2] ^= 0xFF
        else:
            del blob[len(blob) // 2:]
        # Through a new file: this process has the library mapped.
        damaged = cold_cache / "damaged"
        damaged.write_bytes(bytes(blob))
        os.replace(damaged, path)
        native._library.cache_clear()
        native._library(source)
        assert len(compiler_calls) == 2
        blob = path.read_bytes()
        assert hashlib.sha256(blob[:-32]).digest() == blob[-32:]
        assert [p.name for p in cold_cache.iterdir()] == [path.name]

    def test_unwritable_cache_builds_privately(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        # The cache directory would be a subdirectory of a plain file.
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        native._library.cache_clear()
        try:
            traj = simulate((0, 0, 0), SYM, ScalingParams(n=8, c2=3), 5.0, seed=2)
        finally:
            native._library.cache_clear()
        assert traj.num_events > 0
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_pool_workers_share_a_cold_cache(self, cold_cache):
        cfg = experiments.ExperimentConfig(SYM, 0.3, (60,), 10.0, 2.0, 4, 11)
        two = experiments.saturation_certificate(cfg, workers=2)
        one = experiments.saturation_certificate(cfg, workers=1)
        assert two.to_json() == one.to_json()
        assert [p.suffix for p in cold_cache.iterdir()] == [".so"]

    def test_missing_compiler_raises_build_error(self, cold_cache, monkeypatch):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        with pytest.raises(BuildError, match="C compiler"):
            simulate((0, 0, 0), SYM, ScalingParams(n=5, c2=2), 1.0, seed=1)
        assert list(cold_cache.iterdir()) == []

    def test_missing_compiler_refuses_residual_sup(self, cold_cache, monkeypatch):
        traj = Trajectory("main", np.array([0.0, 0.5]),
                          np.array([[0, 0, 0], [0, 1, 0]]), 1.0, 1, SYM, ScalingParams(5, 2))
        monkeypatch.setattr(shutil, "which", lambda name: None)
        with pytest.raises(BuildError, match="C compiler"):
            residual_sup(traj)
        assert list(cold_cache.iterdir()) == []

    def test_missing_compiler_refuses_grid_sup(self, cold_cache, monkeypatch):
        traj = Trajectory("main", np.array([0.0, 0.5]),
                          np.array([[0, 0, 0], [0, 1, 0]]), 1.0, 1, SYM, ScalingParams(5, 2))
        monkeypatch.setattr(shutil, "which", lambda name: None)
        with pytest.raises(BuildError, match="C compiler"):
            sim.grid_sup(traj, 0.1, (0.0, 0.0), (0.0,))
        assert list(cold_cache.iterdir()) == []

    def test_missing_compiler_refuses_picard(self, cold_cache, monkeypatch):
        """Both halves of a Picard sweep are in the library, so a numpy ``phi`` needs it too."""
        monkeypatch.setattr(shutil, "which", lambda name: None)
        with pytest.raises(BuildError, match="C compiler"):
            fluid.gbar_functional(SYM, 0.3, (0.0, 0.0))
        with pytest.raises(BuildError, match="C compiler"):
            solve_generalized(lambda x, t0, dt, carried: (np.ones(len(x)), None), 1.0, 0.1)
        assert list(cold_cache.iterdir()) == []

    def test_missing_compiler_refuses_fluid(self, cold_cache, monkeypatch):
        """Every exact fluid segment is in the library, an ODE system's too."""
        monkeypatch.setattr(shutil, "which", lambda name: None)
        for system, r in (("hybrid", 0.3), ("aux-saturated", 0.3), ("aux-noblock", 0.7),
                          ("overloaded-ode", 0.3), ("underloaded-ode", 0.7)):
            with pytest.raises(BuildError, match="C compiler"):
                fluid.solve_system(system, SYM, r, (0.0, 0.0, 0.0), 1.0, 0.1)
        assert list(cold_cache.iterdir()) == []

    def test_cli_without_compiler(self, tmp_path):
        """``simulate`` and ``fluid`` exit 2 with one error line; ``params`` needs no compiler."""
        (tmp_path / "bin").mkdir()
        env = dict(os.environ, PATH=str(tmp_path / "bin"), XDG_CACHE_HOME=str(tmp_path / "cache"))
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(sim.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))

        def cli(*args):
            return subprocess.run([sys.executable, "-m", "twolevel.cli", *args],
                                  capture_output=True, text=True, env=env, timeout=300)

        out = tmp_path / "out"
        proc = cli("simulate", "--n", "5", "--c2", "2", "--horizon", "5", "--seed", "1",
                   "--out", str(out))
        assert proc.returncode == 2
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: ") and "C compiler" in line
        assert list(out.iterdir()) == []
        assert cli("params").returncode == 0
        fluid_run = cli("fluid", "--system", "underloaded-ode", "--n", "100", "--c2", "70",
                        "--horizon", "5", "--out", str(out))
        assert fluid_run.returncode == 2
        (line,) = fluid_run.stderr.splitlines()
        assert line.startswith("error: ") and "C compiler" in line
        assert list(out.iterdir()) == []


class TestJumpDraws:
    """``sim._draws``, the block of random numbers the loops take."""

    def test_exponentials_follow_exp1(self):
        exps, u = sim._draws(np.random.default_rng(2024), 100_000)
        assert len(exps) == 100_000 and len(u) == 200_000
        assert stats.kstest(exps, "expon").pvalue > 0.01
        assert stats.kstest(u[1::2], "uniform").pvalue > 0.01

    def test_block_equals_scalar_draws(self):
        """Jump k of a block takes uniforms 2k and 2k+1 of the scalar stream."""
        exps, u = sim._draws(np.random.default_rng(11), _CHUNK)
        rng = np.random.default_rng(11)
        scalar = [rng.random() for _ in range(2 * _CHUNK)]
        assert u.tolist() == scalar
        assert exps.tolist() == (-np.log1p(-np.array(scalar[0::2]))).tolist()


class TestDrawBlocks:
    """The loops size each block of draws to the run; counted here, never timed."""

    def test_long_run_takes_few_blocks(self, blocks):
        """A certificate replication: in blocks of _CHUNK jumps it took 16."""
        traj = simulate((0, 0, 0), SYM, ScalingParams(n=400, c2=120), 50.0, seed=1)
        assert not traj.truncated
        assert len(blocks) <= 4
        assert sum(blocks) <= 1.25 * traj.num_events

    @pytest.mark.parametrize("cap", [1, 1023, 1024, 1025, 5000, 15_463, 15_464])
    def test_capped_run_draws_for_at_most_cap_plus_one_jumps(self, blocks, cap):
        """Uncapped, the run makes 15,464 jumps."""
        traj = simulate((0, 0, 0), SYM, ScalingParams(n=400, c2=120), 50.0, seed=1,
                        max_events=cap)
        assert sum(blocks) <= cap + 1
        assert not traj.truncated or sum(blocks) == cap + 1

    @pytest.mark.parametrize("ceiling", [700, 1500])
    def test_no_block_exceeds_the_ceiling(self, blocks, monkeypatch, ceiling):
        scaling = ScalingParams(n=400, c2=120)
        full = simulate((0, 0, 0), SYM, scaling, 20.0, seed=2)
        monkeypatch.setattr(sim, "_MAX_BLOCK", ceiling)
        blocks.clear()
        bounded = simulate((0, 0, 0), SYM, scaling, 20.0, seed=2)
        assert max(blocks) <= ceiling and spanned(blocks, full.num_events) > 3
        assert bounded.times.tolist() == full.times.tolist()
        assert np.array_equal(bounded.states, full.states)


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


class TestTrajectory:
    """A run carries the parameters and scale it was drawn with, checked once when built."""

    @staticmethod
    def build(params=SYM, scaling=ScalingParams(20, 6), process="main", **extra):
        return Trajectory(process, np.array([0.0, 0.5]),
                          np.array([[0, 0, 0], [0, 1, 0]]), 5.0, 1, params, scaling, **extra)

    @pytest.mark.parametrize("params, scaling, field", [
        (ModelParams(math.nan, 1.0, 1.0, 1.0), ScalingParams(20, 6), "p"),
        (ModelParams(0.5, 1.0, 0.0, 1.0), ScalingParams(20, 6), "mu11"),
        (SYM, ScalingParams(20, 0), "c2"),
        (SYM, ScalingParams(0, 6), "n"),
    ], ids=["p-nan", "mu11-zero", "c2-zero", "n-zero"])
    def test_parameters_validate_refuses_are_refused(self, params, scaling, field):
        """``residual_sup`` of a run at p = NaN once read [0, 0, 0], a perfect fit."""
        with pytest.raises(DomainError) as info:
            self.build(params, scaling)
        assert info.value.field == field

    def test_columns_other_than_the_process_refused(self):
        """A run's columns are its process's and cannot be set, so ``residual_sup`` reads 3
        counts a row of a main run and ``grid_sup`` one per column."""
        assert self.build().columns == PROCESSES["main"].columns
        with pytest.raises(TypeError, match="columns"):
            self.build(columns=("y", "z"))
        with pytest.raises(InvalidState, match=r"aux-noblock run with columns \('y', 'z'\)"):
            self.build(process="aux-noblock")
        with pytest.raises(DomainError) as info:
            self.build(process="other")
        assert info.value.field == "process"

    def test_times_of_two_axes_refused(self):
        with pytest.raises(InvalidState, match="times of shape"):
            Trajectory("main", np.zeros((2, 1)), np.zeros((2, 3)), 5.0, 1,
                       SYM, ScalingParams(20, 6))

    def test_arrays_made_contiguous_once(self):
        """Any layout comes out C-ordered float64 and int64; the simulator's are not copied."""
        traj = self.build()
        wide = np.zeros((2, 6), dtype=np.int32)
        wide[:, ::2] = traj.states
        built = dataclasses.replace(traj, times=traj.times.tolist(), states=wide[:, ::2])
        for a, dtype in ((built.times, np.float64), (built.states, np.int64)):
            assert a.dtype == dtype and a.flags.c_contiguous
        assert built.states.tolist() == traj.states.tolist()
        run = simulate((0, 0, 0), SYM, ScalingParams(20, 6), 5.0, seed=1)
        again = dataclasses.replace(run)
        assert again.times is run.times and again.states is run.states

    def test_run_rescales_by_its_own_n(self):
        """An n = 20 run rescales to exactly its states / 20 with no scale passed."""
        traj = simulate((0, 0, 0), SYM, ScalingParams(20, 6), 5.0, seed=1)
        assert traj.params == SYM and traj.scaling == ScalingParams(20, 6)
        path = rescale(traj, 0.01)
        idx = np.searchsorted(traj.times, path.times, side="right") - 1
        assert traj.num_events > 10 and np.array_equal(path.values, traj.states[idx] / 20)


class TestRescale:
    @staticmethod
    def constant_traj(state, n, c2, horizon):
        return Trajectory(
            "main",
            np.array([0.0]),
            np.array([state]),
            horizon,
            seed=0,
            params=SYM,
            scaling=ScalingParams(n, c2),
        )

    def test_constant_trajectory_rescales_to_constant(self):
        traj = self.constant_traj((0, 100, 0), 100, 30, 2.0)
        path = rescale(traj, 0.5)
        assert path.values.shape == (5, 3)
        assert np.all(path.values == (0.0, 1.0, 0.0))

    def test_division_by_n(self):
        traj = self.constant_traj((40, 30, 0), 100, 30, 1.0)
        path = rescale(traj, 1.0)
        np.testing.assert_allclose(path.values[0], (0.4, 0.3, 0.0))

    def test_fine_grid_reproduces_every_jump(self):
        scaling = ScalingParams(n=2, c2=1)
        traj = simulate((0, 0, 0), SYM, scaling, 5.0, seed=3)
        assert traj.num_events > 3
        min_gap = np.diff(traj.times).min()
        k = int(math.ceil(traj.horizon / (min_gap / 2)))
        path = rescale(traj, traj.horizon / k)
        changes = int(np.any(np.diff(path.values, axis=0) != 0, axis=1).sum())
        assert changes == traj.num_events

    def test_truncated_run_rejected(self):
        """A truncated run stops before its horizon; holding its last state would be wrong."""
        scaling = ScalingParams(n=20, c2=6)
        traj = simulate((0, 0, 0), SYM, scaling, 20.0, seed=1, max_events=10)
        assert traj.truncated and traj.times[-1] < traj.horizon
        with pytest.raises(InvalidState, match="truncated"):
            rescale(traj, 0.1)

    def test_bad_grid_rejected(self):
        traj = simulate((0, 0, 0), SYM, ScalingParams(n=2, c2=1), 1.0, seed=0)
        with pytest.raises(InvalidState):
            rescale(traj, 0.0)
        for bad in (math.nan, math.inf, -0.5):
            with pytest.raises(InvalidState, match="grid_dt"):
                rescale(traj, bad)


class TestGridSup:
    """``grid_sup`` walks the jumps and the grid once in C; ``sim_reference.grid_sup``
    is the rescaled path and whole-array distances the experiments used before."""

    # The fluid system, r and the fluid columns of each process, as the convergence suite has them.
    TARGETS = {"main": ("hybrid", 0.3, [0, 1, 2]),
               "aux-saturated": ("aux-saturated", 0.3, [0, 1]),
               "aux-noblock": ("aux-noblock", 0.7, [1, 2])}

    @pytest.mark.parametrize("n", [50, 200, 800])
    @pytest.mark.parametrize("target", list(TARGETS))
    def test_bit_identical_to_numpy_reference(self, target, n):
        """Per grid point (the fluid path, in the Fortran order its column pick leaves it in)
        and one constant row, on the windows from 0 and from two burn-ins."""
        system, r, cols = self.TARGETS[target]
        scaling, horizon, grid_dt = ScalingParams(n, int(r * n)), 10.0, 0.01
        ref = fluid.solve_system(system, SYM, r, (0.0, 0.0, 0.0), horizon, grid_dt).path.values
        ref = ref[:, cols]
        assert ref.flags.f_contiguous and not ref.flags.c_contiguous
        init = (0,) * len(cols)
        fixed = (0.25, 0.5)[:len(cols) - 1]  # one row, against the last columns
        starts = (0.0, 2.5, 5.0)
        for seed in range(20):
            traj = simulate_process(target, init, SYM, scaling, horizon, seed)
            for reference in (ref, fixed):
                expected = sim_reference.grid_sup(traj, grid_dt, reference, starts)
                assert sim.grid_sup(traj, grid_dt, reference, starts).tolist() == expected

    def test_run_without_jump(self):
        params = ModelParams(0.0, 1.0, 1.0, 1.0)
        scaling = ScalingParams(n=3, c2=2)
        traj = simulate((0, 0, 2), params, scaling, 5.0, seed=1)
        assert traj.num_events == 0
        ref = np.linspace(0.0, 1.0, 3 * 51).reshape(51, 3)
        got = sim.grid_sup(traj, 0.1, ref, (0.0, 4.0, 5.0))
        assert got.tolist() == sim_reference.grid_sup(traj, 0.1, ref, (0.0, 4.0, 5.0))

    def test_jump_on_a_grid_time_counts_from_that_time(self):
        """A jump at 3 * 0.1 (0.30000000000000004), undone at 0.35, is seen at grid point 3
        only, as rescale sees it; a window starting at 0.3 holds that point."""
        traj = Trajectory("aux-noblock", np.array([0.0, 3 * 0.1, 0.35, 0.5]),
                          np.array([[0, 0], [4, 0], [0, 0], [0, 2]]), 1.0, 0, SYM,
                          ScalingParams(4, 2))
        starts = (0.0, 0.3, 0.31)
        assert sim.grid_sup(traj, 0.1, (0.0, 0.0), starts).tolist() == [1.0, 1.0, 0.5]
        ref = np.zeros((11, 2))
        ref[3] = (1.0, 0.0)
        assert sim.grid_sup(traj, 0.1, ref, starts).tolist() == [0.5, 0.5, 0.5]
        for reference in ((0.0, 0.0), ref):
            assert sim.grid_sup(traj, 0.1, reference, starts).tolist() == (
                sim_reference.grid_sup(traj, 0.1, reference, starts))

    def test_nan_in_reference_propagates_as_numpy_max(self):
        scaling = ScalingParams(n=50, c2=15)
        traj = simulate((0, 0, 0), SYM, scaling, 4.0, seed=2)
        ref = np.full((41, 3), 0.2)
        ref[20, 1] = math.nan
        starts = (0.0, 2.0, 2.1)
        got = sim.grid_sup(traj, 0.1, ref, starts)
        assert math.isnan(got[0]) and math.isnan(got[1]) and not math.isnan(got[2])
        np.testing.assert_array_equal(got, sim_reference.grid_sup(traj, 0.1, ref, starts))
        assert math.isnan(sim.grid_sup(traj, 0.1, (0.2, math.nan), (0.0,))[0])

    @pytest.fixture
    def no_c(self, monkeypatch):
        """The compiled library is not reached."""
        monkeypatch.setattr(native, "library", lambda: pytest.fail("the C function was called"))

    def test_truncated_run_refused(self, no_c):
        scaling = ScalingParams(n=20, c2=6)
        traj = simulate((0, 0, 0), SYM, scaling, 20.0, seed=1, max_events=10)
        assert traj.truncated
        with pytest.raises(InvalidState, match="truncated"):
            sim.grid_sup(traj, 0.1, (0.0, 0.0, 0.0), (0.0,))

    @pytest.mark.parametrize("shape", [(100, 3), (101, 4), (4,), (101, 0), (101, 3, 1)],
                             ids=["rows-short", "columns-over", "row-over", "no-column",
                                  "three-axes"])
    def test_mismatched_reference_refused(self, no_c, shape):
        traj = Trajectory("main", np.array([0.0, 0.5]),
                          np.array([[0, 0, 0], [0, 1, 0]]), 1.0, 1, SYM, ScalingParams(5, 2))
        with pytest.raises(InvalidState, match="reference of shape"):
            sim.grid_sup(traj, 0.01, np.zeros(shape), (0.0,))

    @pytest.mark.parametrize("starts", [(0.0, 1.05), (math.nan,), ((0.0, 0.5),)],
                             ids=["after-last-point", "nan", "two-axes"])
    def test_window_without_grid_point_refused(self, no_c, starts):
        """The numpy distances raised 'zero-size array to reduction operation maximum' here;
        the walk would have returned 0.0."""
        traj = Trajectory("main", np.array([0.0]),
                          np.array([[0, 0, 0]]), 1.07, 1, SYM, ScalingParams(5, 2))
        with pytest.raises(DomainError, match="no grid time at or after") as info:
            sim.grid_sup(traj, 0.1, (0.0, 0.0, 0.0), starts)
        assert info.value.field == "window_starts"

    def test_mismatched_states_refused(self, no_c):
        """Refused when the run is built, so no reader meets it."""
        with pytest.raises(InvalidState, match="states of shape"):
            Trajectory("main", np.array([0.0, 0.5]),
                       np.zeros((3, 3), dtype=np.int64), 1.0, 1, SYM, ScalingParams(5, 2))

    def test_grid_points_rule(self):
        """floor(h / dt + 1e-9) + 1, shared by rescale and the experiments' grid check."""
        assert sim.grid_points(20.0, 0.03) == 667  # 666.67: rounding would give 668
        assert sim.grid_points(0.3, 0.1) == 4  # 2.9999999999999996
        assert sim.grid_points(1.0, 2.0) == 1
        traj = simulate((0, 0, 0), SYM, ScalingParams(n=5, c2=2), 20.0, seed=0)
        assert len(rescale(traj, 0.03)) == 667

    def test_fluid_grid_has_the_same_points(self):
        """The fluid and Picard grids (``grid_steps``) and the runs' grid floor alike, over
        fractions of a step below and at or above one half, and on exact multiples."""
        sweep = [(1.0, 0.6), (20.0, 0.03), (0.3, 0.1), (10.0, 1e-3), (1.0, 2.0), (0.9, 0.6),
                 (5.3, 1e-3), (7.3, 0.01), (2.0, 0.3), (0.0, 0.1)]
        sweep += [(h, dt) for h in np.linspace(0.05, 3.0, 60) for dt in (0.07, 0.1, 0.25, 0.4)]
        for horizon, dt in sweep:
            assert grid_steps(horizon, dt) + 1 == sim.grid_points(horizon, dt), (horizon, dt)
            assert grid_steps(horizon, dt) * dt <= horizon * (1 + 1e-9)
        assert grid_steps(10.0, 1e-3) == 10_000
        assert sim.grid_points(1.0, 0.6) == 2


class TestMartingaleResidual:
    def test_zero_rate_trajectory_residual_identically_zero(self):
        params = ModelParams(0.0, 1.0, 1.0, 1.0)
        scaling = ScalingParams(n=1, c2=1)
        traj = simulate((0, 0, 1), params, scaling, 5.0, seed=3)
        assert residual_sup(traj).max() == 0.0

    def test_sup_residual_shrinks_with_n(self):
        """Doubling n twice halves the sup-residual RMS (within sampling slack)."""
        reps = 50
        sups = {}
        for n in (100, 400):
            scaling = ScalingParams(n=n, c2=max(1, (3 * n) // 10))
            acc = np.zeros((reps, 3))
            for i in range(reps):
                traj = simulate((0, 0, 0), SYM, scaling, 10.0, seed=500 + i)
                acc[i] = residual_sup(traj)
            sups[n] = np.sqrt((acc**2).mean(axis=0))
        ratio = sups[100] / sups[400]
        assert ratio.min() >= 1.5

    @pytest.mark.parametrize("params, n, c2, horizon, seed, min_events, init", [
        (SYM, 200, 60, 10.0, 1, 1000, (0, 0, 0)),
        (SYM, 200, 140, 10.0, 2, 1000, (0, 0, 0)),
        (ModelParams(0.3, 1.7, 0.6, 1.2), 50, 30, 10.0, 3, 100, (0, 0, 0)),
        (ModelParams(0.8, 0.9, 2.0, 0.5), 20, 4, 20.0, 4, 100, (0, 0, 0)),
        (SYM, 3, 1, 2.0, 1, 1, (0, 0, 0)),  # y's sup is reached at the horizon
        (SYM, 10, 3, 3.0, 1, 1, (0, 0, 0)),  # z's sup is reached at the horizon
        (ModelParams(0.0, 1.0, 1.0, 1.0), 1, 1, 5.0, 3, 0, (0, 0, 1)),  # nothing enabled: 0
        (ModelParams(1.0, 1.0, 1.0, 1.0), 1, 1, 3.0, 6, 1, (0, 0, 1)),  # jumps of size 1/n
    ])
    def test_sup_matches_hand_written_compensator(self, params, n, c2, horizon, seed,
                                                  min_events, init):
        """The sup from ``rate_clauses``, integrated exactly between jumps, without the tables:
        right and left limits at each jump, and the value at the horizon."""
        scaling = ScalingParams(n, c2)
        traj = simulate(init, params, scaling, horizon, seed=seed)
        assert traj.num_events >= min_events
        states = [tuple(int(v) for v in row) for row in traj.states]
        ends = [*traj.times[1:], traj.horizon]
        start = np.array(states[0]) / n
        compensator, sup = np.zeros(3), np.zeros(3)
        for k, (state, t0, t1) in enumerate(zip(states, traj.times, ends)):
            drift = sum((np.subtract(target, state) * rate
                         for target, rate in rate_clauses(state, params, scaling)), np.zeros(3)) / n
            if k:  # left limit at this jump: the previous state, the compensator so far
                sup = np.maximum(sup, np.abs(np.array(states[k - 1]) / n - start - compensator))
            sup = np.maximum(sup, np.abs(np.array(state) / n - start - compensator))
            compensator = compensator + drift * (t1 - t0)
        sup = np.maximum(sup, np.abs(np.array(states[-1]) / n - start - compensator))
        np.testing.assert_allclose(residual_sup(traj), sup, rtol=0, atol=1e-12)

    def test_truncated_or_foreign_trajectories_rejected(self):
        scaling = ScalingParams(n=4, c2=2)
        aux = simulate_aux_saturated((0, 0), SYM, scaling, 2.0, seed=0)
        with pytest.raises(InvalidState):
            residual_sup(aux)

    def test_truncated_run_refused(self):
        """A truncated run stops before its horizon: its residual would miss the rest."""
        traj = simulate((0, 0, 0), SYM, ScalingParams(n=20, c2=6), 20.0, seed=1, max_events=10)
        assert traj.truncated
        with pytest.raises(InvalidState, match="truncated"):
            residual_sup(traj)

    @pytest.mark.parametrize("params, n, c2, horizon, seeds, init", [
        (SYM, 200, 60, 10.0, range(20), (0, 0, 0)),
        (SYM, 200, 140, 10.0, range(20), (0, 0, 0)),
        (SYM, 800, 240, 10.0, range(20), (0, 0, 0)),
        (SYM, 800, 560, 10.0, range(20), (0, 0, 0)),
        (ModelParams(0.0, 1.0, 1.0, 1.0), 1, 1, 5.0, [3], (0, 0, 1)),  # no jump: absorbed at 0
        (ModelParams(0.0, 1.0, 1.0, 1.0), 3, 2, 100.0, [8], (0, 3, 0)),  # absorbed after jumps
    ], ids=["r0.3-n200", "r0.7-n200", "r0.3-n800", "r0.7-n800", "no-jump", "absorbed"])
    def test_bit_identical_to_numpy_reference(self, params, n, c2, horizon, seeds, init):
        """The compiled sup equals the whole-array numpy formula (``tensordot`` drift,
        ``cumsum`` compensator) float for float."""
        scaling = ScalingParams(n, c2)
        for seed in seeds:
            traj = simulate(init, params, scaling, horizon, seed=seed)
            expected = sim_reference.residual_sup(traj)
            assert residual_sup(traj).tolist() == expected.tolist()

    def test_any_array_layout_gives_the_same_sup(self):
        """Fortran-order, strided, int32 or list states, and strided or list times."""
        scaling = ScalingParams(n=50, c2=15)
        traj = simulate((0, 0, 0), SYM, scaling, 10.0, seed=4)
        wide = np.zeros((len(traj.times), 6), dtype=np.int64)
        wide[:, ::2] = traj.states
        spread = np.zeros(2 * len(traj.times))
        spread[::2] = traj.times
        layouts = [dict(states=s) for s in (np.asfortranarray(traj.states), wide[:, ::2],
                                            traj.states.astype(np.int32), traj.states.tolist())]
        layouts += [dict(times=spread[::2]), dict(times=traj.times.tolist())]
        sup = residual_sup(traj).tolist()
        for fields in layouts:
            assert residual_sup(dataclasses.replace(traj, **fields)).tolist() == sup

    @pytest.mark.parametrize("times, shape", [
        (6, (5, 3)), (6, (7, 3)), (6, (6, 2)), (3, (3, 6)), (0, (0, 3)),
    ], ids=["row-short", "row-over", "two-columns", "six-columns", "no-row"])
    def test_mismatched_states_refused(self, times, shape):
        """Rows other than one per time, no row, or columns other than 3 never reach the C
        code: the run is refused when it is built."""
        with pytest.raises(InvalidState, match="shape"):
            Trajectory("main", np.arange(float(times)),
                       np.zeros(shape, dtype=np.int64), 10.0, 0, SYM, ScalingParams(4, 2))


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

    @staticmethod
    def edge_trajectory():
        """Times at 9-digit ties, extremes and both sides of %g's switch; extreme counts."""
        i64 = np.iinfo(np.int64)
        times = [10.00390625, 12345678.25, 0.0, -0.0, 5e-324, -5e-324,
                 1.7976931348623157e308, -1.23456789e-308, 1e-5, 1e-4, 9.99999999e-5,
                 99999999.95, 99999999.94, 999999999.5, 1e9, math.inf, -math.inf]
        times += [np.nextafter(t, d) for t in (10.00390625, 12345678.25, 1e-5, 1e-4, 99999999.95,
                                               999999999.5, 1e9) for d in (-math.inf, math.inf)]
        times += [10 + k / 256 for k in range(100_000)]
        counts = [0, 1, -1, 9, -10, 123456789, i64.max, i64.min, i64.min + 1, -(10 ** 18)]
        states = np.array([[counts[(k + j) % len(counts)] for j in range(3)]
                           for k in range(len(times))], dtype=np.int64)
        return Trajectory("main", np.array(times), states, 1.0, 0, SYM, ScalingParams(1, 1))

    @staticmethod
    def python_csv(traj):
        row = "%.9g" + ",%d" * len(traj.columns) + "\n"
        return "t," + ",".join(traj.columns) + "\n" + "".join(
            row % (t, *v) for t, v in zip(np.asarray(traj.times).tolist(),
                                          np.asarray(traj.states).tolist()))

    def test_edge_values_match_python_format(self):
        traj = self.edge_trajectory()
        assert len(traj.times) > 6 * 16384
        wide = np.repeat(traj.states, 2, axis=1)
        for states in (traj.states, np.asfortranarray(traj.states), wide[:, ::2],
                       traj.states.tolist()):
            buf = io.StringIO()
            write_trajectory_csv(dataclasses.replace(traj, states=states), buf)
            assert buf.getvalue() == self.python_csv(traj)

    def test_digit_range_and_its_ends_match_python_format(self):
        """About 200k times in and around 1e-14..1e9, where a time's digits come from integers."""
        rng = np.random.default_rng(23)
        bits = rng.integers(0, 2 ** 64, 60_000, dtype=np.uint64).view(float)
        # Both sides of each decade's rounding carry, 10^j (1 - 5e-10), ulp by ulp.
        carries = [(np.array([10.0 ** j * (1 - 5e-10)]).view(np.int64)
                    + np.arange(-500, 501)).view(float) for j in range(-16, 11)]
        # In decade j, c / 2^(9 - j) with c odd has ten significant digits, the last a 5:
        # an exact tie on the ninth digit.  Decades below 10^-3 hold none.
        ties = [np.ldexp(2 * rng.integers(int(256 * 5.0 ** j) + 1, int(2560 * 5.0 ** j), 5_000) + 1,
                         j - 9) for j in range(-3, 9)]
        times = np.concatenate([bits[np.isfinite(bits)], 10 ** rng.uniform(-16, 10, 60_000),
                                *carries, *ties, [0.0, -0.0]])
        times[:-2] *= rng.choice([-1.0, 1.0], len(times) - 2)
        states = rng.integers(-5, 5_000, (len(times), 3))
        traj = Trajectory("main", times, states, 1.0, 0, SYM, ScalingParams(1, 1))
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        assert buf.getvalue() == self.python_csv(traj)

    def test_widest_rows_fill_a_block_exactly(self):
        """16,384 rows of 16-byte times and 20-byte counts need the whole buffer."""
        rows = 2 * 16384 + 5
        traj = Trajectory("main", np.full(rows, -1.23456789e-308),
                          np.full((rows, 3), np.iinfo(np.int64).min), 1.0, 0, SYM,
                          ScalingParams(1, 1))
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        assert buf.getvalue() == self.python_csv(traj)
        assert len(buf.getvalue()) == len("t,y_star,y,z\n") + rows * (17 + 21 * 3)

    def test_formatter_stops_before_capacity(self):
        fmt = native.library().format_trajectory_rows
        times, states = np.array([1.5, 2.0]), np.array([[1, -2], [30, 4]], dtype=np.int64)
        out = np.zeros(64, dtype=np.uint8)
        args = (times.ctypes.data, states.ctypes.data, 2, 2, out.ctypes.data)
        assert fmt(*args, 64) == len("1.5,1,-2\n2,30,4\n")
        assert out[:16].tobytes() == b"1.5,1,-2\n2,30,4\n"
        # A row needs room for its time, 21 bytes per count and the newline before it is written.
        assert fmt(*args, 3 + 42) == -1
        assert fmt(*args, 9 + 1 + 42) == -1
        assert fmt(*args, 9 + 1 + 42 + 1) == 16

    def test_mismatched_states_refused(self):
        """Refused when the run is built, so the writer never meets it."""
        with pytest.raises(InvalidState, match="shape"):
            dataclasses.replace(self.edge_trajectory(), states=np.zeros((5, 3), dtype=np.int64))

    def test_bytes_do_not_depend_on_numeric_locale(self, tmp_path):
        """Under de_DE a plain snprintf writes 1,5; the formatter must not, nor leave C locale."""
        localedef = shutil.which("localedef")
        if localedef is None:
            pytest.skip("localedef is absent, so no de_DE.UTF-8 locale can be built")
        subprocess.run([localedef, "-i", "de_DE", "-f", "UTF-8", str(tmp_path / "de_DE.UTF-8")],
                       check=True, capture_output=True)
        script = (
            "import ctypes, io, locale, sys\n"
            "import numpy as np\n"
            "from twolevel import ModelParams, ScalingParams, Trajectory, write_trajectory_csv\n"
            "locale.setlocale(locale.LC_NUMERIC, 'de_DE.UTF-8')\n"
            "libc, buf = ctypes.CDLL(None), ctypes.create_string_buffer(16)\n"
            "libc.snprintf(buf, 16, b'%.1f', ctypes.c_double(1.5))\n"
            "before = buf.value\n"
            "traj = Trajectory('main', np.array([0.0, 1.5, 2.25e-7]),\n"
            "                  np.array([[0, 0, 0], [1, -2, 3], [4, 5, 6]]), 3.0, 0,\n"
            "                  ModelParams(0.5, 1.0, 1.0, 1.0), ScalingParams(1, 1))\n"
            "out = io.StringIO()\n"
            "write_trajectory_csv(traj, out)\n"
            "libc.snprintf(buf, 16, b'%.1f', ctypes.c_double(1.5))\n"
            "sys.stdout.write(repr((before, buf.value, out.getvalue())))\n"
        )
        env = dict(os.environ, LOCPATH=str(tmp_path))
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(sim.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        before, after, csv = ast.literal_eval(proc.stdout)
        assert before == after == b"1,5"
        traj = Trajectory("main", np.array([0.0, 1.5, 2.25e-7]),
                          np.array([[0, 0, 0], [1, -2, 3], [4, 5, 6]]), 3.0, 0, SYM,
                          ScalingParams(1, 1))
        assert csv == self.python_csv(traj)
        assert csv == "t,y_star,y,z\n0,0,0,0\n1.5,1,-2,3\n2.25e-07,4,5,6\n"
