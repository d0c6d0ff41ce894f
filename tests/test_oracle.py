"""Exact small-instance solver: enumeration, generator, stationary, transient."""

import io
import pickle

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse

from twolevel import (
    InvalidState,
    MicroState,
    ModelParams,
    NotIrreducible,
    ScalingParams,
    SingularSystem,
    TooLarge,
    blocked_fraction_limit,
    build_generator,
    enumerate_states,
    state_space_size,
    stationary_distribution,
    stationary_moments,
    transient_distribution,
    write_stationary_csv,
)
from twolevel import oracle, sim
from rate_clauses import rate_clauses, reference_generator

SYM = ModelParams(0.5, 1.0, 1.0, 1.0)


class TestEnumeration:
    def test_single_operator_space(self):
        states = enumerate_states(ScalingParams(n=1, c2=1))
        assert states == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0),
        ]

    def test_no_operators_only_specialist_axis(self):
        states = enumerate_states(ScalingParams(n=0, c2=3))
        assert states == [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3)]

    def test_two_operator_count(self):
        states = enumerate_states(ScalingParams(n=2, c2=1))
        assert len(states) == 9
        assert all(s.y_star * s.z == 0 for s in states)
        assert all(s.y_star + s.y <= 2 and s.z <= 1 for s in states)

    def test_size_formula_matches_enumeration(self):
        for n, c2 in [(1, 1), (3, 2), (5, 5), (8, 3)]:
            scaling = ScalingParams(n=n, c2=c2)
            assert state_space_size(scaling) == len(enumerate_states(scaling))

    def test_cap_enforced(self):
        with pytest.raises(TooLarge) as exc:
            enumerate_states(ScalingParams(n=100, c2=50), cap=100)
        assert exc.value.cap == 100
        assert exc.value.size > 100

    def test_lexicographic_order(self):
        states = enumerate_states(ScalingParams(n=3, c2=2))
        assert states == sorted(states)

    @pytest.mark.parametrize("n,c2", [(0, 0), (0, 3), (1, 0), (5, 0), (7, 3), (20, 10)])
    def test_matches_nested_loop_reference(self, n, c2):
        """The vectorised builder gives the per-state loop's states, as MicroStates of ints."""
        expected = []
        for y_star in range(n + 1):
            for y in range(n - y_star + 1):
                for z in range(c2 + 1) if y_star == 0 else (0,):
                    expected.append((y_star, y, z))
        states = enumerate_states(ScalingParams(n=n, c2=c2))
        assert states == expected
        assert all(type(s) is MicroState and all(type(v) is int for v in s) for s in states)


class TestGenerator:
    def test_rows_sum_to_zero(self):
        g = build_generator(SYM, ScalingParams(n=4, c2=2))
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12)

    def test_certain_handover_row(self):
        """With p=1 the empty state can only admit a class-1 call."""
        params = ModelParams(1.0, 1.0, 1.0, 1.0)
        scaling = ScalingParams(n=1, c2=1)
        states = enumerate_states(scaling)
        g = build_generator(params, scaling)
        i = states.index(MicroState(0, 0, 1))
        j = states.index(MicroState(0, 1, 1))
        row = np.zeros(len(states))
        row[i], row[j] = -1.0, 1.0
        np.testing.assert_allclose(g[i], row, atol=1e-15)

    def test_target_outside_state_space_rejected(self, monkeypatch):
        """A table row that lets z exceed c2 fails the build instead of landing on a neighbour."""
        main = sim.PROCESSES["main"]
        table = list(main.table)
        table[-1] = ((0, 0, 1), "mu02", "c2 + 1 - z", "y_star == 0")
        monkeypatch.setitem(sim.PROCESSES, "main", main._replace(table=tuple(table)))
        with pytest.raises(InvalidState, match=r"\(0, 0, 2\) to \(0, 0, 3\)"):
            build_generator(SYM, ScalingParams(n=4, c2=2))

    @pytest.mark.parametrize("n,c2", [(2, 1), (3, 2), (4, 3), (4, 1)])
    def test_offdiagonal_matches_clause_enumeration(self, n, c2):
        params = ModelParams(0.35, 1.3, 0.8, 1.1)
        scaling = ScalingParams(n=n, c2=c2)
        states = enumerate_states(scaling)
        index = {s: k for k, s in enumerate(states)}
        g = build_generator(params, scaling)
        for i, state in enumerate(states):
            expected = np.zeros(len(states))
            for target, rate in rate_clauses(state, params, scaling):
                expected[index[target]] += rate
            expected[i] = -expected.sum()
            np.testing.assert_allclose(g[i], expected, atol=1e-13)

    @pytest.mark.parametrize("p", [0.0, 0.35, 0.5, 1.0])
    @pytest.mark.parametrize("n,c2", [(4, 2), (20, 10), (60, 30)])
    def test_identical_to_state_by_state_reference(self, n, c2, p):
        """The table-driven build reproduces the per-state loop bit for bit."""
        params = ModelParams(p, 1.3, 0.8, 1.1)
        scaling = ScalingParams(n=n, c2=c2)
        assert np.array_equal(build_generator(params, scaling), reference_generator(params, scaling))


class TestCarriedCsr:
    """``build_generator`` carries the CSR form the solves would convert to."""

    @pytest.mark.parametrize("p", [0.0, 0.35, 0.5, 1.0])
    @pytest.mark.parametrize("n,c2", [(1, 1), (4, 2), (20, 10), (40, 5), (60, 30)])
    def test_equals_conversion_of_dense(self, n, c2, p):
        g = build_generator(ModelParams(p, 1.3, 0.8, 1.1), ScalingParams(n=n, c2=c2))
        ref = sparse.csr_array(np.asarray(g))
        for name in ("indptr", "indices", "data"):
            carried, expected = getattr(g.csr, name), getattr(ref, name)
            assert carried.dtype == expected.dtype
            np.testing.assert_array_equal(carried, expected)

    def test_read_only(self):
        g = build_generator(SYM, ScalingParams(n=4, c2=2))
        with pytest.raises(ValueError):
            g[0, 0] = 1.0

    def test_derived_arrays_carry_nothing(self):
        g = build_generator(ModelParams(0.35, 1.3, 0.8, 1.1), ScalingParams(n=6, c2=3))
        for derived in (g.T, g[1:]):
            assert derived.csr is None
            ref = sparse.csr_array(np.asarray(derived))
            converted = oracle._csr(derived)
            assert converted.shape == derived.shape
            np.testing.assert_array_equal(converted.indices, ref.indices)
            np.testing.assert_array_equal(converted.data, ref.data)
        pi = stationary_distribution(g)
        law = transient_distribution(g, 0, 2.0)
        for derived in (g.copy(), pickle.loads(pickle.dumps(g))):
            assert derived.csr is None
            np.testing.assert_array_equal(stationary_distribution(derived), pi)
            np.testing.assert_array_equal(transient_distribution(derived, 0, 2.0), law)

    def test_solves_never_scan_a_built_generator(self, monkeypatch):
        real = sparse.csr_array
        scanned = []

        def counting(arg, *args, **kwargs):
            if isinstance(arg, np.ndarray):
                scanned.append(arg.shape)
            return real(arg, *args, **kwargs)

        monkeypatch.setattr(sparse, "csr_array", counting)
        g = build_generator(SYM, ScalingParams(n=6, c2=3))
        stationary_distribution(g)
        transient_distribution(g, 0, 1.0)
        assert scanned == []
        stationary_distribution(np.asarray(g))
        transient_distribution(np.asarray(g), 0, 1.0)
        assert scanned == [g.shape, g.shape]


class TestStationary:
    def test_two_state_birth_death(self):
        lam, mu = 0.7, 1.3
        g = np.array([[-lam, lam], [mu, -mu]])
        pi = stationary_distribution(g)
        np.testing.assert_allclose(pi, (mu / (lam + mu), lam / (lam + mu)), atol=1e-14)

    def test_stationarity_under_transient_propagation(self):
        """pi is a fixed point of the transition semigroup."""
        scaling = ScalingParams(n=2, c2=1)
        g = build_generator(SYM, scaling)
        pi = stationary_distribution(g)
        moved = transient_distribution(g, pi, 50.0)
        assert np.abs(moved - pi).max() <= 1e-8

    def test_blocking_mass_partitions(self):
        scaling = ScalingParams(n=3, c2=2)
        g = build_generator(SYM, scaling)
        pi = stationary_distribution(g)
        states = np.array(enumerate_states(scaling))
        blocked = pi[states[:, 0] > 0].sum()
        assert blocked + pi[states[:, 0] == 0].sum() == pytest.approx(1.0, abs=1e-12)
        assert stationary_moments(pi, scaling)[3] == pytest.approx(blocked)

    def test_degenerate_handover_not_irreducible(self):
        params = ModelParams(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(NotIrreducible):
            stationary_distribution(build_generator(params, ScalingParams(n=2, c2=1)))

    def test_weakly_connected_not_irreducible(self):
        """0 -> 1 <-> 2: every state is linked, but nothing returns to state 0."""
        g = np.array([[-1.0, 1.0, 0.0], [0.0, -2.0, 2.0], [0.0, 3.0, -3.0]])
        with pytest.raises(NotIrreducible):
            stationary_distribution(g)

    def test_matches_dense_bordered_solve(self):
        """Independent dense reference: g^T with its last row replaced by ones."""
        g = build_generator(ModelParams(0.35, 1.3, 0.8, 1.1), ScalingParams(n=20, c2=10))
        a = g.T.copy()
        a[-1, :] = 1.0
        b = np.zeros(len(g))
        b[-1] = 1.0
        np.testing.assert_allclose(stationary_distribution(g), np.linalg.solve(a, b),
                                   rtol=0.0, atol=1e-13)

    def test_sparse_input_matches_dense(self):
        g = build_generator(SYM, ScalingParams(n=6, c2=3))
        np.testing.assert_array_equal(stationary_distribution(sparse.csr_array(g)),
                                      stationary_distribution(g))

    def test_non_finite_solve_is_singular(self, monkeypatch):
        """A singular factorisation returns NaN, which no residual or sign test catches."""
        monkeypatch.setattr(oracle, "spsolve", lambda a, b, **kw: np.full(len(b), np.nan))
        with pytest.raises(SingularSystem):
            stationary_distribution(build_generator(SYM, ScalingParams(n=2, c2=1)))

    def test_blocked_mass_approaches_fluid_limit(self):
        """Growing n with c2 = 0.3 n drives E[y_star]/n toward the fluid value."""
        limit = blocked_fraction_limit(SYM, 0.3)
        fracs = []
        for n in (10, 20, 40):
            scaling = ScalingParams(n=n, c2=(3 * n) // 10)
            pi = stationary_distribution(build_generator(SYM, scaling))
            fracs.append(stationary_moments(pi, scaling)[0])
        gaps = [abs(f - limit) for f in fracs]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.1


class TestMoments:
    def test_point_mass(self):
        scaling = ScalingParams(n=1, c2=1)
        states = enumerate_states(scaling)
        pi = np.zeros(len(states))
        pi[states.index(MicroState(0, 1, 0))] = 1.0
        assert stationary_moments(pi, scaling) == (0.0, 1.0, 0.0, 0.0)

    def test_rescaling_by_n(self):
        scaling = ScalingParams(n=4, c2=2)
        states = enumerate_states(scaling)
        pi = np.zeros(len(states))
        pi[states.index(MicroState(2, 1, 0))] = 1.0
        assert stationary_moments(pi, scaling) == (0.5, 0.25, 0.0, 1.0)


class TestTransient:
    def test_zero_time_returns_start(self):
        g = build_generator(SYM, ScalingParams(n=2, c2=1))
        dist = transient_distribution(g, 3, 0.0)
        expected = np.zeros(len(g))
        expected[3] = 1.0
        np.testing.assert_allclose(dist, expected)

    def test_two_state_closed_form(self):
        lam, mu = 0.7, 1.3
        g = np.array([[-lam, lam], [mu, -mu]])
        for t in (0.1, 0.5, 2.0):
            dist = transient_distribution(g, 0, t)
            p1 = lam / (lam + mu) * (1.0 - np.exp(-(lam + mu) * t))
            np.testing.assert_allclose(dist, (1.0 - p1, p1), atol=1e-10)

    def test_long_horizon_splitting_reaches_stationarity(self):
        lam, mu = 0.7, 1.3
        g = np.array([[-lam, lam], [mu, -mu]])
        dist = transient_distribution(g, 0, 1000.0)
        np.testing.assert_allclose(dist, (mu / (lam + mu), lam / (lam + mu)), atol=1e-9)

    def test_converges_to_stationary(self):
        scaling = ScalingParams(n=2, c2=1)
        g = build_generator(SYM, scaling)
        pi = stationary_distribution(g)
        dist = transient_distribution(g, 0, 200.0)
        assert 0.5 * np.abs(dist - pi).sum() <= 1e-6

    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
    def test_matches_matrix_exponential(self, t):
        g = build_generator(ModelParams(0.35, 1.3, 0.8, 1.1), ScalingParams(n=4, c2=2))
        np.testing.assert_allclose(transient_distribution(g, 0, t),
                                   scipy.linalg.expm(g * t)[0], rtol=0.0, atol=1e-12)

    def test_sparse_input_matches_dense(self):
        g = build_generator(SYM, ScalingParams(n=6, c2=3))
        start = np.full(len(g), 1.0 / len(g))
        for init in (0, start):
            np.testing.assert_array_equal(transient_distribution(sparse.csr_array(g), init, 2.0),
                                          transient_distribution(g, init, 2.0))

    def test_input_validation(self):
        g = np.array([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ValueError):
            transient_distribution(g, 0, -1.0)
        with pytest.raises(ValueError):
            transient_distribution(g, np.array([0.5, 0.25, 0.25]), 1.0)


class TestStationaryCsv:
    def test_round_trip(self):
        scaling = ScalingParams(n=2, c2=1)
        pi = stationary_distribution(build_generator(SYM, scaling))
        buf = io.StringIO()
        write_stationary_csv(pi, scaling, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "y_star,y,z,prob"
        assert len(lines) == len(pi) + 1
        probs = [float(line.split(",")[3]) for line in lines[1:]]
        np.testing.assert_allclose(probs, pi, rtol=0.0)
