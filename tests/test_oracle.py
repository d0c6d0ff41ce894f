"""Exact small-instance solver: enumeration, generator, stationary, transient."""

import math
import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy import sparse

from twolevel import (
    DomainError,
    InvalidState,
    ModelParams,
    NotIrreducible,
    ScalingParams,
    SingularSystem,
    TooLarge,
    blocked_fraction_limit,
    build_generator,
    state_space_size,
    stationary_distribution,
    stationary_moments,
    transient_distribution,
)
from twolevel import model, oracle
from rate_clauses import all_states, rate_clauses, reference_generator

SYM = ModelParams(0.5, 1.0, 1.0, 1.0)


def _thp_mode():
    """The host's transparent-huge-page mode line, or "" where the kernel has none."""
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as fh:
            return fh.read()
    except OSError:
        return ""


class TestEnumeration:
    """The oracle's vectorised enumeration, ``oracle._state_array``."""

    @staticmethod
    def states(scaling):
        return [tuple(row) for row in oracle._state_array(scaling).tolist()]

    def test_single_operator_space(self):
        states = self.states(ScalingParams(n=1, c2=1))
        assert states == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0),
        ]

    @pytest.mark.parametrize("n, c2, field", [(0, 3, "n"), (0, 0, "n"), (1, 0, "c2"),
                                              (5, 0, "c2")])
    def test_scale_without_a_chain_refused(self, monkeypatch, n, c2, field):
        """Sized by ``state_space_size``: n = 0 or c2 = 0 is refused before any allocation."""
        monkeypatch.setattr(oracle.np, "zeros", lambda *a, **k: pytest.fail("allocated"))
        with pytest.raises(DomainError) as err:
            oracle._state_array(ScalingParams(n=n, c2=c2))
        assert err.value.field == field

    def test_two_operator_count(self):
        states = self.states(ScalingParams(n=2, c2=1))
        assert len(states) == 9
        assert all(y_star * z == 0 for y_star, _, z in states)
        assert all(y_star + y <= 2 and z <= 1 for y_star, y, z in states)

    def test_size_formula_matches_enumeration(self):
        for n, c2 in [(1, 1), (3, 2), (5, 5), (8, 3)]:
            scaling = ScalingParams(n=n, c2=c2)
            assert state_space_size(scaling) == len(self.states(scaling))

    def test_cap_enforced(self, monkeypatch):
        """n=150, c2=1 has 11,627 states, just above the cap: refused before any allocation."""
        monkeypatch.setattr(oracle.np, "zeros", lambda *a, **k: pytest.fail("allocated"))
        with pytest.raises(TooLarge) as exc:
            oracle._state_array(ScalingParams(n=150, c2=1))
        assert exc.value.cap == oracle.STATE_CAP_DEFAULT
        assert exc.value.size == 11_627

    def test_lexicographic_order(self):
        states = self.states(ScalingParams(n=3, c2=2))
        assert states == sorted(states)

    @pytest.mark.parametrize("n,c2", [(1, 1), (1, 3), (5, 1), (2, 9), (7, 3), (20, 10)])
    def test_matches_nested_loop_reference(self, n, c2):
        """The vectorised builder gives the per-state loop's states, as int64 rows."""
        scaling = ScalingParams(n=n, c2=c2)
        states = oracle._state_array(scaling)
        assert states.dtype == np.int64 and states.shape == (len(all_states(scaling)), 3)
        assert self.states(scaling) == all_states(scaling)


class TestGenerator:
    def test_rows_sum_to_zero(self):
        g = build_generator(SYM, ScalingParams(n=4, c2=2))
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12)

    def test_certain_handover_row(self):
        """With p=1 the empty state can only admit a class-1 call."""
        params = ModelParams(1.0, 1.0, 1.0, 1.0)
        scaling = ScalingParams(n=1, c2=1)
        states = all_states(scaling)
        g = build_generator(params, scaling)
        i = states.index((0, 0, 1))
        j = states.index((0, 1, 1))
        row = np.zeros(len(states))
        row[i], row[j] = -1.0, 1.0
        np.testing.assert_allclose(g[i], row, atol=1e-15)

    def test_target_outside_state_space_rejected(self, monkeypatch):
        """A table row that lets z exceed c2 fails the build instead of landing on a neighbour."""
        main = model.PROCESSES["main"]
        table = list(main.table)
        table[-1] = ((0, 0, 1), "mu02", "c2 + 1 - z", "y_star == 0")
        monkeypatch.setitem(model.PROCESSES, "main", main._replace(table=tuple(table)))
        with pytest.raises(InvalidState, match=r"\(0, 0, 2\) to \(0, 0, 3\)"):
            build_generator(SYM, ScalingParams(n=4, c2=2))

    @pytest.mark.parametrize("n,c2", [(2, 1), (3, 2), (4, 3), (4, 1)])
    def test_offdiagonal_matches_clause_enumeration(self, n, c2):
        params = ModelParams(0.35, 1.3, 0.8, 1.1)
        scaling = ScalingParams(n=n, c2=c2)
        states = all_states(scaling)
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

    @pytest.mark.parametrize("p", [0.0, 0.35, 0.5, 1.0])
    @pytest.mark.parametrize("n,c2", [(1, 1), (4, 2), (20, 10), (40, 5), (60, 30)])
    def test_dense_is_carried_toarray_bit_for_bit(self, n, c2, p):
        """The array written entry by entry into zero pages is the CSR's ``toarray()``,
        signed zeros included."""
        g = build_generator(ModelParams(p, 1.3, 0.8, 1.1), ScalingParams(n=n, c2=c2))
        assert g.dtype == np.float64 and g.shape == g.csr.shape
        assert np.array_equal(g.view(np.int64), g.csr.toarray().view(np.int64))

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak resident set from /proc")
    @pytest.mark.skipif("[always]" in _thp_mode(),
                        reason="with transparent huge pages always on, the kernel may back "
                               "the mapping with huge pages")
    def test_only_written_pages_become_resident(self):
        """At 3,721 states the dense array is 106 MiB; reading all of it, as a row-sum
        check does, leaves resident only the pages that hold a stored entry.  The peak
        is the child's own VmHWM: ``ru_maxrss`` keeps the peak of the process that
        started it, here the test runner."""
        code = textwrap.dedent("""
            import numpy as np
            from twolevel import ModelParams, ScalingParams, build_generator

            def peak_kib():
                with open("/proc/self/status") as fh:
                    return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

            build_generator(ModelParams(0.5, 1.0, 1.0, 1.0), ScalingParams(2, 1))
            before = peak_kib()
            g = build_generator(ModelParams(0.35, 1.3, 0.8, 1.1), ScalingParams(60, 30))
            assert g.nbytes == 3721 * 3721 * 8
            assert np.count_nonzero(g) == g.csr.nnz
            assert np.abs(g.sum(axis=1)).max() <= 1e-9
            print(peak_kib() - before)
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(oracle.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 40 * 1024  # about 104 MiB for a zero-filled array

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
    def test_one_state_holds_all_mass(self):
        assert stationary_distribution(np.array([[0.0]])).tolist() == [1.0]

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
        states = np.array(all_states(scaling))
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

    @pytest.mark.parametrize("params,scaling", [
        (ModelParams(0.35, 1.3, 0.8, 1.1), ScalingParams(n=20, c2=10)),
        (SYM, ScalingParams(n=12, c2=4)),
        (ModelParams(0.8, 0.5, 2.0, 0.7), ScalingParams(n=15, c2=25)),
        # The pinned last state (all n operators blocked) has mass 1.1e-105, by
        # Grassmann-Taksar-Heyman elimination, which keeps every component's
        # relative accuracy.
        (ModelParams(0.05, 3.0, 3.0, 3.0), ScalingParams(n=40, c2=40)),
    ], ids=["skewed", "symmetric", "specialist-bound", "pinned-mass-1e-105"])
    def test_matches_dense_bordered_solve(self, params, scaling):
        """Independent dense reference: g^T with its last row replaced by ones."""
        g = build_generator(params, scaling)
        a = g.T.copy()
        a[-1, :] = 1.0
        b = np.zeros(len(g))
        b[-1] = 1.0
        np.testing.assert_allclose(stationary_distribution(g), np.linalg.solve(a, b),
                                   rtol=0.0, atol=1e-13)

    def test_tiny_mass_is_accurate_in_absolute_terms_only(self):
        """The all-blocked state's exact mass is 1.1e-105 (Grassmann-Taksar-Heyman); the
        solve returns rounding noise for it, below 1e-15, in a distribution of mass 1 and
        residual <= 1e-10."""
        g = build_generator(ModelParams(0.05, 3.0, 3.0, 3.0), ScalingParams(n=40, c2=40))
        pi = stationary_distribution(g)
        assert all_states(ScalingParams(n=40, c2=40))[-1] == (40, 0, 0)
        assert 0.0 <= pi[-1] < 1e-15
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(pi @ g).max() <= 1e-10

    def test_sparse_input_matches_dense(self):
        g = build_generator(SYM, ScalingParams(n=6, c2=3))
        np.testing.assert_array_equal(stationary_distribution(sparse.csr_array(g)),
                                      stationary_distribution(g))

    def test_non_finite_solve_is_singular(self, monkeypatch):
        """A singular factorisation returns NaN, which no residual or sign test catches."""
        monkeypatch.setattr(scipy.sparse.linalg, "spsolve",
                            lambda a, b, **kw: np.full(len(b), np.nan))
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


class TestNotAGenerator:
    """Both solves refuse, naming ``g``, a matrix that is not a generator."""

    SOLVES = {
        "stationary": stationary_distribution,
        "transient": lambda g: transient_distribution(g, 0, 1.0),
    }

    @pytest.mark.parametrize("solve", SOLVES)
    @pytest.mark.parametrize("g", [
        np.array([[1.0, -1.0], [1.0, -1.0]]),      # transient gave [2, -1]
        np.array([[-1.0, math.nan], [1.0, -1.0]]),  # transient gave [nan, nan]
        np.array([[-1.0, math.inf], [1.0, -1.0]]),
        np.array([[-1.0, 2.0], [1.0, -1.0]]),       # transient gave a law of mass 1.81
        np.array([[-1.0, 1.0], [1.0, -1.0 - 2e-9]]),
        np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]),
        sparse.csr_array(np.array([[1.0, -1.0], [1.0, -1.0]])),
    ], ids=["negative-rate", "nan", "inf", "rows-sum-to-1", "row-sum-2e-9", "non-square",
            "sparse-negative-rate"])
    def test_refused(self, g, solve):
        with pytest.raises(DomainError) as err:
            self.SOLVES[solve](g)
        assert err.value.field == "g"

    def test_empty_refused(self):
        """The stationary solve called a 0 x 0 input NotIrreducible."""
        with pytest.raises(DomainError) as err:
            stationary_distribution(np.zeros((0, 0)))
        assert err.value.field == "g"

    def test_row_sum_tolerance_scales_with_the_exit_rate(self):
        """A row may miss 0 by 1e-9 x max(1, its exit rate): a miss of 5e-4 passes on rates
        of 1e6 and is refused on rates of 1e-3."""
        big = np.array([[-1e6, 1e6], [1e6, -1e6 - 5e-4]])
        # The missing rate drains about 5e-4 x t / 2 of the mass.
        assert transient_distribution(big, 0, 1e-4).sum() == pytest.approx(1 - 2.5e-8, abs=1e-9)
        for solve in self.SOLVES.values():
            with pytest.raises(DomainError):
                solve(np.array([[-1e-3, 1e-3], [1e-3, -1e-3 - 5e-4]]))

    def test_absorbing_state_accepted(self):
        """An all-zero row is an absorbing state, which a generator may have."""
        dist = transient_distribution(np.array([[0.0, 0.0], [1.0, -1.0]]), 1, 1.0)
        np.testing.assert_allclose(dist, (1.0 - math.exp(-1.0), math.exp(-1.0)), atol=1e-12)


class TestMoments:
    def test_point_mass(self):
        scaling = ScalingParams(n=1, c2=1)
        states = all_states(scaling)
        pi = np.zeros(len(states))
        pi[states.index((0, 1, 0))] = 1.0
        assert stationary_moments(pi, scaling) == (0.0, 1.0, 0.0, 0.0)

    def test_rescaling_by_n(self):
        scaling = ScalingParams(n=4, c2=2)
        states = all_states(scaling)
        pi = np.zeros(len(states))
        pi[states.index((2, 1, 0))] = 1.0
        assert stationary_moments(pi, scaling) == (0.5, 0.25, 0.0, 1.0)

    @pytest.mark.parametrize("pi", [
        np.full(26, 1.0 / 26),           # crashed in matmul, naming no input
        np.full(25, math.nan),           # returned four NaNs
        np.full(25, -1.0),               # returned negative "probabilities"
        np.array([2.0, -1.0] + [0.0] * 23),
        np.full(25, 0.5 / 25),
    ], ids=["length-26", "all-nan", "minus-one", "two-minus-one", "mass-half"])
    def test_non_distribution_refused(self, pi):
        scaling = ScalingParams(4, 2)
        assert state_space_size(scaling) == 25
        with pytest.raises(DomainError) as err:
            stationary_moments(pi, scaling)
        assert err.value.field == "pi"

    @pytest.mark.parametrize("scaling, field", [
        (ScalingParams(0, 1), "n"),      # moments returned (nan, nan, inf, 0.0)
        (ScalingParams(-3, 2), "n"),     # the size read -3
        (ScalingParams(1.5, 2), "n"),    # a bare TypeError
        (ScalingParams(4, 0), "c2"),
        (ScalingParams(4, 2.5), "c2"),
    ], ids=["n-zero", "n-minus-three", "n-fraction", "c2-zero", "c2-fraction"])
    def test_scale_validate_refuses_is_refused(self, scaling, field):
        """The size and the moments refuse, naming the field, the scales no chain has."""
        for call in (lambda: state_space_size(scaling),
                     lambda: stationary_moments(np.array([0.5, 0.5]), scaling)):
            with pytest.raises(DomainError) as err:
                call()
            assert err.value.field == field


class TestTransient:
    @pytest.mark.parametrize("init,t,field", [
        (0, math.nan, "t"),    # returned an all-NaN distribution
        (0, math.inf, "t"),    # recursed until RecursionError
        (-1, 1.0, "init"),     # started from the last state
        (25, 1.0, "init"),
        (2.7, 1.0, "init"),    # started from state 2
        (True, 1.0, "init"),   # started from state 1
        ([math.nan] + [0.0] * 24, 1.0, "init"),   # returned an all-NaN distribution
        ([3.0, -1.0] + [0.0] * 23, 1.0, "init"),  # returned a "distribution" of mass 2
        ([0.5] + [0.0] * 24, 1.0, "init"),
    ], ids=["t-nan", "t-inf", "init-negative", "init-past-end", "init-2.7", "init-true",
            "init-nan", "init-three-minus-one", "init-mass-half"])
    def test_bad_time_or_start_index_refused(self, init, t, field, monkeypatch):
        g = build_generator(SYM, ScalingParams(4, 2))
        assert len(g) == 25
        # Refused before the generator is converted for the solve.
        monkeypatch.setattr(oracle, "_csr", None)
        with pytest.raises(DomainError) as err:
            transient_distribution(g, init, t)
        assert err.value.field == field

    def test_start_within_mass_tolerance_accepted(self):
        g = build_generator(SYM, ScalingParams(4, 2))
        start = np.full(len(g), 1.0 / len(g))
        start[0] += 5e-10
        dist = transient_distribution(g, start, 1.0)
        assert abs(dist.sum() - start.sum()) <= 1e-11
        np.testing.assert_array_equal(transient_distribution(g, np.int64(3), 1.0),
                                      transient_distribution(g, 3, 1.0))

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

    def test_tiny_mass_is_accurate_in_absolute_terms_only(self):
        """The all-blocked state's exact mass is 1.1e-105 (Grassmann-Taksar-Heyman); the
        solve returns rounding noise for it, below 1e-15, in a distribution of mass 1 and
        residual <= 1e-10."""
        g = build_generator(ModelParams(0.05, 3.0, 3.0, 3.0), ScalingParams(n=40, c2=40))
        pi = stationary_distribution(g)
        assert all_states(ScalingParams(n=40, c2=40))[-1] == (40, 0, 0)
        assert 0.0 <= pi[-1] < 1e-15
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(pi @ g).max() <= 1e-10

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
