"""Exact ground truth on small instances.

Enumerates the full state space and builds the generator matrix in two
forms at once: the dense S x S array that callers see, and its CSR form,
carried on the returned array so that the stationary and transient
solves never re-scan the dense matrix.  Everything here is brute force on
purpose: it exists to check the simulator and the closed forms, not to
scale.
"""

import math

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve

from . import sim
from .errors import InvalidState, NotIrreducible, SingularSystem, TooLarge
from .sim import MicroState

# A dense generator has S * S * 8 bytes: 11,585 states make 1 GiB.  It
# sets the peak memory.  The CSR form carried beside it holds about five
# nonzeros a row (0.2 MiB at 3,721 states), and the solves work on that.
STATE_CAP_DEFAULT = 11_585


def state_space_size(scaling):
    """|S| = (n+1)(c2+1) states with y_star=0 plus n(n+1)/2 with y_star>0."""
    n, c2 = scaling.n, scaling.c2
    return (n + 1) * (c2 + 1) + n * (n + 1) // 2


def _state_array(scaling, cap):
    """The (y_star, y, z) rows of ``enumerate_states`` as an int64 array."""
    size = state_space_size(scaling)
    if size > cap:
        raise TooLarge(size, cap)
    n, c2 = scaling.n, scaling.c2
    states = np.zeros((size, 3), dtype=np.int64)
    # y_star = 0: y = 0..n, each with z = 0..c2.
    head = (n + 1) * (c2 + 1)
    states[:head, 1] = np.repeat(np.arange(n + 1), c2 + 1)
    states[:head, 2] = np.tile(np.arange(c2 + 1), n + 1)
    # y_star = 1..n: y = 0..n-y_star, z = 0.
    counts = np.arange(n, 0, -1)
    states[head:, 0] = np.repeat(np.arange(1, n + 1), counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    states[head:, 1] = np.arange(size - head) - starts
    return states


def enumerate_states(scaling, cap=STATE_CAP_DEFAULT):
    """All states (y_star, y, z) with y_star+y <= n, z <= c2, y_star*z = 0.

    Lexicographically ordered.  Raises TooLarge with the computed size if
    the instance exceeds ``cap``.
    """
    return [MicroState(*row) for row in _state_array(scaling, cap).tolist()]


class DenseGenerator(np.ndarray):
    """A read-only dense generator that carries its CSR form as ``csr``.

    Only ``build_generator`` sets ``csr``.  Every array derived from one
    (a transpose, slice, copy or unpickled array) has ``csr = None``, so a
    carried form always describes the array it rides on.
    """

    def __array_finalize__(self, obj):
        self.csr = None


def build_generator(params, scaling, cap=STATE_CAP_DEFAULT):
    """Dense generator matrix over the lexicographic state order.

    Filled from the main process's transition table, one vectorised pass
    per table row; targets are found by ``searchsorted`` on a key that
    preserves the lexicographic order.  Returns a read-only
    ``DenseGenerator`` whose ``csr`` equals ``sparse.csr_array`` of it
    entry for entry, built from the same rates.  Raises InvalidState if a
    positive-rate row leads out of the state space.
    """
    states = _state_array(scaling, cap)
    size = len(states)
    n1, c1 = scaling.n + 1, scaling.c2 + 1

    def key(s):
        return (s[:, 0] * n1 + s[:, 1]) * c1 + s[:, 2]

    keys = key(states)
    g = np.zeros((size, size))
    rows, cols, vals = [], [], []
    table = sim.PROCESSES["main"].table
    for (delta, *_), rates in zip(table, sim.rates("main", states.T, params, scaling)):
        src = np.flatnonzero(rates > 0)
        targets = states[src] + delta
        idx = np.minimum(np.searchsorted(keys, key(targets)), size - 1)
        # Compare whole rows, not keys: an out-of-range coordinate can carry
        # into a valid key (z = c2 + 1 has the key of (y_star, y + 1, 0)).
        missed = np.flatnonzero((states[idx] != targets).any(axis=1))
        if len(missed):
            i = missed[0]
            raise InvalidState(
                f"transition {delta} leads from {tuple(states[src[i]].tolist())} to "
                f"{tuple(targets[i].tolist())}, outside the state space"
            )
        g[src, idx] = rates[src]
        rows.append(src)
        cols.append(idx)
        vals.append(rates[src])
    diagonal = -g.sum(axis=1)
    # Set in place: an S x S temporary would add a generator's worth to
    # the peak memory.
    np.fill_diagonal(g, diagonal)
    every = np.arange(size)
    rows.append(every)
    cols.append(every)
    vals.append(diagonal)
    # COO -> CSR sorts each row's columns; no (row, column) pair repeats,
    # since every table row moves the state and no two share a delta.
    # int32 indices are what scipy picks for a dense input: a dense matrix
    # that fits in memory has far fewer than 2**31 rows.
    csr = sparse.csr_array(
        (np.concatenate(vals),
         (np.concatenate(rows, dtype=np.int32), np.concatenate(cols, dtype=np.int32))),
        shape=(size, size),
    )
    # An absorbing state's diagonal is 0 (or -0.0) and is not stored.
    csr.eliminate_zeros()
    g = g.view(DenseGenerator)
    g.csr = csr
    g.flags.writeable = False
    return g


def _csr(g):
    """The CSR form of ``g``: carried from the build, else converted."""
    if isinstance(g, DenseGenerator) and g.csr is not None:
        return g.csr
    return sparse.csr_array(g, dtype=float)


def stationary_distribution(g):
    """Solve pi @ g = 0 with sum(pi) = 1 by a sparse linear solve.

    ``g`` may be a dense ndarray or any ``scipy.sparse`` array; it is
    solved in CSR form, the carried one for a ``build_generator`` result.
    The normalization equation replaces the last column equation.  Raises NotIrreducible when the positive-rate graph
    is not strongly connected (degenerate corners such as p=0 drain the
    chain into a trap) and SingularSystem when the solve fails or leaves
    a residual above 1e-10.
    """
    g = _csr(g)
    size = g.shape[0]
    if size == 1:
        return np.array([1.0])
    # A generator's diagonal is <= 0, so g > 0 keeps only the off-diagonal rates.
    if connected_components(g > 0, connection="strong")[0] != 1:
        raise NotIrreducible("the rate graph is not strongly connected")
    a = sparse.vstack([g.T[:-1], np.ones((1, size))], format="csc")
    b = np.zeros(size)
    b[-1] = 1.0
    # Minimum degree on a^T + a fills in less than the default COLAMD: 2-3x
    # faster from 3,721 to 72,541 states.
    pi = spsolve(a, b, permc_spec="MMD_AT_PLUS_A")
    # A singular factorisation yields NaN, which every comparison below lets through.
    if not np.isfinite(pi).all():
        raise SingularSystem("stationary solve is singular")
    residual = float(np.max(np.abs(pi @ g)))
    if residual > 1e-10:
        raise SingularSystem(f"stationary residual {residual:.3e} exceeds 1e-10")
    if pi.min() < -1e-9:
        raise SingularSystem(f"stationary solve produced mass {pi.min():.3e} < 0")
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum()


def stationary_moments(pi, scaling, cap=STATE_CAP_DEFAULT):
    """(E[y_star]/n, E[y]/n, E[z]/n, P(y_star > 0)) under ``pi``."""
    states = _state_array(scaling, cap).astype(float)
    mean = pi @ states / scaling.n
    p_block = float(pi[states[:, 0] > 0].sum())
    return (float(mean[0]), float(mean[1]), float(mean[2]), p_block)


def _transient_from(step, lam, dist, t, tol):
    if lam * t > 700.0:
        half = _transient_from(step, lam, dist, t / 2, tol / 2)
        return _transient_from(step, lam, half, t / 2, tol / 2)
    weight = math.exp(-lam * t)
    acc = weight * dist
    covered = weight
    v = dist
    k = 0
    while covered < 1.0 - tol:
        k += 1
        v = v + step @ v
        weight *= lam * t / k
        acc = acc + weight * v
        covered += weight
    return acc


def transient_distribution(g, init, t, tol=1e-12):
    """Distribution at time t via uniformization.

    ``g`` may be a dense ndarray or any ``scipy.sparse`` array; a
    ``build_generator`` result is solved on its carried CSR form.  ``init``
    may be a state index (point-mass start) or a probability vector over
    the enumeration order.  The jump kernel is I + g/lam with lam = 1.01 x
    the largest exit rate, applied as a sparse matvec; the Poisson mixture
    is truncated once its tail mass drops below tol.  Long horizons are
    split recursively so the Poisson weights never underflow.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    g = _csr(g)
    size = g.shape[0]
    init = np.asarray(init)
    if init.ndim == 0:
        dist = np.zeros(size)
        dist[int(init)] = 1.0
    else:
        dist = init.astype(float)
        if dist.shape != (size,):
            raise ValueError("initial distribution length must match the generator")
    lam = 1.01 * float(-g.diagonal().min())
    if lam <= 0.0 or t == 0.0:
        return dist
    # v @ (I + g/lam) = v + (g/lam)^T @ v
    return _transient_from((g.T / lam).tocsr(), lam, dist, float(t), tol)


def write_stationary_csv(pi, scaling, fp, cap=STATE_CAP_DEFAULT):
    """CSV export `y_star,y,z,prob` in enumeration order."""
    fp.write("y_star,y,z,prob\n")
    for (y_star, y, z), prob in zip(_state_array(scaling, cap).tolist(), pi):
        fp.write(f"{y_star},{y},{z},{float(prob)!r}\n")
