"""Exact ground truth on small instances.

Enumerates the full state space and builds the generator matrix once, in
CSR form, from the main transition table.  Callers see it as a dense S x S
array on demand-zero pages: only the pages that hold a nonzero are resident,
also once the whole array has been read, but a copy of it, or arithmetic on
it, is fully resident.  The array carries the CSR form so that the stationary
and transient solves never re-scan the dense matrix.  Everything here is
brute force on purpose: it exists to check the simulator and the closed
forms, not to scale.
"""

import math
import mmap

import numpy as np

from . import model, sim
from .errors import DomainError, InvalidState, NotIrreducible, SingularSystem, TooLarge

# The dense array callers see spans S * S * 8 bytes of address space: 11,585
# states make 1 GiB.  Only its pages that hold a nonzero are resident (about
# 65 MiB there), but a copy of it, or arithmetic on it, is all 1 GiB.  The CSR
# form it is made from holds about five nonzeros a row (0.2 MiB at 3,721
# states), and the solves work on that.
STATE_CAP_DEFAULT = 11_585


def state_space_size(scaling):
    """|S| = (n+1)(c2+1) states with y_star=0 plus n(n+1)/2 with y_star>0; checks n, c2 first."""
    model.validate(None, scaling)
    n, c2 = scaling.n, scaling.c2
    return (n + 1) * (c2 + 1) + n * (n + 1) // 2


def _state_array(scaling):
    """All states (y_star, y, z) with y_star+y <= n, z <= c2, y_star*z = 0, as int64 rows in
    lexicographic order.  Sized by ``state_space_size``, so a scale it refuses raises its
    DomainError, and past ``STATE_CAP_DEFAULT`` states TooLarge with the size, before any
    allocation."""
    n, c2 = scaling.n, scaling.c2
    size = state_space_size(scaling)
    if size > STATE_CAP_DEFAULT:
        raise TooLarge(size, STATE_CAP_DEFAULT)
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


class DenseGenerator(np.ndarray):
    """A read-only dense generator that carries its CSR form as ``csr``.

    Only ``build_generator`` sets ``csr``.  Every array derived from one
    (a transpose, slice, copy or unpickled array) has ``csr = None``, so a
    carried form always describes the array it rides on.
    """

    def __array_finalize__(self, obj):
        self.csr = None


def build_generator(params, scaling):
    """Generator matrix over the lexicographic state order, built once as a ``csr_array``.

    One vectorised pass per row of the main process's transition table finds
    the targets by ``searchsorted`` on a key that keeps the lexicographic
    order; a diagonal entry is minus the exit rate, summed in table order as
    the simulator loops sum it.  Returns a read-only ``DenseGenerator`` equal
    to the CSR's ``toarray()`` bit for bit, carrying it as ``csr``.  The array
    lies on a private anonymous mapping into which only the stored entries are
    written, so only the pages that hold a nonzero become resident (17 of
    106 MiB at 3,721 states); the untouched pages read as the kernel's shared
    zero page.  A copy of it, or arithmetic on it, is fully resident.  On a
    host whose transparent-huge-page mode is ``always`` the kernel may back the
    mapping with huge pages, and the array is then about as resident as a
    zero-filled one.  Parameters that ``model.validate`` refuses raise its
    DomainError first; a positive-rate row that leads out of the state space
    raises InvalidState.
    """
    model.validate(params, scaling)
    states = _state_array(scaling)
    # Imported here, after the size check: scipy.sparse takes about 0.4 s to import.
    from scipy import sparse

    size = len(states)
    n1, c1 = scaling.n + 1, scaling.c2 + 1

    def key(s):
        return (s[:, 0] * n1 + s[:, 1]) * c1 + s[:, 2]

    keys = key(states)
    diagonal = np.zeros(size)
    rows, cols, vals = [], [], []
    table = model.PROCESSES["main"].table
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
        rows.append(src)
        cols.append(idx)
        vals.append(rates[src])
        diagonal -= rates
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
    # An absorbing state's diagonal is 0 and is not stored.
    csr.eliminate_zeros()
    # Zeros that are never written stay the kernel's zero page.
    g = np.frombuffer(mmap.mmap(-1, size * size * 8, flags=mmap.MAP_PRIVATE)).reshape(size, size)
    g[np.repeat(np.arange(size), np.diff(csr.indptr)), csr.indices] = csr.data
    g = g.view(DenseGenerator)
    g.csr = csr
    g.flags.writeable = False
    return g


def _csr(g):
    """The CSR form of ``g``: carried from the build, else converted."""
    from scipy import sparse

    if isinstance(g, DenseGenerator) and g.csr is not None:
        return g.csr
    return sparse.csr_array(g, dtype=float)


def _check_generator(g):
    """Refuse with DomainError("g") a CSR ``g`` that is not a generator: an empty or
    non-square shape, a non-finite stored value, a negative off-diagonal rate, or a row
    whose sum is further than 1e-9 x max(1, its exit rate) from 0.  Reads the stored
    entries only."""
    size = g.shape[0]
    if not 0 < size == g.shape[1]:
        raise DomainError("g", f"a generator must be a non-empty square matrix, got shape "
                               f"{g.shape}")
    if not np.isfinite(g.data).all():
        raise DomainError("g", "a generator's entries must be finite")
    row = np.repeat(np.arange(size), np.diff(g.indptr))
    rates = np.where(g.indices != row, g.data, 0.0)
    if (rates < 0).any():
        raise DomainError("g", "a generator's off-diagonal rates must be >= 0")
    exits = np.bincount(row, weights=rates, minlength=size)
    sums = np.bincount(row, weights=g.data, minlength=size)
    bad = np.flatnonzero(np.abs(sums) > 1e-9 * np.maximum(exits, 1.0))
    if len(bad):
        raise DomainError("g", f"a generator's rows must sum to 0, row {bad[0]} sums to "
                               f"{sums[bad[0]]:.3e}")


def stationary_distribution(g):
    """Solve pi @ g = 0 with sum(pi) = 1 by a sparse linear solve.

    ``g`` may be a dense ndarray or any ``scipy.sparse`` array; it is
    solved in CSR form, the carried one for a ``build_generator`` result.
    The last state's mass is pinned to 1 and its balance equation dropped;
    pi is that solution, normalised.  Its accuracy is absolute, not
    relative: a mass below about 1e-16 of the largest is rounding noise (at
    p = 0.05, all mu = 3, n = c2 = 40 the all-blocked state's mass of
    1.1e-105 comes back as 3.5e-19).  Raises ``DomainError("g")`` when ``g``
    is not a generator (``_check_generator``), NotIrreducible when the
    positive-rate graph is not strongly connected (degenerate corners such
    as p=0 drain the chain into a trap) and SingularSystem when the solve
    fails or leaves a residual above 1e-10.
    """
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import spsolve

    g = _csr(g)
    _check_generator(g)
    size = g.shape[0]
    if size == 1:
        return np.array([1.0])
    # A generator's diagonal is <= 0, so g > 0 keeps only the off-diagonal rates.
    if connected_components(g > 0, connection="strong")[0] != 1:
        raise NotIrreducible("the rate graph is not strongly connected")
    # pi[-1] = 1 turns columns j < S-1 of pi @ g = 0 into
    # sum_{i < S-1} g[i, j] pi[i] = -g[-1, j].
    b = -g[[size - 1], :-1].toarray()[0]
    # Minimum degree on a^T + a beats COLAMD here: 10 against 12 ms at 3,721 states.
    pi = np.append(spsolve(g[:-1, :-1].T, b, permc_spec="MMD_AT_PLUS_A"), 1.0)
    total = pi.sum()
    # NaN from a singular factorisation, or a sum past the float range, passes every check below.
    if not math.isfinite(total):
        raise SingularSystem("stationary solve is singular")
    pi /= total
    residual = float(np.max(np.abs(pi @ g)))
    if residual > 1e-10:
        raise SingularSystem(f"stationary residual {residual:.3e} exceeds 1e-10")
    if pi.min() < -1e-9:
        raise SingularSystem(f"stationary solve produced mass {pi.min():.3e} < 0")
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum()


def _check_distribution(field, dist, size):
    """``dist`` as a float array, refused with DomainError(field) unless it is a
    length-``size`` vector that is finite, non-negative and of mass 1 within 1e-9."""
    dist = np.array(dist, dtype=float)
    if dist.shape != (size,):
        raise DomainError(field, f"{field} must be a vector of length {size}, "
                                 f"got shape {dist.shape}")
    if not ((dist >= 0).all() and abs(dist.sum() - 1.0) <= 1e-9):  # false for NaN, inf
        raise DomainError(field, f"{field} must be finite, non-negative and of mass 1 within "
                                 f"1e-9, got mass {dist.sum():g}")
    return dist


def stationary_moments(pi, scaling):
    """(E[y_star]/n, E[y]/n, E[z]/n, P(y_star > 0)) under ``pi``.

    ``pi`` must be a distribution over the states in enumeration order: any
    other vector raises ``DomainError("pi")``; a scale ``model.validate`` refuses raises its error.
    """
    pi = _check_distribution("pi", pi, state_space_size(scaling))
    states = _state_array(scaling).astype(float)
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


def transient_distribution(g, init, t):
    """Distribution at time t via uniformization.

    ``g`` may be a dense ndarray or any ``scipy.sparse`` array; a
    ``build_generator`` result is solved on its carried CSR form.  ``init``
    may be an integer state index (point-mass start) or a probability vector
    over the enumeration order, finite, non-negative and of mass 1 within
    1e-9; any other raises ``DomainError("init")``, and a ``g`` that is not a
    generator ``DomainError("g")``.  The jump kernel is I + g/lam with
    lam = 1.01 x the largest exit rate, applied as a sparse matvec; the
    Poisson mixture is truncated once its tail mass drops below 1e-12.  Long
    horizons are split recursively so the Poisson weights never underflow.
    """
    if not 0 <= t < math.inf:
        raise DomainError("t", f"t must be finite and >= 0, got {t!r}")
    size = g.shape[0]
    init = np.asarray(init)
    if init.ndim == 0:
        if init.dtype.kind not in "iu" or not 0 <= init < size:  # 2.7 or True is no state
            raise DomainError("init", f"a start state index must be an integer in [0, {size}), "
                                      f"got {init}")
        dist = np.zeros(size)
        dist[int(init)] = 1.0
    else:
        dist = _check_distribution("init", init, size)
    g = _csr(g)
    _check_generator(g)
    lam = 1.01 * float(-g.diagonal().min())
    if lam <= 0.0 or t == 0.0:
        return dist
    # v @ (I + g/lam) = v + (g/lam)^T @ v
    return _transient_from((g.T / lam).tocsr(), lam, dist, float(t), 1e-12)
