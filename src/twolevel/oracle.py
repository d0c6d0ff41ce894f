"""Exact ground truth on small instances.

Enumerates the full state space, builds the dense generator matrix, and
solves for stationary and transient distributions on its sparse (CSR)
form.  Everything here is brute force on purpose: it exists to check the
simulator and the closed forms, not to scale.
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
# sets the peak memory: the solves work on a CSR copy of it, and build,
# stationary and two transients together peaked 6 MiB above the build
# alone at 3,721 states (216 vs 210 MiB resident) and 15 MiB above it at
# 8,181 states (629 vs 614 MiB).
STATE_CAP_DEFAULT = 11_585


def state_space_size(scaling):
    """|S| = (n+1)(c2+1) states with y_star=0 plus n(n+1)/2 with y_star>0."""
    n, c2 = scaling.n, scaling.c2
    return (n + 1) * (c2 + 1) + n * (n + 1) // 2


def enumerate_states(scaling, cap=STATE_CAP_DEFAULT):
    """All states (y_star, y, z) with y_star+y <= n, z <= c2, y_star*z = 0.

    Lexicographically ordered.  Raises TooLarge with the computed size if
    the instance exceeds ``cap``.
    """
    size = state_space_size(scaling)
    if size > cap:
        raise TooLarge(size, cap)
    n, c2 = scaling.n, scaling.c2
    states = []
    for y_star in range(n + 1):
        for y in range(n - y_star + 1):
            if y_star == 0:
                for z in range(c2 + 1):
                    states.append(MicroState(0, y, z))
            else:
                states.append(MicroState(y_star, y, 0))
    return states


def build_generator(params, scaling, cap=STATE_CAP_DEFAULT):
    """Dense generator matrix over the lexicographic state order.

    Filled from the main process's transition table, one vectorised pass
    per table row; targets are found by ``searchsorted`` on a key that
    preserves the lexicographic order.  Raises InvalidState if a
    positive-rate row leads out of the state space.
    """
    states = np.array(enumerate_states(scaling, cap), dtype=np.int64)
    n1, c1 = scaling.n + 1, scaling.c2 + 1

    def key(s):
        return (s[:, 0] * n1 + s[:, 1]) * c1 + s[:, 2]

    keys = key(states)
    g = np.zeros((len(states), len(states)))
    for delta, rate in sim.PROCESSES["main"].table:
        rates = rate(states.T, params, scaling)
        src = np.flatnonzero(rates > 0)
        targets = states[src] + delta
        idx = np.minimum(np.searchsorted(keys, key(targets)), len(keys) - 1)
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
    # Set in place: an S x S temporary would add a generator's worth to
    # the peak memory.
    np.fill_diagonal(g, -g.sum(axis=1))
    return g


def stationary_distribution(g):
    """Solve pi @ g = 0 with sum(pi) = 1 by a sparse linear solve.

    ``g`` may be a dense ndarray or any ``scipy.sparse`` array; it is
    solved in CSR form.  The normalization equation replaces the last
    column equation.  Raises NotIrreducible when the positive-rate graph
    is not strongly connected (degenerate corners such as p=0 drain the
    chain into a trap) and SingularSystem when the solve fails or leaves
    a residual above 1e-10.
    """
    g = sparse.csr_array(g, dtype=float)
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
    states = np.array(enumerate_states(scaling, cap), dtype=float)
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

    ``g`` may be a dense ndarray or any ``scipy.sparse`` array.  ``init``
    may be a state index (point-mass start) or a probability vector over
    the enumeration order.  The jump kernel is I + g/lam with lam = 1.01 x
    the largest exit rate, applied as a sparse matvec; the Poisson mixture
    is truncated once its tail mass drops below tol.  Long horizons are
    split recursively so the Poisson weights never underflow.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    g = sparse.csr_array(g, dtype=float)
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
    for state, prob in zip(enumerate_states(scaling, cap), pi):
        fp.write(f"{state.y_star},{state.y},{state.z},{float(prob)!r}\n")
