"""Exact ground truth on small instances.

Enumerates the full state space, builds the dense generator matrix, and
solves for stationary and transient distributions.  Everything here is
brute force on purpose: it exists to check the simulator and the closed
forms, not to scale.
"""

import math

import numpy as np

from . import sim
from .errors import InvalidState, NotIrreducible, SingularSystem, TooLarge
from .sim import MicroState

# A dense generator has S * S * 8 bytes: 11,585 states make 1 GiB.  The
# stationary and transient solves hold several more S x S arrays (the
# transposed copy the stationary solve factorises, the uniformization
# kernel and its temporaries): build, stationary and transient together
# peaked at about 4.5x the generator at 3,721 states, so a larger cap
# would not fit an 8 GB machine.
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


def _strongly_connected(g):
    adj = (g > 0) & ~np.eye(len(g), dtype=bool)
    for mat in (adj, adj.T):
        seen = np.zeros(len(g), dtype=bool)
        seen[0] = True
        frontier = [0]
        while frontier:
            nxt = mat[frontier].any(axis=0) & ~seen
            frontier = np.nonzero(nxt)[0].tolist()
            seen |= nxt
        if not seen.all():
            return False
    return True


def stationary_distribution(g):
    """Solve pi @ g = 0 with sum(pi) = 1 by a dense linear solve.

    The normalization equation replaces the last column equation.  Raises
    NotIrreducible when the positive-rate graph is not strongly connected
    (degenerate corners such as p=0 drain the chain into a trap) and
    SingularSystem when the solve fails or leaves a residual above 1e-10.
    """
    g = np.asarray(g, dtype=float)
    if len(g) == 1:
        return np.array([1.0])
    if not _strongly_connected(g):
        raise NotIrreducible("the rate graph is not strongly connected")
    a = g.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(len(g))
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
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


def _transient_from(g, dist, t, tol):
    rates = -np.diag(g)
    lam = 1.01 * float(rates.max())
    if lam <= 0.0 or t == 0.0:
        return dist
    if lam * t > 700.0:
        half = _transient_from(g, dist, t / 2, tol / 2)
        return _transient_from(g, half, t / 2, tol / 2)
    kernel = np.eye(len(g)) + g / lam
    weight = math.exp(-lam * t)
    acc = weight * dist
    covered = weight
    v = dist
    k = 0
    while covered < 1.0 - tol:
        k += 1
        v = v @ kernel
        weight *= lam * t / k
        acc = acc + weight * v
        covered += weight
    return acc


def transient_distribution(g, init, t, tol=1e-12):
    """Distribution at time t via uniformization.

    ``init`` may be a state index (point-mass start) or a probability
    vector over the enumeration order.  The jump kernel is I + g/lam
    with lam = 1.01 x the largest exit rate; the Poisson mixture is
    truncated once its tail mass drops below tol.  Long horizons are
    split recursively so the Poisson weights never underflow.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    init = np.asarray(init)
    if init.ndim == 0:
        dist = np.zeros(len(g))
        dist[int(init)] = 1.0
    else:
        dist = init.astype(float)
        if dist.shape != (len(g),):
            raise ValueError("initial distribution length must match the generator")
    return _transient_from(np.asarray(g, dtype=float), dist, float(t), tol)


def write_stationary_csv(pi, scaling, fp, cap=STATE_CAP_DEFAULT):
    """CSV export `y_star,y,z,prob` in enumeration order."""
    fp.write("y_star,y,z,prob\n")
    for state, prob in zip(enumerate_states(scaling, cap), pi):
        fp.write(f"{state.y_star},{state.y},{state.z},{float(prob)!r}\n")
