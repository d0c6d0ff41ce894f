"""Hand-written reference for the main process's transitions.

Written independently of the transition tables in ``twolevel.model`` and of
the oracle's enumeration, so the tests that compare the tables (and the
oracle generator derived from them) against it check two separate
statements of the model, not one against itself.
"""

import numpy as np


def all_states(scaling):
    """Every state (y_star, y, z) with y_star + y <= n, z <= c2 and y_star * z = 0, as
    tuples in lexicographic order, by nested loops."""
    n, c2 = scaling.n, scaling.c2
    return [(y_star, y, z)
            for y_star in range(n + 1)
            for y in range(n - y_star + 1)
            for z in (range(c2 + 1) if y_star == 0 else (0,))]


def rate_clauses(state, params, scaling):
    """(target, rate) pairs with positive rate out of ``state``."""
    y_star, y, z = state
    p, mu01, mu11, mu02 = params.p, params.mu01, params.mu11, params.mu02
    n, c2 = scaling.n, scaling.c2
    pairs = []
    if z == 0 and y > 0:
        pairs.append(((y_star + 1, y - 1, 0), mu01 * y))
    if z > 0 and y > 0:
        pairs.append(((y_star, y - 1, z - 1), (1 - p) * mu01 * y))
        pairs.append(((y_star, y, z - 1), p * mu01 * y))
    if y_star + y < n:
        pairs.append(((y_star, y + 1, z), p * mu11 * (n - y_star - y)))
    if y_star > 0:
        pairs.append(((y_star - 1, y, z), (1 - p) * mu02 * c2))
        pairs.append(((y_star - 1, y + 1, z), p * mu02 * c2))
    if y_star == 0 and z < c2:
        pairs.append(((y_star, y, z + 1), mu02 * (c2 - z)))
    return [(tgt, rate) for tgt, rate in pairs if rate > 0]


def reference_generator(params, scaling):
    """Dense generator built state by state from ``rate_clauses``.

    Each diagonal entry is minus the state's exit rate, its clauses' rates
    summed in clause order.
    """
    space = all_states(scaling)
    index = {s: i for i, s in enumerate(space)}
    g = np.zeros((len(space), len(space)))
    for i, state in enumerate(space):
        clauses = rate_clauses(state, params, scaling)
        for target, rate in clauses:
            g[i, index[target]] += rate
        g[i, i] = -sum(rate for _, rate in clauses)
    return g
