"""Hand-written reference for the main process's transitions.

Written independently of the transition tables in ``twolevel.sim``, so the
tests that compare the tables (and the oracle generator derived from them)
against it check two separate statements of the model, not one against
itself.
"""

import numpy as np

from twolevel import enumerate_states


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
    """Dense generator built state by state from ``rate_clauses``."""
    states = enumerate_states(scaling)
    index = {s: i for i, s in enumerate(states)}
    g = np.zeros((len(states), len(states)))
    for i, state in enumerate(states):
        for target, rate in rate_clauses(state, params, scaling):
            g[i, index[target]] += rate
        g[i, i] = -g[i].sum()
    return g
