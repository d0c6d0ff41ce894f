"""Straight-line reference for the three ``sim.simulate*`` loops.

Each loop evaluates every rate clause on every jump, as the transition
tables state them, sums them in table order, and picks the transition with
the cumulative chain ``u < r1``, ``u < r1 + r2``, ...; it appends the full
state after each jump.  It takes the same two uniforms per jump as
``twolevel.sim``, drawn in fixed blocks of ``_CHUNK`` (1,024) jumps while
the loops there size their blocks to the run.  So the case-split loops,
which skip disabled clauses and record one table-row code per jump, must
return the same times and states bit for bit, and their equality shows
that block sizes do not change the stream.  No event cap: a run keeps
every jump.  ``states`` is the numpy rebuild of a run's rows from its
codes that the library's compiled walk replaced.
"""

import numpy as np

from twolevel.errors import InvalidState
from twolevel.experiments import _time_average
from twolevel.model import PROCESSES
from twolevel.sim import _CHUNK, WindowSummary, rates, rescale


def jump_draws(rng, count):
    """The draws of ``count`` jumps as Python float lists: (exponentials, picking uniforms).

    Jump k takes uniforms 2k and 2k+1 of one ``rng.random(2 * count)`` block:
    the first becomes the Exp(1) variate -log1p(-u) (inversion), the second
    picks the transition.
    """
    u = rng.random(2 * count)
    return (-np.log1p(-u[0::2])).tolist(), u[1::2].tolist()


def enabled(process, state, params, scaling):
    """The (delta, rate) pairs of the table rows with positive rate at ``state``, in
    table order, read off ``sim.rates``."""
    values = rates(process, state, params, scaling)
    return [(row[0], rate) for row, rate in zip(PROCESSES[process].table, values) if rate > 0]


def _result(times, cols):
    return np.array(times, dtype=float), np.column_stack(
        [np.array(c, dtype=np.int64) for c in cols])


def simulate_main(init, params, scaling, horizon, seed):
    """(times, states, absorbed) of the main process from (y_star, y, z)."""
    rng = np.random.default_rng(seed)
    p, mu01, mu11, mu02 = params.p, params.mu01, params.mu11, params.mu02
    n, c2 = scaling.n, scaling.c2
    q01, p01, p11 = (1 - p) * mu01, p * mu01, p * mu11
    q02c, p02c = (1 - p) * mu02 * c2, p * mu02 * c2
    y_star, y, z = init
    times, cols = [0.0], [[y_star], [y], [z]]
    t = 0.0
    k = _CHUNK
    absorbed = False
    while True:
        if z == 0:
            r1 = mu01 * y
            r2 = 0.0
            r3 = 0.0
        else:
            r1 = 0.0
            r2 = q01 * y
            r3 = p01 * y
        r4 = p11 * (n - y_star - y)
        if y_star > 0:
            r5 = q02c
            r6 = p02c
            r7 = 0.0
        else:
            r5 = 0.0
            r6 = 0.0
            r7 = mu02 * (c2 - z)
        total = r1 + r2 + r3 + r4 + r5 + r6 + r7
        if total <= 0.0:
            absorbed = True
            break
        if k == _CHUNK:
            exps, unis = jump_draws(rng, _CHUNK)
            k = 0
        t += exps[k] / total
        if t >= horizon:
            break
        u = unis[k] * total
        k += 1
        if u < r1:
            y_star += 1
            y -= 1
        elif u < r1 + r2:
            y -= 1
            z -= 1
        elif u < r1 + r2 + r3:
            z -= 1
        elif u < r1 + r2 + r3 + r4:
            y += 1
        elif u < r1 + r2 + r3 + r4 + r5:
            y_star -= 1
        elif u < r1 + r2 + r3 + r4 + r5 + r6:
            y_star -= 1
            y += 1
        else:
            z += 1
        times.append(t)
        for col, v in zip(cols, (y_star, y, z)):
            col.append(v)
    return (*_result(times, cols), absorbed)


def simulate_aux_saturated(init, params, scaling, horizon, seed):
    """(times, states, absorbed) of the always-saturated variant from (y_star, y)."""
    rng = np.random.default_rng(seed)
    p, mu01, mu11, mu02 = params.p, params.mu01, params.mu11, params.mu02
    n, c2 = scaling.n, scaling.c2
    p11, q02c, p02c = p * mu11, (1 - p) * mu02 * c2, p * mu02 * c2
    y_star, y = init
    times, cols = [0.0], [[y_star], [y]]
    t = 0.0
    k = _CHUNK
    absorbed = False
    while True:
        r1 = mu01 * y
        if y_star > 0:
            r2 = q02c
            r3 = p02c
        else:
            r2 = 0.0
            r3 = 0.0
        r4 = p11 * (n - y_star - y)
        total = r1 + r2 + r3 + r4
        if total <= 0.0:
            absorbed = True
            break
        if k == _CHUNK:
            exps, unis = jump_draws(rng, _CHUNK)
            k = 0
        t += exps[k] / total
        if t >= horizon:
            break
        u = unis[k] * total
        k += 1
        if u < r1:
            y_star += 1
            y -= 1
        elif u < r1 + r2:
            y_star -= 1
        elif u < r1 + r2 + r3:
            y_star -= 1
            y += 1
        else:
            y += 1
        times.append(t)
        for col, v in zip(cols, (y_star, y)):
            col.append(v)
    return (*_result(times, cols), absorbed)


def simulate_aux_noblock(init, params, scaling, horizon, seed):
    """(times, states, absorbed) of the no-blocking variant from (y, z)."""
    rng = np.random.default_rng(seed)
    p, mu01, mu11, mu02 = params.p, params.mu01, params.mu11, params.mu02
    n, c2 = scaling.n, scaling.c2
    q01, p01, p11 = (1 - p) * mu01, p * mu01, p * mu11
    y, z = init
    times, cols = [0.0], [[y], [z]]
    t = 0.0
    k = _CHUNK
    absorbed = False
    while True:
        if z == 0:
            r1 = q01 * y
            r2 = 0.0
            r3 = 0.0
        else:
            r1 = 0.0
            r2 = q01 * y
            r3 = p01 * y
        r4 = p11 * (n - y)
        r5 = mu02 * (c2 - z)
        total = r1 + r2 + r3 + r4 + r5
        if total <= 0.0:
            absorbed = True
            break
        if k == _CHUNK:
            exps, unis = jump_draws(rng, _CHUNK)
            k = 0
        t += exps[k] / total
        if t >= horizon:
            break
        u = unis[k] * total
        k += 1
        if u < r1:
            y -= 1
        elif u < r1 + r2:
            y -= 1
            z -= 1
        elif u < r1 + r2 + r3:
            z -= 1
        elif u < r1 + r2 + r3 + r4:
            y += 1
        else:
            z += 1
        times.append(t)
        for col, v in zip(cols, (y, z)):
            col.append(v)
    return (*_result(times, cols), absorbed)


def states(process, init, codes):
    """The numpy form of the library's state walk: ``init``, then the running sum of the
    table deltas of ``codes``, by ``np.take`` and ``np.cumsum``.  The compiled walk must
    return the same int64 rows."""
    deltas = np.array([row[0] for row in PROCESSES[process].table], dtype=np.int64)
    rows = np.empty((len(codes) + 1, deltas.shape[1]), dtype=np.int64)
    rows[0] = init
    np.take(deltas, np.array(codes, dtype=np.intp), axis=0, out=rows[1:])
    return np.cumsum(rows, axis=0, out=rows)


SIMULATORS = {
    "main": simulate_main,
    "aux-saturated": simulate_aux_saturated,
    "aux-noblock": simulate_aux_noblock,
}


def drift(process, x, params, scaling):
    """Sum of delta * rate / n over the table: the density-dependent drift.

    ``x`` holds the state columns, as numbers or as arrays of equal length;
    the result has the columns on its last axis.  The rates are the table's
    (``sim.rates``), then a ``tensordot`` with the deltas.
    """
    values = np.array(rates(process, x, params, scaling), dtype=float)
    deltas = np.array([row[0] for row in PROCESSES[process].table], dtype=float)
    return np.tensordot(values, deltas, (0, 0)) / scaling.n


def residual_sup(traj):
    """The numpy form of ``sim.residual_sup``: whole-array drift, compensator and limits.

    The drift is ``drift`` above at the run's own parameters and scale (the
    table's rates, then a ``tensordot`` with the deltas, over n); the
    compensator is the ``cumsum`` of drift * gap; the residual is taken at
    every right limit, every left limit and the horizon.  The compiled
    function must return the same floats.
    """
    scaling = traj.scaling
    g = drift("main", traj.states.T, traj.params, scaling)
    gaps = np.diff(traj.times)
    prefix = np.zeros_like(g)
    np.cumsum(g[:-1] * gaps[:, None], axis=0, out=prefix[1:])
    coords = traj.states / scaling.n
    right = coords - coords[0] - prefix
    left = coords[:-1] - coords[0] - prefix[1:]
    tail = coords[-1] - coords[0] - (prefix[-1] + g[-1] * (traj.horizon - traj.times[-1]))
    sup = np.max(np.abs(right), axis=0)
    if len(left):
        sup = np.maximum(sup, np.max(np.abs(left), axis=0))
    return np.maximum(sup, np.abs(tail))


def grid_sup(traj, grid_dt, reference, window_starts):
    """The numpy form of ``sim.grid_sup``, as the experiments once computed it.

    ``rescale`` samples the run on the grid; a reference with a row per grid
    point is compared row by row (each row's largest column difference, then
    a mask per window), one constant row with a mask per window and one
    ``max`` over the window's rows and the run's last columns.  The compiled
    function must return the same floats.
    """
    path = rescale(traj, grid_dt)
    ref = np.asarray(reference, dtype=float)
    values = path.values[:, path.values.shape[1] - ref.shape[-1]:]
    if ref.ndim == 2:
        diff = np.max(np.abs(values - ref), axis=1)
        return [float(diff[path.times >= t].max()) for t in window_starts]
    return [float(np.max(np.abs(values[path.times >= t] - ref))) for t in window_starts]


def window_summary(traj, window_starts, averages=False):
    """The numpy form of ``sim.window_summary``, as the certificates computed it before.

    Each window's row is ``searchsorted``'s; its maxima and minimum are whole-array
    reductions from that row on; its average is ``experiments._time_average`` of
    ``states[:, 0] / n``.  The compiled function must return the same numbers.
    """
    times, states = traj.times, traj.states
    if np.any((states[:, 0] > 0) & (states[:, 2] > 0)):
        raise InvalidState(f"trajectory (seed {traj.seed}) has blocked operators and idle "
                           "specialists at once")
    held = [max(0, int(np.searchsorted(times, s, side="right")) - 1) for s in window_starts]
    occupied = states[:, 0] + states[:, 1]
    return WindowSummary(
        held, [int(states[i:, 0].max()) for i in held], [int(states[i:, 2].max()) for i in held],
        [int(occupied[i:].min()) for i in held],
        [_time_average(times, states[:, 0] / traj.scaling.n, s, traj.horizon)
         for s in window_starts] if averages else None)
