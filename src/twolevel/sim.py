"""Exact jump-chain simulation of the network and its two auxiliary variants.

States are integer vectors; holding times are exponential in the total
enabled rate and the next transition is drawn proportionally to its rate
(Gillespie's direct method), which reproduces the continuous-time law
exactly.  All randomness comes from numpy's PCG64 generator seeded
explicitly; a run is a pure function of (parameters, seed).

Each jump takes two uniforms u, u' from the stream: the holding time is
-log1p(-u) / total (an Exp(1) variate by inversion) and the transition is
the first whose cumulative rate exceeds u' * total.  The ``simulate*``
loops draw them in blocks of ``2 * _CHUNK``.  Each loop branches on
the guard case of the state (for ``main``: z > 0, or z = 0 with y* > 0,
or z = 0 with y* = 0), computes only the rates enabled there, and walks a
short cumulative chain; a disabled rate would add 0.0, so the sums equal
those over the whole table bit for bit.  Per jump a loop records only the
time and a code, the index of the ``PROCESSES`` table row that fired; the
states are rebuilt afterwards as the running sum of the codes' table
deltas.  ``step`` draws the same two uniforms per call, so a loop of
``step`` calls replays a run bit for bit.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, InvalidState
from .skorokhod import SampledPath

MAX_EVENTS_DEFAULT = 10_000_000
_FALLBACK_POINTS = 1 << 20
# Jumps per block of random draws (two uniforms each).
_CHUNK = 1024


class MicroState(NamedTuple):
    y_star: int
    y: int
    z: int


class Transition(NamedTuple):
    delta: tuple
    rate: float


@dataclass(frozen=True)
class Trajectory:
    """One simulation run: right-continuous piecewise-constant path.

    ``states`` holds one row per recorded time, row 0 being the initial
    state at t=0.  For untruncated runs consecutive rows differ by exactly
    one transition (the simulators record its table row and rebuild the
    rows from the deltas); when the event cap was hit, ``truncated`` is
    set and later rows are uniform-grid samples instead of raw jumps.
    """

    process: str
    columns: tuple
    times: np.ndarray
    states: np.ndarray
    horizon: float
    seed: int
    n: int
    c2: int
    absorbed: bool = False
    truncated: bool = False

    @property
    def initial(self):
        row = tuple(int(v) for v in self.states[0])
        return MicroState(*row) if self.process == "main" else row

    @property
    def events(self):
        return [
            (float(t), tuple(int(v) for v in row))
            for t, row in zip(self.times[1:], self.states[1:])
        ]

    @property
    def num_events(self):
        return len(self.times) - 1


def check_state(state, scaling):
    """Raise InvalidState unless (y_star, y, z) lies in the main state space."""
    y_star, y, z = state
    if y_star < 0 or y < 0 or z < 0:
        raise InvalidState(f"negative coordinate in {state}")
    if y_star + y > scaling.n:
        raise InvalidState(f"y_star + y exceeds n={scaling.n} in {state}")
    if z > scaling.c2:
        raise InvalidState(f"z exceeds c2={scaling.c2} in {state}")
    if y_star > 0 and z > 0:
        raise InvalidState(f"blocked operators with idle specialists in {state}")


def _check_saturated(state, scaling):
    y_star, y = state
    if y_star < 0 or y < 0 or y_star + y > scaling.n:
        raise InvalidState(f"state {tuple(state)} outside the saturated state space")


def _check_noblock(state, scaling):
    y, z = state
    if y < 0 or y > scaling.n or z < 0 or z > scaling.c2:
        raise InvalidState(f"state {tuple(state)} outside the no-blocking state space")


class Process(NamedTuple):
    """One chain: state columns, transition table, state-space check, simulator.

    ``table`` is an ordered tuple of ``(delta, rate)`` rows; a row's index
    is the code the simulator loop records when it fires, and its delta is
    the only copy of that jump.  ``rate(x, params, scaling)`` takes the
    state columns ``x`` as Python numbers or as numpy arrays (one entry per
    state) and is 0 where the clause is disabled.  Each product is written
    in the order the hand-written simulator loop uses, so both give the
    same floats.  ``simulator`` names that loop; it is looked up in this
    module at call time, so a wrapper installed on the module attribute
    sees every dispatched run.
    """

    columns: tuple
    table: tuple
    check: Callable
    simulator: str


PROCESSES = {
    "main": Process(
        ("y_star", "y", "z"),
        (
            # level-1 completion into blocking: every specialist busy
            ((1, -1, 0), lambda x, m, s: m.mu01 * x[1] * (x[2] == 0)),
            # completion with handover: operator released / restarts class-0 work
            ((0, -1, -1), lambda x, m, s: (1 - m.p) * m.mu01 * x[1] * (x[2] > 0)),
            ((0, 0, -1), lambda x, m, s: m.p * m.mu01 * x[1] * (x[2] > 0)),
            # a free operator starts a class-0 call
            ((0, 1, 0), lambda x, m, s: m.p * m.mu11 * (s.n - x[0] - x[1])),
            # specialist completion unblocks an operator: released / restarting
            ((-1, 0, 0), lambda x, m, s: (1 - m.p) * m.mu02 * s.c2 * (x[0] > 0)),
            ((-1, 1, 0), lambda x, m, s: m.p * m.mu02 * s.c2 * (x[0] > 0)),
            # a specialist finishes with no one blocked
            ((0, 0, 1), lambda x, m, s: m.mu02 * (s.c2 - x[2]) * (x[0] == 0)),
        ),
        check_state,
        "simulate",
    ),
    # Every specialist always busy: state (y_star, y), no z.
    "aux-saturated": Process(
        ("y_star", "y"),
        (
            ((1, -1), lambda x, m, s: m.mu01 * x[1]),
            ((-1, 0), lambda x, m, s: (1 - m.p) * m.mu02 * s.c2 * (x[0] > 0)),
            ((-1, 1), lambda x, m, s: m.p * m.mu02 * s.c2 * (x[0] > 0)),
            ((0, 1), lambda x, m, s: m.p * m.mu11 * (s.n - x[0] - x[1])),
        ),
        _check_saturated,
        "simulate_aux_saturated",
    ),
    # No blocking: state (y, z); a handover that finds z = 0 is lost.
    "aux-noblock": Process(
        ("y", "z"),
        (
            ((-1, 0), lambda x, m, s: (1 - m.p) * m.mu01 * x[0] * (x[1] == 0)),
            ((-1, -1), lambda x, m, s: (1 - m.p) * m.mu01 * x[0] * (x[1] > 0)),
            ((0, -1), lambda x, m, s: m.p * m.mu01 * x[0] * (x[1] > 0)),
            ((1, 0), lambda x, m, s: m.p * m.mu11 * (s.n - x[0])),
            ((0, 1), lambda x, m, s: m.mu02 * (s.c2 - x[1])),
        ),
        _check_noblock,
        "simulate_aux_noblock",
    ),
}


def _process(name):
    try:
        return PROCESSES[name]
    except KeyError:
        raise DomainError("process", f"process must be one of {tuple(PROCESSES)}") from None


def transitions(process, state, params, scaling):
    """All transitions with positive rate out of ``state``, in table order."""
    spec = _process(process)
    spec.check(state, scaling)
    out = []
    for delta, rate in spec.table:
        value = rate(state, params, scaling)
        if value > 0:
            out.append(Transition(delta, value))
    return out


def drift(process, x, params, scaling):
    """Sum of delta * rate / n over the table: the density-dependent drift.

    ``x`` holds the state columns, as numbers or as arrays of equal
    length; the result has the columns on its last axis.
    """
    table = _process(process).table
    rates = np.array([rate(x, params, scaling) for _, rate in table], dtype=float)
    deltas = np.array([delta for delta, _ in table], dtype=float)
    return np.tensordot(rates, deltas, (0, 0)) / scaling.n


def _jump_draws(rng, count):
    """Random numbers for ``count`` jumps: (standard exponentials, uniforms).

    Jump k takes uniforms 2k and 2k+1 of one ``rng.random(2 * count)``
    block: the first becomes the Exp(1) variate -log1p(-u) (inversion),
    the second picks the transition.  Both come back as Python float lists.
    """
    u = rng.random(2 * count)
    return (-np.log1p(-u[0::2])).tolist(), u[1::2].tolist()


def step(process, state, rng, params, scaling):
    """One jump from ``state``: (exponential holding time, next state).

    Draws the same two uniforms per jump as the ``simulate*`` loops, so a
    loop of ``step`` calls replays their runs bit for bit.  With nothing
    enabled the absorbing marker (math.inf, state) is returned and nothing
    is drawn.
    """
    enabled = transitions(process, state, params, scaling)
    if not enabled:
        return (math.inf, state)
    total = 0.0
    for tr in enabled:
        total += tr.rate
    exps, unis = _jump_draws(rng, 1)
    holding = exps[0] / total
    u = unis[0] * total
    acc = 0.0
    chosen = enabled[-1]
    for tr in enabled:
        acc += tr.rate
        if u < acc:
            chosen = tr
            break
    nxt = tuple(a + b for a, b in zip(state, chosen.delta))
    return (holding, MicroState(*nxt) if process == "main" else nxt)


class _Recorder:
    """Jump times and table-row codes; past ``max_events`` events only a grid sample is kept.

    The simulator loops append each jump's time to ``times`` and the index
    of the ``PROCESSES`` table row that fired to ``codes`` themselves, and
    call ``cap`` between blocks of draws.  The states are not recorded:
    ``states`` rebuilds them from ``base``, the state at ``times[0]``, and
    the running sum of the codes' table deltas.  Once more than
    ``max_events`` events are held, the rows become right-continuous
    samples on the grid k * horizon / min(max_events, 2**20), and from then
    on each ``cap`` moves the new raw rows onto the grid, keeping the last
    one, whose state holds until the next jump and becomes ``base``.  The
    rows equal those of a check after every event; the lists overrun the
    cap by less than a block in between.
    """

    def __init__(self, process, state, horizon, max_events):
        if max_events < 1:
            raise DomainError("max_events", f"max_events must be at least 1, got {max_events}")
        if not 0 <= horizon < math.inf:
            raise DomainError("horizon", f"horizon must be finite and >= 0, got {horizon!r}")
        self.deltas = np.array([delta for delta, _ in PROCESSES[process].table], dtype=np.int64)
        self.base = np.array(state, dtype=np.int64)
        self.times = [0.0]
        self.codes = []
        self.horizon = horizon
        self.max_events = max_events
        self.truncated = False
        self.grid_times = []
        self.grid_states = []
        self.dt = None
        self.next_tau = None

    def states(self):
        """One state row per held time: ``base``, then the running sum of the code deltas."""
        rows = np.empty((len(self.times), len(self.base)), dtype=np.int64)
        rows[0] = self.base
        # Codes are row indices by construction; "clip" skips the buffered, checked copy.
        np.take(self.deltas, np.array(self.codes, dtype=np.intp), axis=0, out=rows[1:],
                mode="clip")
        return np.cumsum(rows, axis=0, out=rows)

    def cap(self):
        head = []
        if not self.truncated:
            if len(self.times) <= self.max_events:
                return
            self.truncated = True
            self.dt = self.horizon / min(self.max_events, _FALLBACK_POINTS)
            head = np.arange(0.0, self.times[self.max_events], self.dt).tolist()
            self.next_tau = len(head) * self.dt
        self._sample(head + self._grid_until(self.times[-1]))

    def _grid_until(self, stop, closed=False):
        """Grid times from ``next_tau`` on, below ``stop`` (or equal, if closed)."""
        taus, tau = [], self.next_tau
        while tau < stop or (closed and tau == stop):
            taus.append(tau)
            tau += self.dt
        self.next_tau = tau
        return taus

    def _sample(self, taus):
        idx = np.searchsorted(self.times, taus, side="right") - 1
        states = self.states()
        self.grid_times.extend(taus)
        self.grid_states.append(states[idx])
        self.base = states[-1].copy()  # not a view that keeps ``states`` alive
        # Trimmed in place: the loops hold the lists' bound appends.
        del self.times[:-1]
        del self.codes[:]

    def finish(self):
        self.cap()
        if self.truncated:
            self._sample(self._grid_until(self.horizon, closed=True))
            return np.array(self.grid_times, dtype=float), np.concatenate(self.grid_states)
        return np.array(self.times, dtype=float), self.states()


def simulate(init, params, scaling, horizon, seed, max_events=MAX_EVENTS_DEFAULT):
    """Run the main process from ``init`` up to ``horizon`` with the given seed."""
    check_state(init, scaling)
    rng = np.random.default_rng(seed)
    p, mu01, mu11, mu02 = params.p, params.mu01, params.mu11, params.mu02
    n, c2 = scaling.n, scaling.c2
    # Products hoisted in the order the table multiplies, so rates match it bit for bit.
    q01, p01, p11 = (1 - p) * mu01, p * mu01, p * mu11
    q02c, p02c, mu02c = (1 - p) * mu02 * c2, p * mu02 * c2, mu02 * c2
    y_star, y, z = init
    rec = _Recorder("main", init, horizon, max_events)
    t_app, c_app = rec.times.append, rec.codes.append
    t = 0.0
    k = _CHUNK
    absorbed = False
    while True:
        # y_star * z == 0, so three guard cases; a, b, c are cumulative rates.
        if z:
            a = q01 * y
            b = a + p01 * y
            c = b + p11 * (n - y)
            total = c + mu02 * (c2 - z)
        elif y_star:
            a = mu01 * y
            b = a + p11 * (n - y_star - y)
            c = b + q02c
            total = c + p02c
        else:
            a = mu01 * y
            b = a + p11 * (n - y)
            total = b + mu02c
        if total <= 0.0:
            absorbed = True
            break
        if k == _CHUNK:
            rec.cap()
            exps, unis = _jump_draws(rng, _CHUNK)
            k = 0
        t += exps[k] / total
        if t >= horizon:
            break
        u = unis[k] * total
        k += 1
        if z:
            if u < a:
                y -= 1
                z -= 1
                c_app(1)
            elif u < b:
                z -= 1
                c_app(2)
            elif u < c:
                y += 1
                c_app(3)
            else:
                z += 1
                c_app(6)
        elif u < a:
            y_star += 1
            y -= 1
            c_app(0)
        elif u < b:
            y += 1
            c_app(3)
        elif not y_star:
            z += 1
            c_app(6)
        elif u < c:
            y_star -= 1
            c_app(4)
        else:
            y_star -= 1
            y += 1
            c_app(5)
        t_app(t)
    times, states = rec.finish()
    return Trajectory(
        "main", ("y_star", "y", "z"), times, states, horizon, seed, n, c2,
        absorbed=absorbed, truncated=rec.truncated,
    )


def simulate_aux_saturated(init, params, scaling, horizon, seed, max_events=MAX_EVENTS_DEFAULT):
    """Run the always-saturated variant from (y_star, y)."""
    _check_saturated(init, scaling)
    y_star, y = init
    rng = np.random.default_rng(seed)
    p, mu01, mu11, mu02 = params.p, params.mu01, params.mu11, params.mu02
    n, c2 = scaling.n, scaling.c2
    p11, q02c, p02c = p * mu11, (1 - p) * mu02 * c2, p * mu02 * c2
    rec = _Recorder("aux-saturated", init, horizon, max_events)
    t_app, c_app = rec.times.append, rec.codes.append
    t = 0.0
    k = _CHUNK
    absorbed = False
    while True:
        a = mu01 * y
        if y_star:
            b = a + q02c
            c = b + p02c
            total = c + p11 * (n - y_star - y)
        else:
            total = a + p11 * (n - y)
        if total <= 0.0:
            absorbed = True
            break
        if k == _CHUNK:
            rec.cap()
            exps, unis = _jump_draws(rng, _CHUNK)
            k = 0
        t += exps[k] / total
        if t >= horizon:
            break
        u = unis[k] * total
        k += 1
        if u < a:
            y_star += 1
            y -= 1
            c_app(0)
        elif not y_star:
            y += 1
            c_app(3)
        elif u < b:
            y_star -= 1
            c_app(1)
        elif u < c:
            y_star -= 1
            y += 1
            c_app(2)
        else:
            y += 1
            c_app(3)
        t_app(t)
    times, states = rec.finish()
    return Trajectory(
        "aux-saturated", ("y_star", "y"), times, states, horizon, seed, n, c2,
        absorbed=absorbed, truncated=rec.truncated,
    )


def simulate_aux_noblock(init, params, scaling, horizon, seed, max_events=MAX_EVENTS_DEFAULT):
    """Run the no-blocking variant from (y, z)."""
    _check_noblock(init, scaling)
    y, z = init
    rng = np.random.default_rng(seed)
    p, mu01, mu11, mu02 = params.p, params.mu01, params.mu11, params.mu02
    n, c2 = scaling.n, scaling.c2
    q01, p01, p11, mu02c = (1 - p) * mu01, p * mu01, p * mu11, mu02 * c2
    rec = _Recorder("aux-noblock", init, horizon, max_events)
    t_app, c_app = rec.times.append, rec.codes.append
    t = 0.0
    k = _CHUNK
    absorbed = False
    while True:
        # a, b, c are cumulative rates; with z == 0 only rows 0, 3 and 4 are enabled.
        a = q01 * y
        if z:
            b = a + p01 * y
            c = b + p11 * (n - y)
            total = c + mu02 * (c2 - z)
        else:
            c = a + p11 * (n - y)
            total = c + mu02c
        if total <= 0.0:
            absorbed = True
            break
        if k == _CHUNK:
            rec.cap()
            exps, unis = _jump_draws(rng, _CHUNK)
            k = 0
        t += exps[k] / total
        if t >= horizon:
            break
        u = unis[k] * total
        k += 1
        if u < a:
            y -= 1
            if z:
                z -= 1
                c_app(1)
            else:
                c_app(0)
        elif z and u < b:
            z -= 1
            c_app(2)
        elif u < c:
            y += 1
            c_app(3)
        else:
            z += 1
            c_app(4)
        t_app(t)
    times, states = rec.finish()
    return Trajectory(
        "aux-noblock", ("y", "z"), times, states, horizon, seed, n, c2,
        absorbed=absorbed, truncated=rec.truncated,
    )


def simulate_process(process, init, params, scaling, horizon, seed,
                     max_events=MAX_EVENTS_DEFAULT):
    """Run ``process`` (a key of PROCESSES) with its hand-written simulator loop."""
    run = globals()[_process(process).simulator]
    return run(init, params, scaling, horizon, seed, max_events)


def rescale(traj, scaling, grid_dt):
    """Sample the trajectory divided by n on the uniform grid k*grid_dt.

    Right-continuous: the value at a grid time is the state of the last
    jump at or before it.
    """
    if grid_dt <= 0:
        raise InvalidState("grid_dt must be positive")
    npts = int(math.floor(traj.horizon / grid_dt + 1e-9)) + 1
    grid = grid_dt * np.arange(npts)
    idx = np.searchsorted(traj.times, grid, side="right") - 1
    values = traj.states[idx].astype(float) / scaling.n
    return SampledPath(0.0, grid_dt, values)


def _compensator_pieces(traj, params, scaling):
    """Per-interval table drifts and their prefix integrals for the main process."""
    if traj.process != "main":
        raise InvalidState("martingale residuals are defined for the main process")
    if traj.truncated:
        raise InvalidState("martingale residuals need the full event list, not a truncated run")
    g = drift("main", traj.states.T, params, scaling)
    gaps = np.diff(traj.times)
    prefix = np.zeros_like(g)
    np.cumsum(g[:-1] * gaps[:, None], axis=0, out=prefix[1:])
    coords = traj.states / scaling.n
    return coords, g, prefix


def martingale_residual(traj, params, scaling, grid_dt):
    """Rescaled path minus initial value minus exact drift integrals, on a grid.

    The drift integrands are constant between jumps, so the compensator is
    integrated exactly; the residuals shrink like 1/sqrt(n) and certify
    that the simulated jumps carry the advertised rates.
    """
    coords, g, prefix = _compensator_pieces(traj, params, scaling)
    npts = int(math.floor(traj.horizon / grid_dt + 1e-9)) + 1
    grid = grid_dt * np.arange(npts)
    idx = np.searchsorted(traj.times, grid, side="right") - 1
    comp = prefix[idx] + g[idx] * (grid - traj.times[idx])[:, None]
    residual = coords[idx] - coords[0] - comp
    return SampledPath(0.0, grid_dt, residual)


def residual_sup(traj, params, scaling):
    """Exact sup over [0, horizon] of |residual| per coordinate.

    Between jumps the residual is linear in t, so the supremum is attained
    at jump times (left or right limit) or at the horizon.
    """
    coords, g, prefix = _compensator_pieces(traj, params, scaling)
    right = coords - coords[0] - prefix
    left = coords[:-1] - coords[0] - prefix[1:]
    tail = coords[-1] - coords[0] - (prefix[-1] + g[-1] * (traj.horizon - traj.times[-1]))
    sup = np.max(np.abs(right), axis=0)
    if len(left):
        sup = np.maximum(sup, np.max(np.abs(left), axis=0))
    return np.maximum(sup, np.abs(tail))


def write_csv_rows(fp, row, times, values):
    """Write ``row % (t, *v)`` for each time and row of ``values``, in blocks.

    Blocks of 16,384 rows bound the Python lists and strings alive at once.
    """
    for lo in range(0, len(times), 1 << 14):
        block = slice(lo, lo + (1 << 14))
        fp.write("".join([
            row % (t, *v) for t, v in zip(times[block].tolist(), values[block].tolist())
        ]))


def write_trajectory_csv(traj, fp):
    """Write the run as CSV: time with 9 significant digits, then the counts."""
    fp.write("t," + ",".join(traj.columns) + "\n")
    write_csv_rows(fp, "%.9g" + ",%d" * len(traj.columns) + "\n", traj.times, traj.states)
