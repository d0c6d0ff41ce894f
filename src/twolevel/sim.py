"""Exact jump-chain simulation of the network and its two auxiliary variants.

States are integer vectors; holding times are exponential in the total
enabled rate and the next transition is drawn proportionally to its rate
(Gillespie's direct method), which reproduces the continuous-time law
exactly.  All randomness comes from numpy's PCG64 generator seeded
explicitly; a run is a pure function of (parameters, seed).

Each process is one table in ``PROCESSES``, the only statement of its
rates and jumps.  ``rates`` evaluates it, on numbers or on arrays, for
``transitions``, ``step``, ``drift`` and the oracle's generator;
``loop_source`` generates a simulator loop from it, compiled on import as
``simulate``, ``simulate_aux_saturated`` and ``simulate_aux_noblock``.

Each jump takes two uniforms u, u' from the stream: the holding time is
-log1p(-u) / total (an Exp(1) variate by inversion) and the transition is
the first whose cumulative rate exceeds u' * total.  The loops draw them
in blocks of ``2 * _CHUNK``.  Each loop branches on the guard case of the
state (for ``main``: z > 0, or z = 0 with y* > 0, or z = 0 with y* = 0),
sums only the rates enabled there, and walks a short cumulative chain.
Per jump it records only the time and a code, the index of the table row
that fired; the states are rebuilt afterwards as the running sum of the
codes' deltas.  ``step`` draws the same two uniforms per call, so a loop
of ``step`` calls replays a run bit for bit.

A run makes at most ``max_events`` jumps.  The loops test the cap when
they refill their block of draws; a run that would make more comes back
flagged ``truncated`` with its first ``max_events`` jumps, a bit-for-bit
prefix of the uncapped run that ends before ``horizon``.
"""

import functools
import itertools
import linecache
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, InvalidState
from .skorokhod import SampledPath

MAX_EVENTS_DEFAULT = 10_000_000
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
    state at t=0, and consecutive rows differ by exactly one transition
    (the simulators record its table row and rebuild the rows from the
    deltas).  When the event cap was hit, ``truncated`` is set and the rows
    stop at the cap, before ``horizon``.
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
    """One chain: state columns, transition table and state-space check.

    ``table`` is an ordered tuple of rows ``(delta, coefficient, factor,
    guard)``.  A row's index is the code a simulator loop records when it
    fires, and its delta is the only copy of that jump.  The other fields
    are Python expressions over the state columns and ``p, mu01, mu11,
    mu02, n, c2``: ``coefficient`` uses no column, ``factor`` may be None
    (a constant rate), and ``guard``, which may be None (always enabled),
    tests only whether columns are 0.  The rate is
    ``(coefficient) * (factor) * (guard)``, multiplied in that order;
    ``rates`` and the compiled loops, which hoist the coefficient and drop
    a guard known to hold, give the same floats.
    """

    columns: tuple
    table: tuple
    check: Callable


PROCESSES = {
    "main": Process(
        ("y_star", "y", "z"),
        (
            # level-1 completion into blocking: every specialist busy
            ((1, -1, 0), "mu01", "y", "z == 0"),
            # completion with handover: operator released / restarts class-0 work
            ((0, -1, -1), "(1 - p) * mu01", "y", "z > 0"),
            ((0, 0, -1), "p * mu01", "y", "z > 0"),
            # a free operator starts a class-0 call
            ((0, 1, 0), "p * mu11", "n - y_star - y", None),
            # specialist completion unblocks an operator: released / restarting
            ((-1, 0, 0), "(1 - p) * mu02 * c2", None, "y_star > 0"),
            ((-1, 1, 0), "p * mu02 * c2", None, "y_star > 0"),
            # a specialist finishes with no one blocked
            ((0, 0, 1), "mu02", "c2 - z", "y_star == 0"),
        ),
        check_state,
    ),
    # Every specialist always busy: state (y_star, y), no z.
    "aux-saturated": Process(
        ("y_star", "y"),
        (
            ((1, -1), "mu01", "y", None),
            ((-1, 0), "(1 - p) * mu02 * c2", None, "y_star > 0"),
            ((-1, 1), "p * mu02 * c2", None, "y_star > 0"),
            ((0, 1), "p * mu11", "n - y_star - y", None),
        ),
        _check_saturated,
    ),
    # No blocking: state (y, z); a handover that finds z = 0 is lost.
    "aux-noblock": Process(
        ("y", "z"),
        (
            ((-1, 0), "(1 - p) * mu01", "y", "z == 0"),
            ((-1, -1), "(1 - p) * mu01", "y", "z > 0"),
            ((0, -1), "p * mu01", "y", "z > 0"),
            ((1, 0), "p * mu11", "n - y", None),
            ((0, 1), "mu02", "c2 - z", None),
        ),
        _check_noblock,
    ),
}
# The module attribute each process's compiled simulator loop is bound to.
_LOOP_NAMES = {"main": "simulate", "aux-saturated": "simulate_aux_saturated",
               "aux-noblock": "simulate_aux_noblock"}


def _process(name):
    try:
        return PROCESSES[name]
    except KeyError:
        raise DomainError("process", f"process must be one of {tuple(PROCESSES)}") from None


@functools.lru_cache(maxsize=None)
def _rates_code(table):
    """The tuple of every row's ``(coefficient) * (factor) * (guard)``, compiled."""
    rows = (" * ".join(f"({e})" for e in row[1:] if e is not None) for row in table)
    return compile(f"({', '.join(rows)},)", "<rates>", "eval")


def rates(process, x, params, scaling):
    """The rate of every table row of ``process`` at ``x``, as a tuple in table order.

    ``x`` holds the state columns as Python numbers or as numpy arrays (one
    entry per state); a disabled row's rate is 0.  The expressions are
    compiled from the table in ``PROCESSES`` when that table is first met.
    """
    spec = _process(process)
    names = dict(zip(spec.columns, x), p=params.p, mu01=params.mu01, mu11=params.mu11,
                 mu02=params.mu02, n=scaling.n, c2=scaling.c2)
    return eval(_rates_code(spec.table), {"__builtins__": {}}, names)


def transitions(process, state, params, scaling):
    """All transitions with positive rate out of ``state``, in table order."""
    spec = _process(process)
    spec.check(state, scaling)
    values = rates(process, state, params, scaling)
    return [Transition(row[0], value) for row, value in zip(spec.table, values) if value > 0]


def drift(process, x, params, scaling):
    """Sum of delta * rate / n over the table: the density-dependent drift.

    ``x`` holds the state columns, as numbers or as arrays of equal
    length; the result has the columns on its last axis.
    """
    values = np.array(rates(process, x, params, scaling), dtype=float)
    deltas = np.array([row[0] for row in _process(process).table], dtype=float)
    return np.tensordot(values, deltas, (0, 0)) / scaling.n


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
    # Running sums in table order, the loops' cumulative rates; the last is the total.
    sums = list(itertools.accumulate(tr.rate for tr in enabled))
    exps, unis = _jump_draws(rng, 1)
    holding = exps[0] / sums[-1]
    u = unis[0] * sums[-1]
    chosen = next((tr for tr, acc in zip(enabled, sums) if u < acc), enabled[-1])
    nxt = tuple(a + b for a, b in zip(state, chosen.delta))
    return (holding, MicroState(*nxt) if process == "main" else nxt)


def _check_run(horizon, max_events):
    """Refuse an event cap below 1 or a horizon that is negative, infinite or NaN."""
    if max_events < 1:
        raise DomainError("max_events", f"max_events must be at least 1, got {max_events}")
    if not 0 <= horizon < math.inf:
        raise DomainError("horizon", f"horizon must be finite and >= 0, got {horizon!r}")


def _states(deltas, init, codes):
    """One state row per jump time: ``init``, then the running sum of the codes' ``deltas``."""
    rows = np.empty((len(codes) + 1, deltas.shape[1]), dtype=np.int64)
    rows[0] = init
    # Codes are row indices by construction; "clip" skips the buffered, checked copy.
    np.take(deltas, np.array(codes, dtype=np.intp), axis=0, out=rows[1:], mode="clip")
    return np.cumsum(rows, axis=0, out=rows)


def _cases(spec):
    """(guarded columns, reachable guard cases) of a process.

    The guarded columns are those the guards test, in the order the table
    first tests them.  A case maps each to 1 (positive) or 0; it is
    reachable if the process's own check passes a state that is 0 in every
    other column, at n = c2 = 1.
    """
    guarded = list(dict.fromkeys(v for row in spec.table if row[3] is not None
                                 for v in compile(row[3], "<guard>", "eval").co_names
                                 if v in spec.columns))
    probe = SimpleNamespace(n=1, c2=1)
    cases = []
    for bits in itertools.product((1, 0), repeat=len(guarded)):
        case = dict(zip(guarded, bits))
        try:
            spec.check(tuple(case.get(c, 0) for c in spec.columns), probe)
        except InvalidState:
            continue
        cases.append(case)
    return guarded, cases


def _case_lines(spec, case):
    """One guard case of a loop body: its enabled rows' cumulative rates, the draws, the jump."""
    rows = [(i, row) for i, row in enumerate(spec.table)
            if row[3] is None or eval(row[3], {"__builtins__": {}}, case)]
    lines, acc = [], None
    for j, (i, row) in enumerate(rows):
        rate = f"a{i}" if row[2] is None else f"a{i} * ({row[2]})"
        name = "total" if j == len(rows) - 1 else f"r{i}"
        lines.append(f"{name} = {rate}" if acc is None else f"{name} = {acc} + {rate}")
        acc = name
    lines += ["if total <= 0.0:", "    absorbed = True", "    break",
              "if k == _CHUNK:", "    if len(codes) > max_events:", "        break",
              "    exps, unis = _jump_draws(rng, _CHUNK)",
              "    k = 0",
              "t += exps[k] / total", "if t >= horizon:", "    break",
              "u = unis[k] * total", "k += 1"]
    for j, (i, row) in enumerate(rows):
        jump = [f"{c} {'+' if d > 0 else '-'}= {abs(d)}"
                for c, d in zip(spec.columns, row[0]) if d] + [f"c_app({i})"]
        if len(rows) == 1:
            lines += jump
            continue
        test = "else:" if j == len(rows) - 1 else f"{'el' * (j > 0)}if u < r{i}:"
        lines += [test] + [f"    {line}" for line in jump]
    return lines


def _branch(spec, guarded, cases):
    """Nested ``if column:`` tests down to one guard case each, then its lines."""
    if len(cases) == 1:
        return _case_lines(spec, cases[0])
    col = next(v for v in guarded if len({c[v] for c in cases}) == 2)
    on, off = [c for c in cases if c[col]], [c for c in cases if not c[col]]
    return ([f"if {col}:"] + [f"    {line}" for line in _branch(spec, guarded, on)]
            + ["else:"] + [f"    {line}" for line in _branch(spec, guarded, off)])


def loop_source(process):
    """Python source of the simulator loop of ``process``, generated from its table.

    The loop hoists each row's coefficient and branches on the reachable
    guard cases; a case's sums skip only rows whose rate there is 0.0, so
    they equal the sums over the whole table bit for bit.
    """
    spec = _process(process)
    guarded, cases = _cases(spec)
    cols = ", ".join(spec.columns)
    lines = [
        f"def {_LOOP_NAMES[process]}(init, params, scaling, horizon, seed,"
        " max_events=MAX_EVENTS_DEFAULT):",
        f'    """Run the {process} process from ({cols}) up to ``horizon`` with the given seed."""',
        "    check(init, scaling)",
        "    _check_run(horizon, max_events)",
        "    rng = np.random.default_rng(seed)",
        "    p, mu01, mu11, mu02 = params.p, params.mu01, params.mu11, params.mu02",
        "    n, c2 = scaling.n, scaling.c2",
        *(f"    a{i} = {row[1]}" for i, row in enumerate(spec.table)),
        f"    ({cols},) = init",
        "    times, codes = [0.0], []",
        "    t_app, c_app = times.append, codes.append",
        "    t = 0.0",
        "    k = _CHUNK",
        "    absorbed = False",
        "    while True:",
        *(f"        {line}" for line in _branch(spec, guarded, cases)),
        "        t_app(t)",
        "    truncated = len(codes) > max_events",
        "    if truncated:",
        "        del times[max_events + 1:], codes[max_events:]",
        "        absorbed = False",
        f"    return Trajectory({process!r}, COLUMNS, np.array(times, dtype=float),",
        "                      _states(DELTAS, init, codes), horizon, seed, n, c2,",
        "                      absorbed=absorbed, truncated=truncated)",
    ]
    return "\n".join(lines) + "\n"


def _compile_loop(process):
    """The simulator loop of ``process``, compiled from its current table."""
    spec = _process(process)
    source, filename = loop_source(process), f"<sim:{process}>"
    # Registered so that tracebacks show the generated lines.
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = dict(globals(), check=spec.check, COLUMNS=spec.columns,
                     DELTAS=np.array([row[0] for row in spec.table], dtype=np.int64))
    exec(compile(source, filename, "exec"), namespace)
    return namespace[_LOOP_NAMES[process]]


simulate = _compile_loop("main")
simulate_aux_saturated = _compile_loop("aux-saturated")
simulate_aux_noblock = _compile_loop("aux-noblock")


def simulate_process(process, init, params, scaling, horizon, seed,
                     max_events=MAX_EVENTS_DEFAULT):
    """Run ``process`` (a key of PROCESSES) with its compiled simulator loop.

    The loop is looked up on this module at call time, so a wrapper
    installed on the module attribute sees every dispatched run.
    """
    _process(process)
    return globals()[_LOOP_NAMES[process]](init, params, scaling, horizon, seed, max_events)


def rescale(traj, scaling, grid_dt):
    """Sample the trajectory divided by n on the uniform grid k*grid_dt.

    Right-continuous: the value at a grid time is the state of the last
    jump at or before it.  A truncated run, which stops before its
    horizon, is refused.
    """
    if traj.truncated:
        raise InvalidState("rescaling needs the path up to the horizon, not a truncated run")
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
