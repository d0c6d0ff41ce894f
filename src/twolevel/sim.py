"""Exact jump-chain simulation of the network and its two auxiliary variants.

States are integer vectors; holding times are exponential in the total
enabled rate and the next transition is drawn proportionally to its rate
(Gillespie's direct method), which reproduces the continuous-time law
exactly.  All randomness comes from numpy's PCG64 generator seeded
explicitly; a run is a pure function of (parameters, seed).

Each process is one table in ``model.PROCESSES``, the only statement of its
rates and jumps.  ``rates`` evaluates it, on numbers or on arrays, for the
oracle's generator; ``fluid`` reads its drift from it.
``simulate``, ``simulate_aux_saturated`` and ``simulate_aux_noblock`` draw
the random numbers in Python and hand each block to the process's function
in the compiled library (``native``), generated from the same table;
``residual_sup``, ``grid_sup`` (``rescale``'s grid and a sup distance in one
pass, with no rescaled path), ``window_summary`` (the certificates' window
rows, maxima, minimum and time averages in one pass) and
``write_trajectory_csv`` run there too.  They and ``rescale`` take the
``Trajectory``: it carries its checked parameters and scale.

Each jump takes two uniforms u, u' from the stream: the holding time is
-log1p(-u) / total (an Exp(1) variate by inversion) and the transition is
the first whose cumulative rate exceeds u' * total.  The loops draw them
in blocks sized to the run: ``_CHUNK`` jumps first, then the jumps that
the run's mean pace so far needs to reach ``horizon``, plus a margin, at
most ``_MAX_BLOCK``.  Jump k takes uniforms 2k and 2k+1 whatever the
block sizes, so they never change a run.  The loop records each jump's
table row; after the run, the process's walk in the library, generated from
the same table, writes the state rows from those codes as the running sum
of their rows' deltas.  The straight-line loops of ``tests/sim_reference.py``
draw in fixed blocks of ``_CHUNK`` jumps and replay every run bit for bit,
and its ``states`` is the numpy rebuild that the walk replaced.

A run makes at most ``max_events`` jumps.  No block draws past jump
``max_events + 1``; a run that makes that jump comes back flagged
``truncated`` with its first ``max_events`` jumps, a bit-for-bit prefix of
the uncapped run that ends before ``horizon``.
"""

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import model, native
from .errors import DomainError, InvalidState
from .skorokhod import SampledPath, whole_steps

MAX_EVENTS_DEFAULT = 10_000_000
# Jumps in a run's first block of random draws (two uniforms each), and the
# fewest in a later block.
_CHUNK = 1024
# The most jumps in one block: 2**20 jumps take 24 MiB of draws.
_MAX_BLOCK = 1 << 20


@dataclass(frozen=True)
class Trajectory:
    """One run of ``process`` under ``params`` at ``scaling``: right-continuous path.

    ``states`` holds one row of the process's ``columns`` per time in ``times``,
    row 0 being the initial state at t=0, and consecutive rows differ by
    exactly one transition (the simulators record its table row, and the
    library's walk rebuilds the rows from the table's deltas after the run).
    When the event cap was hit, ``truncated`` is set and the rows stop at the
    cap, before ``horizon``.  Construction makes the times float64 and the
    states int64, both contiguous, and refuses other shapes (InvalidState)
    and a process or parameters it does not know.
    """

    process: str
    times: np.ndarray
    states: np.ndarray
    horizon: float
    seed: int
    params: model.ModelParams
    scaling: model.ScalingParams
    absorbed: bool = False
    truncated: bool = False

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=float)
        states = np.ascontiguousarray(self.states, dtype=np.int64)
        if times.ndim != 1 or not len(times) or states.shape != (len(times), len(self.columns)):
            raise InvalidState(f"{self.process} run with columns {self.columns}, times of shape "
                               f"{times.shape} and states of shape {states.shape}")
        model.validate(self.params, self.scaling)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    columns = property(lambda self: _process(self.process).columns)

    @property
    def num_events(self):
        return len(self.times) - 1


def _process(name):
    try:
        return model.PROCESSES[name]
    except KeyError:
        raise DomainError("process", f"process must be one of {tuple(model.PROCESSES)}") from None


def _constants(params, scaling):
    """The names other than state columns that a table expression may use."""
    return dict(p=params.p, mu01=params.mu01, mu11=params.mu11, mu02=params.mu02,
                n=scaling.n, c2=scaling.c2)


@functools.lru_cache(maxsize=None)
def _rates_code(table, fields=3):
    """The tuple of every row's ``(coefficient) * (factor) * (guard)``, compiled; with
    ``fields=1``, of every row's coefficient."""
    rows = (" * ".join(f"({e})" for e in row[1:1 + fields] if e is not None) for row in table)
    return compile(f"({', '.join(rows)},)", "<rates>", "eval")


def _coefficients(spec, params, scaling, fields=1):
    """Each row's coefficient (``fields=2``: times its factor at 0), the C functions' ``a``."""
    names = dict.fromkeys(spec.columns, 0) | _constants(params, scaling)
    return np.array(eval(_rates_code(spec.table, fields), {"__builtins__": {}}, names), dtype=float)


def rates(process, x, params, scaling):
    """The rate of every table row of ``process`` at ``x``, as a tuple in table order.

    ``x`` holds the state columns as Python numbers or as numpy arrays (one
    entry per state); a disabled row's rate is 0.  The expressions are
    compiled from the table in ``model.PROCESSES`` when that table is first met.
    """
    spec = _process(process)
    names = dict(zip(spec.columns, x), **_constants(params, scaling))
    return eval(_rates_code(spec.table), {"__builtins__": {}}, names)


def _check_run(horizon, max_events, seed):
    """Refuse a seed or event cap that is not an integer (a bool is not), a cap below 1,
    a horizon that is negative, infinite or NaN, or a seed < 0."""
    for name, value in (("seed", seed), ("max_events", max_events)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(name, f"{name} must be an integer, got {value!r}")
    if seed < 0:
        raise DomainError("seed", f"seed must be >= 0, got {seed}")
    if max_events < 1:
        raise DomainError("max_events", f"max_events must be at least 1, got {max_events}")
    if not 0 <= horizon < math.inf:
        raise DomainError("horizon", f"horizon must be finite and >= 0, got {horizon!r}")


def _rows(walk, init, codes):
    """One state row per jump time: ``init``, then each code's row delta added in turn, by
    the process's ``walk`` in the library."""
    rows = np.empty((len(codes) + 1, len(init)), dtype=np.int64)
    rows[0] = init
    walk(codes.ctypes.data, len(codes), rows.ctypes.data)
    return rows


def _draws(rng, count):
    """Random numbers for ``count`` jumps: (Exp(1) variates, the block of uniforms).

    Jump k takes uniforms 2k and 2k+1 of one ``rng.random(2 * count)``
    block: the first becomes the Exp(1) variate -log1p(-u) (inversion), the
    second picks the transition.
    """
    u = rng.random(2 * count)
    return -np.log1p(-u[0::2]), u


def _loop(process, spec, library):
    """The simulator loop of ``process``: draws in Python, jumps in the C of ``library()``."""
    symbol = native.LOOP_NAMES[process]

    def run(init, params, scaling, horizon, seed, max_events=MAX_EVENTS_DEFAULT):
        """Run the process from ``init`` up to ``horizon`` with the given seed."""
        model.validate(params, scaling)
        spec.check(init, scaling)
        _check_run(horizon, max_events, seed)
        lib = library()
        jumps, walk = getattr(lib, symbol), getattr(lib, f"{symbol}_states")
        a = _coefficients(spec, params, scaling)
        x, clock, done = np.array(init, dtype=np.int64), np.zeros(1), np.zeros(1, dtype=np.int64)
        fixed = (x.ctypes.data, clock.ctypes.data, a.ctypes.data, scaling.n, scaling.c2, horizon)
        times, codes = np.zeros(_CHUNK + 1), np.empty(_CHUNK, dtype=np.int8)
        rng = np.random.default_rng(seed)
        m, status, count = 0, native.USED_UP, _CHUNK
        while status == native.USED_UP and m <= max_events:
            count = min(count, _MAX_BLOCK, max_events + 1 - m)
            if m + count > len(codes):
                codes.resize(max(m + count, 2 * len(codes)), refcheck=False)
                times.resize(len(codes) + 1, refcheck=False)
            exps, u = _draws(rng, count)
            status = jumps(*fixed, exps.ctypes.data, u.ctypes.data, count,
                           times[m + 1:].ctypes.data, codes[m:].ctypes.data, done.ctypes.data)
            m += int(done[0])
            t = float(clock[0])
            if t > 0:
                # The jumps the mean pace so far needs to reach the horizon, plus a margin.
                count = max(_CHUNK, int(min((horizon - t) * m / t, _MAX_BLOCK)) + 128)
        truncated = m > max_events
        m = min(m, max_events)
        times.resize(m + 1, refcheck=False)
        codes.resize(m, refcheck=False)
        return Trajectory(process, times, _rows(walk, init, codes), horizon, seed, params,
                          scaling, absorbed=status == native.ABSORBED and not truncated,
                          truncated=truncated)

    run.__name__ = run.__qualname__ = symbol
    return run


# Bound to the tables as they are at import, as ``native.library`` is.
_MAIN = model.PROCESSES["main"]
simulate, simulate_aux_saturated, simulate_aux_noblock = (
    _loop(name, model.PROCESSES[name], native.library) for name in native.LOOP_NAMES)


def simulate_process(process, init, params, scaling, horizon, seed,
                     max_events=MAX_EVENTS_DEFAULT):
    """Run ``process`` (a key of ``model.PROCESSES``) with its simulator loop.

    The loop is looked up on this module at call time, so a wrapper
    installed on the module attribute sees every dispatched run.
    """
    _process(process)
    return globals()[native.LOOP_NAMES[process]](init, params, scaling, horizon, seed, max_events)


def grid_points(horizon, grid_dt):
    """How many grid times k*grid_dt, k >= 0, lie in [0, horizon] (with 1e-9 steps of slack)."""
    if not 0 < grid_dt < math.inf:
        raise InvalidState(f"grid_dt must be finite and > 0, got {grid_dt!r}")
    return whole_steps(horizon, grid_dt) + 1


def rescale(traj, grid_dt):
    """Sample the trajectory divided by its n on the uniform grid k*grid_dt.

    Right-continuous: the value at a grid time is the state of the last
    jump at or before it.  A truncated run, which stops before its
    horizon, is refused.
    """
    if traj.truncated:
        raise InvalidState("rescaling needs the path up to the horizon, not a truncated run")
    grid = grid_dt * np.arange(grid_points(traj.horizon, grid_dt))
    idx = np.searchsorted(traj.times, grid, side="right") - 1
    values = traj.states[idx].astype(float) / traj.scaling.n
    return SampledPath(0.0, grid_dt, values)


def grid_sup(traj, grid_dt, reference, window_starts):
    """Per window start, the sup of |run / n - reference| at the grid times k*grid_dt at
    or after it: the run as ``rescale`` samples it, its last ``reference.shape[-1]`` columns
    against one row, or a row per grid time (rows past the horizon are not read); a NaN
    gives NaN.  One pass over the jumps in the compiled library, with no rescaled path.
    """
    if traj.truncated:
        raise InvalidState("a grid distance needs the path up to the horizon, not a truncated run")
    points, cols = grid_points(traj.horizon, grid_dt), len(traj.columns)
    ref, starts = (np.ascontiguousarray(a, dtype=float) for a in (reference, window_starts))
    if ref.ndim > 2 or not 0 < ref.shape[-1] <= cols or ref.ndim == 2 and len(ref) < points:
        raise InvalidState(f"reference of shape {ref.shape} for {points} times and {cols} columns")
    if starts.ndim != 1 or not np.all(starts <= (points - 1) * grid_dt):
        raise DomainError("window_starts", f"no grid time at or after a start of {starts.tolist()}")
    times, states, sup = traj.times, traj.states, np.zeros(len(starts))
    native.library().grid_sup(*(a.ctypes.data for a in (times, states, ref, starts, sup)),
                              len(times), cols, traj.scaling.n, points,
                              ref.shape[-1] * (ref.ndim - 1), ref.shape[-1], len(starts), grid_dt)
    return sup


class WindowSummary(NamedTuple):
    """Per window [start, horizon] of a main run, a list with an entry per window start:
    ``held``, the index of the row held at the start; ``max_y_star`` and ``max_z``, the
    largest y_star and z from that row on; ``min_occupancy``, the least y_star + y from it
    on; ``average``, the time average of y_star / n over the window (None unless asked for).
    """

    held: list
    max_y_star: list
    max_z: list
    min_occupancy: list
    average: list


def window_summary(traj, window_starts, averages=False):
    """The certificates' statistics of a main run on each window [start, horizon]: one
    ``WindowSummary``, from one pass over the rows in the compiled library.  Each average
    equals numpy's ``np.sum`` of the rows' (y_star / n) * (time in the window), over the
    window's length, bit for bit.  A run with a row where y_star > 0 and z > 0 (blocked
    operators and idle specialists at once) is refused.
    """
    if traj.process != "main":
        raise InvalidState("window statistics are defined for the main process")
    if traj.truncated:
        raise InvalidState("window statistics need the path up to the horizon, not a truncated run")
    if not traj.times[-1] < traj.horizon:
        raise InvalidState(f"a run with a row at {traj.times[-1]!r}, not before its horizon "
                           f"{traj.horizon!r}")
    starts = np.ascontiguousarray(window_starts, dtype=float)
    if starts.ndim != 1 or not all(0 <= s < traj.horizon for s in starts.tolist()):
        raise DomainError("window_starts", f"windows must start in [0, horizon = "
                                           f"{traj.horizon!r}), got {starts.tolist()}")
    out = np.empty((len(starts), 4), dtype=np.int64)
    avg = np.empty(len(starts)) if averages else None
    bad = native.library().window_summary(
        traj.times.ctypes.data, traj.states.ctypes.data, len(traj.times), traj.scaling.n,
        traj.horizon, starts.ctypes.data, len(starts), out.ctypes.data,
        None if avg is None else avg.ctypes.data)
    if bad >= 0:
        raise InvalidState(f"trajectory (seed {traj.seed}) has blocked operators and idle "
                           "specialists at once")
    return WindowSummary(*out.T.tolist(), None if avg is None else avg.tolist())


def residual_sup(traj):
    """Exact sup over [0, horizon] of |path / n - start - compensator| per coordinate.

    The compensator integrates the drift of the run's own rates at its own n,
    constant between jumps, exactly.  The residual is then linear in t between
    jumps, so the supremum is attained at jump times (left or right limit) or
    at the horizon.  It runs in the compiled library, in C generated from the main table.
    """
    if traj.process != "main":
        raise InvalidState("martingale residuals are defined for the main process")
    if traj.truncated:
        raise InvalidState("martingale residuals need the full event list, not a truncated run")
    a, sup, scaling = _coefficients(_MAIN, traj.params, traj.scaling), np.zeros(3), traj.scaling
    native.library().residual_sup(traj.states.ctypes.data, traj.times.ctypes.data, len(traj.times),
                                  a.ctypes.data, scaling.n, scaling.c2, traj.horizon,
                                  sup.ctypes.data)
    return sup


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
    """Write the run as CSV: time with 9 significant digits, then the counts.

    The rows, Python's ``"%.9g" + ",%d" * columns`` in any locale, come from the
    compiled library: exact integer digits, ``snprintf`` only outside 1e-14..1e9.
    """
    fp.write("t," + ",".join(traj.columns) + "\n")
    cols, rows = len(traj.columns), 1 << 14
    out = np.empty(rows * (17 + 21 * cols), dtype=np.uint8)
    fmt = native.library().format_trajectory_rows
    for lo in range(0, len(traj.times), rows):
        times, states = traj.times[lo:lo + rows], traj.states[lo:lo + rows]
        size = fmt(times.ctypes.data, states.ctypes.data, len(times), cols, out.ctypes.data,
                   out.size)
        if size < 0:
            raise RuntimeError("the compiled library could not format the trajectory rows")
        fp.write(out[:size].tobytes().decode("ascii"))
