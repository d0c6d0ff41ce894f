"""Exact jump-chain simulation of the network and its two auxiliary variants.

States are integer vectors; holding times are exponential in the total
enabled rate and the next transition is drawn proportionally to its rate
(Gillespie's direct method), which reproduces the continuous-time law
exactly.  All randomness comes from numpy's PCG64 generator seeded
explicitly; a run is a pure function of (parameters, seed).

Each process is one table in ``PROCESSES``, the only statement of its
rates and jumps.  ``rates`` evaluates it, on numbers or on arrays, for
``transitions``, ``step``, ``drift`` and the oracle's generator;
``loop_source`` generates a C function from it that runs a block of jumps,
and ``residual_source`` the compensator of ``residual_sup`` (main table).
``simulate``, ``simulate_aux_saturated`` and ``simulate_aux_noblock`` draw
the random numbers in Python and hand each block to that function.  The
three, the compensator, the row formatter of ``write_trajectory_csv`` and
the two halves of a Picard sweep (``fluid.gbar_functional``'s pass and
``skorokhod.solve_generalized``'s reflection) are compiled into one shared
library at the first use, never at import, with the system C compiler
(``cc``); it is kept in ``$XDG_CACHE_HOME/twolevel`` (default
``~/.cache/twolevel``), so later processes load it without compiling.
Without a compiler a run, a residual, a trajectory CSV or a Picard solve
raises ``BuildError``.

Each jump takes two uniforms u, u' from the stream: the holding time is
-log1p(-u) / total (an Exp(1) variate by inversion) and the transition is
the first whose cumulative rate exceeds u' * total.  The loops draw them
in blocks sized to the run: ``_CHUNK`` jumps first, then the jumps that
the run's mean pace so far needs to reach ``horizon``, plus a margin, at
most ``_MAX_BLOCK``.  Jump k takes uniforms 2k and 2k+1 whatever the
block sizes, so they never change a run.  Each C function branches on the
guard case of the state (for ``main``: z > 0, or z = 0 with y* > 0, or
z = 0 with y* = 0), sums only the rates enabled there, in table order and
in double precision with no fused multiply-add, and walks a short
cumulative chain.  Per jump it records only the time and a code, the index
of the table row that fired; the states are rebuilt afterwards as the
running sum of the codes' deltas.  ``step`` draws the same two uniforms
per call, so a loop of ``step`` calls replays a run bit for bit.

A run makes at most ``max_events`` jumps.  No block draws past jump
``max_events + 1``; a run that makes that jump comes back flagged
``truncated`` with its first ``max_events`` jumps, a bit-for-bit prefix of
the uncapped run that ends before ``horizon``.
"""

import contextlib
import ctypes
import functools
import hashlib
import itertools
import math
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .errors import BuildError, DomainError, InvalidState
from .skorokhod import SampledPath

MAX_EVENTS_DEFAULT = 10_000_000
# Jumps in a run's first block of random draws (two uniforms each), and the
# fewest in a later block.
_CHUNK = 1024
# The most jumps in one block: 2**20 jumps take 24 MiB of draws.
_MAX_BLOCK = 1 << 20


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
# The module attribute of each process's simulator loop, and the name of its C function.
_LOOP_NAMES = {"main": "simulate", "aux-saturated": "simulate_aux_saturated",
               "aux-noblock": "simulate_aux_noblock"}


def _process(name):
    try:
        return PROCESSES[name]
    except KeyError:
        raise DomainError("process", f"process must be one of {tuple(PROCESSES)}") from None


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


def _coefficients(spec, params, scaling):
    """Every table row's coefficient, in table order: the ``a`` the C functions take."""
    names = _constants(params, scaling)
    return np.array(eval(_rates_code(spec.table, 1), {"__builtins__": {}}, names), dtype=float)


def rates(process, x, params, scaling):
    """The rate of every table row of ``process`` at ``x``, as a tuple in table order.

    ``x`` holds the state columns as Python numbers or as numpy arrays (one
    entry per state); a disabled row's rate is 0.  The expressions are
    compiled from the table in ``PROCESSES`` when that table is first met.
    """
    spec = _process(process)
    names = dict(zip(spec.columns, x), **_constants(params, scaling))
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
    length; the result has the columns on its last axis.  Only the tests
    call it, pinning the tables to the fluid model.
    """
    values = np.array(rates(process, x, params, scaling), dtype=float)
    deltas = np.array([row[0] for row in _process(process).table], dtype=float)
    return np.tensordot(values, deltas, (0, 0)) / scaling.n


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


def _check_run(horizon, max_events, seed):
    """Refuse an event cap below 1, a horizon that is negative, infinite or NaN, or a seed < 0."""
    if seed < 0:
        raise DomainError("seed", f"seed must be >= 0, got {seed}")
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
    """One guard case of a jump, in C: its enabled rows' cumulative rates, the draws, the jump."""
    rows = [(i, row) for i, row in enumerate(spec.table)
            if row[3] is None or eval(row[3], {"__builtins__": {}}, case)]
    lines, acc = [], None
    for j, (i, row) in enumerate(rows):
        rate = f"a[{i}]" if row[2] is None else f"a[{i}] * ({row[2]})"
        name = "total" if j == len(rows) - 1 else f"r{i}"
        lines.append(f"double {name} = {rate if acc is None else f'{acc} + {rate}'};")
        acc = name
    lines += ["if (total <= 0.0) { status = ABSORBED; break; }",
              "t += e[k] / total;",
              "if (t >= horizon) { status = HORIZON; break; }",
              "double v = u[2 * k + 1] * total;"]
    for j, (i, row) in enumerate(rows):
        jump = " ".join([f"{c} {'+' if d > 0 else '-'}= {abs(d)};"
                         for c, d in zip(spec.columns, row[0]) if d] + [f"codes[k] = {i};"])
        test = "" if len(rows) == 1 else (
            "else " if j == len(rows) - 1 else f"{'else ' * (j > 0)}if (v < r{i}) ")
        lines.append(f"{test}{{ {jump} }}")
    return lines


def _branch(spec, guarded, cases):
    """Nested ``if (column)`` tests down to one guard case each, then its lines."""
    if len(cases) == 1:
        return _case_lines(spec, cases[0])
    col = next(v for v in guarded if len({c[v] for c in cases}) == 2)
    on, off = [c for c in cases if c[col]], [c for c in cases if not c[col]]
    return ([f"if ({col}) {{"] + [f"    {line}" for line in _branch(spec, guarded, on)]
            + ["} else {"] + [f"    {line}" for line in _branch(spec, guarded, off)] + ["}"])


def loop_source(process, spec=None):
    """C source of the simulator function of ``process`` (or of ``spec``), from its table.

    It runs up to ``count`` jumps from the state ``x`` at time ``*clock``;
    jump k takes ``e[k]`` and ``u[2k + 1]``, and records its time and table
    row.  It branches on the reachable guard cases; a case's sums skip only
    rows whose rate there is 0.0, so they equal the whole table's sums.
    """
    spec = spec or _process(process)
    guarded, cases = _cases(spec)
    lines = [
        f"int {_LOOP_NAMES[process]}(int64_t *x, double *clock, const double *a,"
        " int64_t n, int64_t c2, double horizon,",
        "        const double *e, const double *u, int64_t count,"
        " double *times, int8_t *codes, int64_t *done)",
        "{",
        *(f"    int64_t {c} = x[{i}];" for i, c in enumerate(spec.columns)),
        "    double t = *clock;",
        "    int status = USED_UP;",
        "    int64_t k;",
        "    for (k = 0; k < count; k++) {",
        *(f"        {line}" for line in _branch(spec, guarded, cases)),
        "        times[k] = t;",
        "    }",
        *(f"    x[{i}] = {c};" for i, c in enumerate(spec.columns)),
        "    *clock = t;",
        "    *done = k;",
        "    return status;",
        "}",
    ]
    return "\n".join(lines) + "\n"


def residual_source(spec):
    """C source of ``residual_sup`` for the process of ``spec``, from its table.

    Per state row: each rate ``a[i] * (factor) * (guard)``, then the drift,
    0.0 plus each nonzero delta times its rate in table order, over n (as
    numpy's ``tensordot`` rounds it).  ``p``, the compensator, adds drift * gap
    up to each jump and the horizon; ``sup`` gets the largest
    ``|(x / n - x0 / n) - p|`` at each left and right limit.
    """
    d = len(spec.columns)
    products = (" * ".join([f"a[{i}]"] + [f"({e})" for e in row[2:] if e])
                for i, row in enumerate(spec.table))
    sums = ("".join(f" {'+-'[v < 0]} {abs(v)} * r{i}" for i, v in enumerate(col) if v)
            for col in zip(*(row[0] for row in spec.table)))
    return "\n".join([
        "static void widen(double *sup, double e) { if (e < 0) e = -e; if (e > *sup) *sup = e; }",
        "void residual_sup(const int64_t *x, const double *times, int64_t rows, const double *a,",
        "                  int64_t n, int64_t c2, double horizon, double *sup)",
        "{",
        f"    double g[{d}] = {{0.0}}, p[{d}] = {{0.0}}, h[{d}], c[{d}];",
        "    for (int64_t k = 0; k <= rows; k++) {",
        "        /* To jump k, or from the last jump to the horizon: left limit, then right. */",
        "        double gap = k == 0 ? 0.0 : (k < rows ? times[k] : horizon) - times[k - 1];",
        f"        for (int j = 0; j < {d}; j++) {{",
        "            if (k == 0) { sup[j] = 0.0; h[j] = c[j] = (double)x[j] / n; }",
        "            p[j] += g[j] * gap;",
        "            widen(&sup[j], (c[j] - h[j]) - p[j]);",
        "            if (k == rows) continue;",
        f"            c[j] = (double)x[{d} * k + j] / n;",
        "            widen(&sup[j], (c[j] - h[j]) - p[j]);",
        "        }",
        "        if (k == rows) break;",
        *(f"        int64_t {c} = x[{d} * k + {i}];" for i, c in enumerate(spec.columns)),
        *(f"        double r{i} = {product};" for i, product in enumerate(products)),
        *(f"        g[{j}] = (0.0{terms}) / n;" for j, terms in enumerate(sums)),
        "    }",
        "}",
    ]) + "\n"


# What ended a block of jumps, as the C functions return it.
_USED_UP, _HORIZON, _ABSORBED = range(3)
_PRELUDE = ("#define _POSIX_C_SOURCE 200809L\n#include <locale.h>\n#include <math.h>\n"
            "#include <stdint.h>\n#include <stdio.h>\n\nenum { USED_UP, HORIZON, ABSORBED };\n\n")
_ARGTYPES = ([ctypes.c_void_p] * 3 + [ctypes.c_int64] * 2 + [ctypes.c_double]
             + [ctypes.c_void_p] * 2 + [ctypes.c_int64] + [ctypes.c_void_p] * 3)
# Rows of "%.9g,%d,...,%d\n" in the "C" numeric locale; -1 rather than pass capacity.
# A time takes at most 16 bytes and a count 21 (comma, sign, 19 digits).
_FORMATTER = r"""
int64_t format_trajectory_rows(const double *times, const int64_t *states, int64_t rows,
                               int64_t cols, char *out, int64_t capacity)
{
    locale_t c_numeric = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
    if (c_numeric == (locale_t)0) return -1;
    locale_t caller = uselocale(c_numeric);
    char *p = out, *end = out + capacity;
    int64_t i;
    for (i = 0; i < rows; i++) {
        int w = snprintf(p, (size_t)(end - p), "%.9g", times[i]);
        /* Room for this time, the counts and the newline: 17 + 21 * cols bytes always do. */
        if (w < 0 || w + 21 * cols + 1 > end - p) break;
        p += w;
        for (int64_t j = 0; j < cols; j++) {
            int64_t s = states[i * cols + j];
            uint64_t v = s < 0 ? 0 - (uint64_t)s : (uint64_t)s;
            char digits[21], *q = digits + 21;
            do *--q = (char)('0' + v % 10); while (v /= 10);
            if (s < 0) *--q = '-';
            *--q = ',';
            while (q < digits + 21) *p++ = *q++;
        }
        *p++ = '\n';
    }
    uselocale(caller);
    freelocale(c_numeric);
    return i < rows ? -1 : p - out;
}
"""
_FORMAT_ARGTYPES = ([ctypes.c_void_p] * 2 + [ctypes.c_int64] * 2
                    + [ctypes.c_void_p, ctypes.c_int64])
# A Picard sweep on one window: Gbar of ``fluid.gbar_functional`` (its convolution
# step an explicit fma, as a BLAS banded solve with FMA kernels rounds it), then the
# reflection, which writes the regulator from sample 1 and returns the sup change, or
# NaN for a value not finite.  min and max keep the second operand on a tie, as numpy's.
_PICARD = r"""
void gbar_window(const double *x, const double *base, int64_t n, double h, double mu11,
                 double decay, double coef, double *carried, double *out)
{
    if (n < 1) return;
    double inner = carried[0], conv = carried[1], w_prev = mu11 * inner + x[0];
    out[0] = coef * conv + base[0];
    for (int64_t k = 1; k < n; k++) {
        inner += (x[k] + x[k - 1]) * h;
        double w = mu11 * inner + x[k];
        conv = fma(decay, conv, (w_prev * decay + w) * h);
        out[k] = coef * conv + base[k];
        w_prev = w;
    }
    carried[0] = inner;
    carried[1] = conv;
}

double reflect_window(const double *free, double *x, double *reg, int64_t n,
                      double running_min, int pinned)
{
    double acc = free[0], sup = 0.0;
    for (int64_t k = 0; k < n; k++) {
        acc = acc < free[k] ? acc : free[k];
        double low = acc < running_min ? acc : running_min;
        double lift = 0.0 > -low ? 0.0 : -low, next = free[k] + lift;
        if (!isfinite(next)) return NAN;
        if (k) reg[k] = lift;
        if (k < pinned) continue;
        double change = fabs(next - x[k]);
        sup = sup < change ? change : sup;
        x[k] = next;
    }
    return sup;
}
"""
# No -ffast-math or -march=native, and no contraction of a * b + c into a
# fused multiply-add: each must round as the Python rates do.  libm has fma.
_COMPILE = ("cc", "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-x", "c", "-", "-lm", "-o")


def _library_source(processes):
    """C source of one library: the loops of ``processes``, the formatter, ``residual_sup``
    and the Picard sweep."""
    return (_PRELUDE + "\n".join(loop_source(name, spec) for name, spec in processes.items())
            + _FORMATTER + "\n" + residual_source(processes["main"]) + _PICARD)


def _built(source, private):
    """Path of the library compiled from ``source``, from the user's cache or built into it.

    The file is named by the sha256 of the source and the compile command
    and ends with the sha256 of its own bytes, so a damaged one is rebuilt.
    A build is renamed into place whole, so processes may build at once;
    with the cache unwritable it goes into the directory ``private``.
    """
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"),
                         "twolevel")
    key = hashlib.sha256("\0".join((source,) + _COMPILE).encode()).hexdigest()
    path = os.path.join(cache, f"sim-{key}.so")
    with contextlib.suppress(OSError), open(path, "rb") as fh:
        blob = fh.read()
        if hashlib.sha256(blob[:-32]).digest() == blob[-32:]:
            return path
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    except OSError:
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=private)
        path = tmp
    os.close(fd)
    try:
        if shutil.which(_COMPILE[0]) is None:
            raise BuildError(f"simulation needs a C compiler; there is no {_COMPILE[0]!r} on PATH")
        proc = subprocess.run([*_COMPILE, tmp], input=source, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BuildError(f"{_COMPILE[0]} failed on the simulator loops: {proc.stderr.strip()}")
        with open(tmp, "rb+") as fh:
            fh.write(hashlib.sha256(fh.read()).digest())
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)
    return path


@functools.lru_cache(maxsize=None)
def _library(source):
    """The library compiled from ``source``, loaded, with its functions declared."""
    with tempfile.TemporaryDirectory() as private:
        lib = ctypes.CDLL(_built(source, private))
    for name in _LOOP_NAMES.values():
        function = getattr(lib, name)
        function.argtypes, function.restype = _ARGTYPES, ctypes.c_int
    lib.format_trajectory_rows.argtypes = _FORMAT_ARGTYPES
    lib.format_trajectory_rows.restype = ctypes.c_int64
    lib.residual_sup.argtypes = ([ctypes.c_void_p] * 2 + [ctypes.c_int64, ctypes.c_void_p]
                                 + [ctypes.c_int64] * 2 + [ctypes.c_double, ctypes.c_void_p])
    lib.residual_sup.restype = lib.gbar_window.restype = None
    lib.gbar_window.argtypes = [*[ctypes.c_void_p] * 2, ctypes.c_int64, *[ctypes.c_double] * 4,
                                *[ctypes.c_void_p] * 2]
    lib.reflect_window.argtypes = [*[ctypes.c_void_p] * 3, ctypes.c_int64, ctypes.c_double,
                                   ctypes.c_int]
    lib.reflect_window.restype = ctypes.c_double
    return lib


def _draws(rng, count):
    """Random numbers for ``count`` jumps: (Exp(1) variates, the block of uniforms).

    Jump k takes uniforms 2k and 2k+1 of one ``rng.random(2 * count)``
    block: the first becomes the Exp(1) variate -log1p(-u) (inversion), the
    second picks the transition.
    """
    u = rng.random(2 * count)
    return -np.log1p(-u[0::2]), u


def _jump_draws(rng, count):
    """The draws of ``count`` jumps as Python float lists: (exponentials, picking uniforms)."""
    exps, u = _draws(rng, count)
    return exps.tolist(), u[1::2].tolist()


def _loop(process, spec, source):
    """The simulator loop of ``process``: draws in Python, jumps in C compiled from ``source``."""
    symbol = _LOOP_NAMES[process]
    deltas = np.array([row[0] for row in spec.table], dtype=np.int64)

    def run(init, params, scaling, horizon, seed, max_events=MAX_EVENTS_DEFAULT):
        """Run the process from ``init`` up to ``horizon`` with the given seed."""
        spec.check(init, scaling)
        _check_run(horizon, max_events, seed)
        jumps = getattr(_library(source), symbol)
        a = _coefficients(spec, params, scaling)
        x, clock, done = np.array(init, dtype=np.int64), np.zeros(1), np.zeros(1, dtype=np.int64)
        fixed = (x.ctypes.data, clock.ctypes.data, a.ctypes.data, scaling.n, scaling.c2, horizon)
        times, codes = np.zeros(_CHUNK + 1), np.empty(_CHUNK, dtype=np.int8)
        rng = np.random.default_rng(seed)
        m, status, count = 0, _USED_UP, _CHUNK
        while status == _USED_UP and m <= max_events:
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
        return Trajectory(process, spec.columns, times, _states(deltas, init, codes), horizon,
                          seed, scaling.n, scaling.c2,
                          absorbed=status == _ABSORBED and not truncated, truncated=truncated)

    run.__name__ = run.__qualname__ = symbol
    return run


# Bound to the tables as they are at import; the library is built at the first run.
_SOURCE, _MAIN = _library_source(PROCESSES), PROCESSES["main"]
simulate, simulate_aux_saturated, simulate_aux_noblock = (
    _loop(name, PROCESSES[name], _SOURCE) for name in ("main", "aux-saturated", "aux-noblock"))


def simulate_process(process, init, params, scaling, horizon, seed,
                     max_events=MAX_EVENTS_DEFAULT):
    """Run ``process`` (a key of PROCESSES) with its simulator loop.

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
    if not 0 < grid_dt < math.inf:
        raise InvalidState(f"grid_dt must be finite and > 0, got {grid_dt!r}")
    grid = grid_dt * np.arange(int(math.floor(traj.horizon / grid_dt + 1e-9)) + 1)
    idx = np.searchsorted(traj.times, grid, side="right") - 1
    values = traj.states[idx].astype(float) / scaling.n
    return SampledPath(0.0, grid_dt, values)


def residual_sup(traj, params, scaling):
    """Exact sup over [0, horizon] of |path / n - start - compensator| per coordinate.

    The compensator integrates the table drift, constant between jumps, exactly.
    The residual is then linear in t between jumps, so the supremum is attained
    at jump times (left or right limit) or at the horizon.  It runs in C generated
    from the table (``residual_source``), so it needs ``cc`` as a run does.
    """
    if traj.process != "main":
        raise InvalidState("martingale residuals are defined for the main process")
    if traj.truncated:
        raise InvalidState("martingale residuals need the full event list, not a truncated run")
    times = np.ascontiguousarray(traj.times, dtype=float)
    states = np.ascontiguousarray(traj.states, dtype=np.int64)
    if not len(times) or states.shape != (len(times), 3):
        raise InvalidState(f"states of shape {states.shape}, not ({len(times)}, 3) with a row")
    a, sup = _coefficients(_MAIN, params, scaling), np.zeros(3)
    _library(_SOURCE).residual_sup(states.ctypes.data, times.ctypes.data, len(times),
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

    The rows, Python's ``"%.9g" + ",%d" * columns`` in any locale, are formatted
    in the simulator library, so writing needs ``cc`` as a run does.
    """
    fp.write("t," + ",".join(traj.columns) + "\n")
    cols, rows = len(traj.columns), 1 << 14
    out = np.empty(rows * (17 + 21 * cols), dtype=np.uint8)
    fmt = _library(_SOURCE).format_trajectory_rows
    for lo in range(0, len(traj.times), rows):
        times = np.ascontiguousarray(traj.times[lo:lo + rows], dtype=float)
        states = np.ascontiguousarray(traj.states[lo:lo + rows], dtype=np.int64)
        if states.shape != (len(times), cols):
            raise InvalidState(f"states block of shape {states.shape}, not {(len(times), cols)}")
        size = fmt(times.ctypes.data, states.ctypes.data, len(times), cols, out.ctypes.data,
                   out.size)
        if size < 0:
            raise RuntimeError("the simulator library could not format the trajectory rows")
        fp.write(out[:size].tobytes().decode("ascii"))
