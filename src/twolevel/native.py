"""All of the toolkit's C, compiled into one shared library, and its build.

It holds a simulator loop per table in ``model.PROCESSES`` and the walk that rebuilds a
run's state rows from the row codes that loop records (``loop_source``), the
compensator of ``sim.residual_sup`` (``residual_source``), the one walk over the jumps and
the grid of ``sim.grid_sup``, the one pass over a main run's rows of
``sim.window_summary`` (its averages summed as numpy's pairwise ``np.sum``), the row
formatter of ``sim.write_trajectory_csv`` (exact
integer digits; ``snprintf`` only out of range), the two halves of a Picard sweep:
``fluid.gbar_functional``'s pass and ``skorokhod.solve_generalized``'s reflection, and the
loop that runs one window's sweeps of the two in one call, and the exact segments of
``fluid._affine_path``, their 5x5 matrix exponential and guard scan.
``library()``, the library of the tables as they are at import, compiles it at its first
call, never at import, with the system C compiler (``cc``); it is kept in
``$XDG_CACHE_HOME/twolevel`` (default ``~/.cache/twolevel``), so later processes load it
without compiling.  Without a compiler ``library()`` raises ``BuildError``.  Each
exported function's ctypes declaration is read from its C signature in the source, the
one statement of the library's ABI.
"""

import contextlib
import ctypes
import functools
import hashlib
import itertools
import os
import re
import shutil
import subprocess
import tempfile

from .errors import BuildError, InvalidState
from .model import PROCESSES, ScalingParams

# The name of each process's simulator function in C, and of its loop in ``sim``.
LOOP_NAMES = {"main": "simulate", "aux-saturated": "simulate_aux_saturated",
              "aux-noblock": "simulate_aux_noblock"}


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
    probe = ScalingParams(n=1, c2=1)
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
    moved = [(c, d) for c, d in zip(spec.columns, zip(*(row[0] for _, row in rows))) if any(d)]
    tables = [("row", [i for i, _ in rows])] + [(f"d_{c}", d) for c, d in moved]
    return lines + [
        "if (total <= 0.0) { status = ABSORBED; break; }",
        "t += e[k] / total;",
        "if (t >= horizon) { status = HORIZON; break; }",
        "double v = u[2 * k + 1] * total;",
        *(f"static const int8_t {name}[] = {{{', '.join(map(str, d))}}};" for name, d in tables),
        f"int j = {' + '.join(f'(v >= r{i})' for i, _ in rows[:-1]) or '0'};",
        " ".join([f"{c} += d_{c}[j];" for c, _ in moved] + ["codes[k] = row[j];"])]


def _branch(spec, guarded, cases):
    """Nested ``if (column)`` tests down to one guard case each, then its lines."""
    if len(cases) == 1:
        return _case_lines(spec, cases[0])
    col = next(v for v in guarded if len({c[v] for c in cases}) == 2)
    on, off = [c for c in cases if c[col]], [c for c in cases if not c[col]]
    return ([f"if ({col}) {{"] + [f"    {line}" for line in _branch(spec, guarded, on)]
            + ["} else {"] + [f"    {line}" for line in _branch(spec, guarded, off)] + ["}"])


def loop_source(process, spec=None):
    """C source of the simulator function of ``process`` (or of ``spec``) and of its state
    walk, from its table.

    The simulator runs up to ``count`` jumps from the state ``x`` at time
    ``*clock``; jump k takes ``e[k]`` and ``u[2k + 1]``, and records its time
    and the index of the table row that fired.  It branches on the reachable
    guard cases (for ``main``: z > 0, z = 0 < y*, z = y* = 0) and sums the
    rates enabled there in table order; a case's sums skip only rows whose
    rate there is 0.0, so they equal the table's.  The jump, the first row
    whose sum exceeds ``u' * total``, is the number of sums before the total
    at or below it (rates are >= 0, so the sums never decrease), counted
    without a branch.  ``<simulator>_states`` writes rows 1..count of ``x``
    from row 0 and the codes, adding their deltas, held as C constants.
    """
    spec = spec or PROCESSES[process]
    guarded, cases = _cases(spec)
    lines = [
        f"int {LOOP_NAMES[process]}(int64_t *x, double *clock, const double *a,"
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
        f"void {LOOP_NAMES[process]}_states(const int8_t *codes, int64_t count, int64_t *x)",
        "{",
        *(f"    static const int8_t d_{c}[] = {{{', '.join(map(str, d))}}};"
          for c, d in zip(spec.columns, zip(*(row[0] for row in spec.table)))),
        *(f"    int64_t {c} = x[{i}];" for i, c in enumerate(spec.columns)),
        "    for (int64_t k = 0; k < count; k++) {",
        "        int code = codes[k];",
        *(f"        x[{len(spec.columns)} * k + {len(spec.columns) + i}] = {c} += d_{c}[code];"
          for i, c in enumerate(spec.columns)),
        "    }",
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


# At grid times k * dt, k < points: the last jump's state / n, last c columns, minus ref + k * step
# (step 0: one row).  sup[w]: the largest |difference| from starts[w] on; NaN wins, as in numpy.
_GRID_SUP = r"""
static double nan_max(double m, double e) { return m != m || m >= e ? m : e; }
void grid_sup(const double *times, const int64_t *x, const double *ref, const double *starts,
              double *sup, int64_t rows, int64_t cols, int64_t n, int64_t points, int64_t step,
              int64_t c, int64_t windows, double dt)
{
    for (int64_t w = 0; w < windows; w++) sup[w] = 0.0;
    for (int64_t k = 0, i = 0; k < points; k++) {
        double t = (double)k * dt, d = 0.0;
        while (i + 1 < rows && times[i + 1] <= t) i++;
        for (int64_t j = 0; j < c; j++)
            d = nan_max(d, fabs((double)x[i * cols + cols - c + j] / n - ref[k * step + j]));
        for (int64_t w = 0; w < windows; w++)
            if (t >= starts[w]) sup[w] = nan_max(sup[w], d);
    }
}
"""

# A main run's rows (y_star, y, z) at times[0..rows), the last before the horizon, and windows
# [starts[w], horizon].  out[4w..4w+3]: the row held at the start (the last at or before it,
# as numpy's searchsorted finds it), the largest y_star and z and the least y_star + y from that
# row on.  With avg, avg[w] is the time average of y_star / n over the window: each row's
# (y_star / n) * (its time in the window) summed as numpy's np.sum adds a float64 array
# (its pairwise sum: 8 running sums up to 128 terms, halves on multiples of 8 above), over
# the window's length.  Returns -1, or the first row with y_star > 0 and z > 0.
_WINDOW_SUMMARY = r"""
struct window { const double *times; const int64_t *x; int64_t first, rows; double n, lo, hi; };

static double area(const struct window *w, int64_t i)
{
    double from = i == w->first ? w->lo : w->times[i];
    double to = i + 1 < w->rows ? w->times[i + 1] : w->hi;
    return ((double)w->x[3 * i] / w->n) * (to - from);
}

static double pairwise_sum(const struct window *w, int64_t lo, int64_t len)
{
    if (len < 8) {
        double s = 0.0;
        for (int64_t i = 0; i < len; i++) s += area(w, lo + i);
        return s;
    }
    if (len <= 128) {
        double r[8], s;
        int64_t i;
        for (int j = 0; j < 8; j++) r[j] = area(w, lo + j);
        for (i = 8; i < len - len % 8; i += 8)
            for (int j = 0; j < 8; j++) r[j] += area(w, lo + i + j);
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < len; i++) s += area(w, lo + i);
        return s;
    }
    int64_t half = len / 2 - len / 2 % 8;
    return pairwise_sum(w, lo, half) + pairwise_sum(w, lo + half, len - half);
}

int64_t window_summary(const double *times, const int64_t *x, int64_t rows, int64_t n,
                       double horizon, const double *starts, int64_t windows, int64_t *out,
                       double *avg)
{
    for (int64_t w = 0; w < windows; w++) {
        int64_t lo = 0, hi = rows;  /* the first row after the start is at lo */
        while (lo < hi) {
            int64_t mid = lo + (hi - lo) / 2;
            if (times[mid] <= starts[w]) lo = mid + 1; else hi = mid;
        }
        out[4 * w] = lo > 0 ? lo - 1 : 0;
        if (avg) {
            struct window win = {times, x, out[4 * w], rows, (double)n, starts[w], horizon};
            double sum = 0.0 + pairwise_sum(&win, win.first, rows - win.first);
            avg[w] = sum / (horizon - starts[w]);
        }
    }
    /* Back from the last row, down to each window's first row in turn, then to row 0. */
    int64_t most_y_star = INT64_MIN, most_z = INT64_MIN, least = INT64_MAX, bad = -1;
    for (int64_t k = rows; k > 0;) {
        int64_t next = 0;
        for (int64_t w = 0; w < windows; w++)
            if (out[4 * w] < k && out[4 * w] > next) next = out[4 * w];
        while (k > next) {
            k--;
            int64_t y_star = x[3 * k], occupied = y_star + x[3 * k + 1], z = x[3 * k + 2];
            bad = y_star > 0 && z > 0 ? k : bad;
            most_y_star = y_star > most_y_star ? y_star : most_y_star;
            most_z = z > most_z ? z : most_z;
            least = occupied < least ? occupied : least;
        }
        for (int64_t w = 0; w < windows; w++)
            if (out[4 * w] == k) {
                out[4 * w + 1] = most_y_star;
                out[4 * w + 2] = most_z;
                out[4 * w + 3] = least;
            }
    }
    return bad;
}
"""

# What ended a block of jumps, as the C functions return it.
USED_UP, HORIZON, ABSORBED = range(3)
_PRELUDE = ("#define _POSIX_C_SOURCE 200809L\n#include <locale.h>\n#include <math.h>\n"
            "#include <stdint.h>\n#include <stdio.h>\n#include <string.h>\n\n"
            "enum { USED_UP, HORIZON, ABSORBED };\n\n")
# Rows of "%.9g,%d,...,%d\n" in the "C" numeric locale; -1 rather than pass capacity.
# A time takes at most 16 bytes and a count 21 (comma, sign, 19 digits).  format_g9 takes
# a time's digits from integers, q = m * 10^k / 2^s rounded half to even for v = m / 2^s,
# k in [0, 22] (about 1e-14 <= |v| < 1e9); any other time but ±0 goes to snprintf.
_FORMATTER = r"""
static int format_g9(double v, char *out)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    int s = 1075 - (int)(bits >> 52 & 0x7ff), k, n;
    char *p = out, d[9];
    if (bits >> 63) *p++ = '-';
    if (bits << 1 == 0) { *p++ = '0'; return (int)(p - out); }
    unsigned __int128 m = (bits & ((UINT64_C(1) << 52) - 1)) | UINT64_C(1) << 52, x, q;
    /* k steps from 8 - floor(E log10 2), |v| >= 2^E = 2^(52 - s), until q has 9 digits. */
    for (k = 8 - (int)floor((52 - s) * 0.30102999566398120); ; k += q < 100000000 ? 1 : -1) {
        if (s < 0 || s > 127 || k < 0 || k > 22) return snprintf(out, 32, "%.9g", v);
        for (x = m, n = 0; n < k; n++) x *= 10;
        q = x >> s;
        if (q >= 100000000 && q < 1000000000) break;
    }
    unsigned __int128 twice = 2 * (x - (q << s)), unit = (unsigned __int128)1 << s;
    if (twice > unit || (twice == unit && (q & 1))) q++;
    if (q == 1000000000) { q = 100000000; k--; }  /* carried into the next decade */
    uint32_t r = (uint32_t)q;
    for (n = 8; n >= 0; n--, r /= 10) d[n] = (char)('0' + r % 10);
    for (n = 9; d[n - 1] == '0'; n--) {}  /* %g drops trailing zeros */
    int e = 8 - k, ex = e < -4 || e > 8 ? e : 0;  /* %g's exponent form outside [-4, 8] */
    e -= ex;  /* the first digit's place, 10^e: each place down to the last digit's or 1 */
    for (int t = e > 0 ? e : 0; t >= 0 || t > e - n; t--) {
        *p++ = t > e || t <= e - n ? '0' : d[e - t];
        if (t == 0 && e - n < -1) *p++ = '.';
    }
    if (ex) {  /* |ex| <= 14, so two exponent digits */
        *p++ = 'e'; *p++ = ex < 0 ? '-' : '+'; ex = ex < 0 ? -ex : ex;
        *p++ = (char)('0' + ex / 10); *p++ = (char)('0' + ex % 10);
    }
    return (int)(p - out);
}

int64_t format_trajectory_rows(const double *times, const int64_t *states, int64_t rows,
                               int64_t cols, char *out, int64_t capacity)
{
    locale_t c_numeric = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
    if (c_numeric == (locale_t)0) return -1;
    locale_t caller = uselocale(c_numeric);
    char *p = out, *end = out + capacity, num[32];
    int64_t i;
    for (i = 0; i < rows; i++) {
        int w = format_g9(times[i], num);
        /* Copied only with room for it, the counts and the newline: 17 + 21 * cols do. */
        if (w < 0 || w + 21 * cols + 1 > end - p) break;
        memcpy(p, num, (size_t)w);
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
# A Picard sweep on one window: Gbar of ``fluid.gbar_functional`` (its convolution
# step an explicit fma, as a BLAS banded solve with FMA kernels rounds it), then the
# reflection, which writes the regulator from sample 1 and returns the sup change, or
# NaN for a value not finite.  min and max keep the second operand on a tie, as numpy's.
# picard_window runs a window's sweeps, each Gbar restarted from the pair carried in,
# with the stop rule of ``skorokhod.solve_generalized``'s Python loop.
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

/* Sweeps until the change is <= tol or not finite (NaN), a free path of a window not pinned
   starts below 0, or max_iter sweeps; returns the last change (INFINITY after none) and
   writes the count to *sweeps, the pair at the last point to carried and the free path. */
double picard_window(double *x, double *reg, const double *base, int64_t n, double h,
                     double mu11, double decay, double coef, double *carried, double *free,
                     double running_min, int pinned, double tol, int64_t max_iter,
                     int64_t *sweeps)
{
    double start[2] = {carried[0], carried[1]}, residual = INFINITY;
    for (*sweeps = 0; *sweeps < max_iter;) {
        ++*sweeps;
        carried[0] = start[0];
        carried[1] = start[1];
        gbar_window(x, base, n, h, mu11, decay, coef, carried, free);
        residual = reflect_window(free, x, reg, n, running_min, pinned);
        if (!(residual > tol) || (!pinned && free[0] < 0)) break;
    }
    return residual;
}
"""
# The exact segment of ``fluid._affine_path``, sharing nothing with the Picard sweep that
# criterion 06 checks it against; modes are 5x5 row-major on (y_star, y, z, u, 1).  expm5
# scales M s to a norm <= 1/2, sums its Taylor series until a term is below unit roundoff
# of the sum, squares back (Higham 2005), and is NaN where ||M|| |s| overflows.  Plain
# products and sums in a fixed order: the bits do not depend on the host's BLAS.
_FLUID = r"""
static void mul5(const double *a, const double *b, double *c)
{
    for (int i = 0; i < 25; i++) {
        double acc = 0.0;
        for (int k = 0; k < 5; k++) acc += a[i - i % 5 + k] * b[5 * k + i % 5];
        c[i] = acc;
    }
}

static double norm5(const double *a)  /* the largest absolute row sum */
{
    double norm = 0.0;
    for (int i = 0; i < 25; i += 5) {
        double r = fabs(a[i]) + fabs(a[i + 1]) + fabs(a[i + 2]) + fabs(a[i + 3]) + fabs(a[i + 4]);
        norm = norm < r ? r : norm;
    }
    return norm;
}

static void expm5(const double *m, double s, double *e)
{
    double a[25], term[25], next[25], norm = norm5(m) * fabs(s);
    int q = 0;
    if (!isfinite(norm)) { for (int i = 0; i < 25; i++) e[i] = NAN; return; }
    for (; norm > 0.5; q++) norm *= 0.5;
    for (int i = 0; i < 25; i++) { a[i] = ldexp(m[i] * s, -q); term[i] = e[i] = i % 6 == 0; }
    for (int k = 1; k <= 30; k++) {
        mul5(term, a, next);
        for (int i = 0; i < 25; i++) { term[i] = next[i] / k; e[i] += term[i]; }
        if (norm5(term) <= 0x1p-53 * norm5(e)) break;
    }
    for (; q > 0; q--) { mul5(e, e, next); memcpy(e, next, sizeof next); }
}

/* out = expm(m s) x; returns the guard g . out (0 without one). */
double segment_flow(const double *m, const double *g, const double *x, double *out, double s)
{
    double e[25], v = 0.0;
    expm5(m, s, e);
    for (int i = 0; i < 5; i++) {
        double acc = 0.0;
        for (int j = 0; j < 5; j++) acc += e[5 * i + j] * x[j];
        out[i] = acc;
        if (g) v += g[i] * acc;
    }
    return v;
}

/* Rows [0, len) of n columns: row 0 expm(m s0) x, then rows [j, 2j) rows [0, j) moved by
   phi^j, phi = expm(m dt).  Each block is scanned in order as it is filled: returns the
   first row whose guard g[:n] . row + g[4] is negative (g NULL: no guard), or -1 - i for
   the first row i with a non-finite entry before it, or len.  `bound` is at least 1 and
   every |entry| filled so far; a block moved by phi has entries of at most
   norm5(phi) * bound (twice that covers rounding), so while the bound is finite every
   entry is, and only a block past that is scanned entry by entry. */
int64_t affine_segment(const double *m, const double *g, const double *x, double s0, double dt,
                       int64_t len, int64_t n, double *seg)
{
    double phi[25], next[25], row[5], bound = 1.0;
    segment_flow(m, NULL, x, row, s0);
    memcpy(seg, row, (size_t)n * sizeof *row);
    for (int64_t j = 0; j < n; j++)
        if (!(fabs(row[j]) <= bound)) bound = fabs(row[j]);  /* NaN too */
    expm5(m, dt, phi);
    for (int64_t checked = 0, filled = 1;;) {
        int64_t bad = filled;
        for (int64_t k = checked * n; !isfinite(bound) && k < filled * n; k++)
            if (!isfinite(seg[k])) {
                bad = k / n;
                break;
            }
        for (; g && checked < bad; checked++) {
            double v = 0.0;
            for (int64_t j = 0; j < n; j++) v += seg[checked * n + j] * g[j];
            if (v + g[4] < 0) return checked;
        }
        if (bad < filled) return -1 - bad;
        checked = filled;
        if (filled == len) return len;
        int64_t take = filled < len - filled ? filled : len - filled;
        for (int64_t i = 0; i < take; i++)
            for (int64_t r = 0; r < n; r++) {
                double acc = 0.0;
                for (int64_t c = 0; c < n; c++) acc += seg[i * n + c] * phi[5 * r + c];
                seg[(filled + i) * n + r] = acc + phi[5 * r + 4];
            }
        double grown = 2.0 * norm5(phi) * bound;
        if (!(grown <= bound)) bound = grown;
        filled += take;
        mul5(phi, phi, next);
        memcpy(phi, next, sizeof next);
    }
}
"""
# No -ffast-math or -march=native, and no contraction of a * b + c into a
# fused multiply-add: each must round as the Python rates do.  libm has fma.
_COMPILE = ("cc", "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-x", "c", "-", "-lm", "-o")


def _library_source(processes):
    """C source of one library: the loops of ``processes``, the formatter, ``residual_sup``,
    ``grid_sup``, ``window_summary``, the Picard sweeps and the exact fluid segment."""
    return (_PRELUDE + "\n".join(loop_source(name, spec) for name, spec in processes.items())
            + _FORMATTER + "\n" + residual_source(processes["main"]) + _GRID_SUP
            + _WINDOW_SUMMARY + _PICARD + _FLUID)


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
    path = os.path.join(cache, f"{key}.so")
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
            raise BuildError("the compiled library needs a C compiler; there is no "
                             f"{_COMPILE[0]!r} on PATH")
        proc = subprocess.run([*_COMPILE, tmp], input=source, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BuildError(f"{_COMPILE[0]} failed on the library source: {proc.stderr.strip()}")
        with open(tmp, "rb+") as fh:
            fh.write(hashlib.sha256(fh.read()).digest())
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)
    return path


# The ctypes type of each C type the exported functions take or return; any pointer is c_void_p.
_CTYPES = {"int": ctypes.c_int, "int64_t": ctypes.c_int64, "double": ctypes.c_double,
           "void": None}


@functools.lru_cache(maxsize=None)
def _library(source):
    """The library compiled from ``source``, loaded, with each function that is not
    ``static`` declared from its C signature in ``source``."""
    with tempfile.TemporaryDirectory() as private:
        lib = ctypes.CDLL(_built(source, private))
    for result, name, params in re.findall(r"^(?!static\b)(\w+) (\w+)\(([^)]*)\)", source, re.M):
        function = getattr(lib, name)
        function.restype = _CTYPES[result]
        function.argtypes = [ctypes.c_void_p if "*" in p else _CTYPES[p.split()[-2]]
                             for p in params.split(",")]
    return lib


_SOURCE = _library_source(PROCESSES)  # of the tables as they are at import


def library():
    """The library of the tables as they are at import, built or loaded at the first call."""
    return _library(_SOURCE)
