"""Deterministic fluid dynamics of the two-level network, solved exactly.

Every fluid system is piecewise affine: between switches it follows the
overloaded interior (z = 0), the underloaded interior (y_star = 0), or an
auxiliary system's sliding mode on y_star = 0 or z = 0, each derived from its
table in ``model.PROCESSES``.  A segment is expm(M t) x0 on the state
(y_star, y, z, u, 1), regulator u included, and a switch time is a root of
that closed form, found in Python on the guard that the compiled library
(``native``) computes, as it does the segments.  ``solve_system`` is the one
path of every system.  Also here: the integral functional that cross-validates
the saturated system through the Picard solver, compiled apart from the segments.
"""

import ctypes
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import model, native, sim
from .errors import DomainError, NonFinite, RegimeMismatch, TooManySwitches
from .model import FluidState, Regime, classify_regime, y_b_closed_form
from .skorokhod import SampledPath, grid_steps


@dataclass(frozen=True)
class ReflectedSolution:
    """A reflected fluid path plus the regulator that kept it admissible.

    path.values has one row per grid point and columns (y_star, y, z);
    the coordinate a given auxiliary system does not evolve is held at
    its frozen value (z = 0 for the saturated system, y_star = 0 for the
    no-blocking system).
    """

    path: SampledPath
    regulator: SampledPath

    @property
    def y_star(self):
        return self.path.values[:, 0]

    @property
    def y(self):
        return self.path.values[:, 1]

    @property
    def z(self):
        return self.path.values[:, 2]


# The augmented state (y_star, y, z, u, 1) on which every mode is linear.  A
# sampled path stores neither the constant nor, without a regulator, u.
Y_STAR, Y, Z, U, ONE = range(5)
# A path that switches mode more often than this is chattering, not settling.
MAX_SWITCHES = 100


class _Mode(NamedTuple):
    """One affine regime x' = matrix @ x on (y_star, y, z, u, 1): it lasts while
    ``guard @ x >= 0`` (for ever without a guard) and holds ``pinned`` at exactly 0."""

    matrix: np.ndarray
    guard: np.ndarray | None
    pinned: int


# Per system, its table and per mode the one of y_star and z above 0; a repeat slides on it.
_SIDES = {"hybrid": ("main", (Y_STAR, Z)), "aux-saturated": ("aux-saturated", (Y_STAR, Y_STAR)),
          "aux-noblock": ("aux-noblock", (Z, Z)), "overloaded-ode": ("main", (Y_STAR,)),
          "underloaded-ode": ("main", (Z,))}
SYSTEMS = tuple(_SIDES)


@functools.lru_cache(maxsize=None)
def _table_form(spec):
    """Per row of ``spec``'s table, the weights delta_i * slope_j (integers: factors are
    affine) of its coefficient and delta_i of its rate at 0 (column ONE) in the drift on
    (y_star, y, z, u, 1); and per key, y_star or z above 0 or None for neither, the rows enabled."""
    coords = [model.PROCESSES["main"].columns.index(c) for c in spec.columns]
    zero = sim._constants(model.ModelParams(0, 0, 0, 0), model.ScalingParams(0, 0))

    def at(expr, k):
        point = {c: int(j == k) for c, j in zip(spec.columns, coords)}
        return 1 if expr is None else eval(expr, {"__builtins__": {}}, zero | point)

    deltas, slopes = np.zeros((len(spec.table), 5, 1)), np.zeros((len(spec.table), 1, 5))
    for i, (delta, _, factor, _) in enumerate(spec.table):
        deltas[i, coords, 0] = delta
        slopes[i, 0, coords] = [at(factor, k) - at(factor, None) for k in coords]
    return deltas * slopes, deltas * np.eye(5)[ONE], {
        k: np.flatnonzero([at(row[3], k) for row in spec.table]) for k in (None, *coords)}


def _system_modes(system, params, r):
    """The modes of ``system`` at ratio r from its table, the first tried first at t = 0.

    An interior mode is the table drift at n = 1, c2 = r (0.0 plus each enabled row's delta
    * rate, in table order), the other of y_star and z pinned.  A sliding mode on c is
    Filippov's F+ - (F+_c / (F+_c - F0_c)) (F+ - F0) of the drifts above and on c, with
    u' = -F+_c while that is >= 0: F+ - k F+_c, as each row of F+ - F0 is k times row c."""
    process, sides = _SIDES[system]
    spec, unit, modes = model.PROCESSES[process], np.eye(5), []
    by_coefficient, by_origin_rate, enabled = _table_form(spec)
    a, at_origin = (sim._coefficients(spec, params, model.ScalingParams(1, r), k) for k in (1, 2))
    terms = by_coefficient * a[:, None, None] + by_origin_rate * at_origin[:, None, None]
    for c in sides:
        matrix, pinned = np.add.accumulate(terms.take(enabled[c], 0))[-1], Y_STAR + Z - c
        if modes and c == sides[0]:
            d = matrix - np.add.accumulate(terms.take(enabled[None], 0))[-1]
            j, outward, pinned = np.abs(d[c]).argmax(), -matrix[c], c
            # With no jump across c (F+ = F0), k is c's unit vector: only c itself is held.
            matrix += (d[:, j, None] / d[c, j] if d[c, j] else unit[:, c, None]) * outward
            matrix[U] = outward
        matrix[:, pinned] = 0.0  # the pinned coordinate is 0 throughout
        guard = matrix[U] if pinned == c else unit[c] if len(sides) > 1 else None
        modes.append(_Mode(matrix, guard, pinned))
    return tuple(modes)


def _starts_in(mode, x):
    """x has ``mode``'s pinned coordinate at 0 and its guard positive, or zero and rising."""
    if mode.guard is None:
        return True
    g = mode.guard @ x
    return x[mode.pinned] == 0 and (g > 0 or (g == 0 and mode.guard @ mode.matrix @ x > 0))


def _brentq(f, xa, xb, xtol, maxiter=100):
    """Root of f in [xa, xb] by Brent's method, as scipy's C ``brentq`` finds it.

    A port of scipy/optimize/Zeros/brentq.c that keeps its float operations
    in their order and its default rtol of 4 eps, so it returns the same
    root bit for bit.  Like scipy, it raises ValueError when f(xa) and f(xb)
    share a sign or f is NaN, and RuntimeError after ``maxiter`` steps
    without convergence.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    rtol = 4 * np.finfo(float).eps
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")


def _affine_path(system, params, r, x0, horizon, dt):
    """Exact path of ``system`` from x0 = (y_star, y, z) on the grid k*dt.

    Returns rows (y_star, y, z), the regulator u (all 0 without one) and
    the switches as (first grid index of the new mode, time).  A segment is
    the compiled ``affine_segment``: rows [m, 2m) are rows [0, m) moved by
    expm(M dt)^m, up to the first row past a guard crossing.  There
    ``_brentq`` on the guard of expm(M s) x (``segment_flow``) finds the
    switch time inside that grid step; the path then toggles mode and sets
    the new mode's pinned coordinate to exactly 0.  A non-finite row, which
    the segment reports as it fills, raises NonFinite.
    """
    lib = native.library()
    steps = grid_steps(horizon, dt)
    modes = _system_modes(system, params, r)
    x = np.array([*x0, 0.0, 1.0])
    mode = 0 if _starts_in(modes[0], x) else 1
    n = ONE if any(m.matrix[U].any() for m in modes) else U
    out = np.empty((steps + 1, n))
    t, k, switches = 0.0, 0, []  # start time of the segment, first grid index it samples
    for _ in range(MAX_SWITCHES + 1):
        matrix, guard, pinned = modes[mode]
        x[pinned] = 0.0
        held = ~matrix[:n].any(axis=1)
        seg = out[k:]
        m, g = matrix.ctypes.data, None if guard is None else guard.ctypes.data
        end = lib.affine_segment(m, g, x.ctypes.data, k * dt - t, dt, len(seg), n,
                                 seg.ctypes.data)
        if end < 0:
            raise NonFinite(f"{system} fluid state non-finite after t={t}")
        seg[:end, held] = x[:n][held]
        if end == len(seg):
            return out[:, :U], out[:, U] if n > U else np.zeros(len(out)), switches
        # The guard crossed 0 in the grid step before sample `end`.
        t0, width = ((k + end - 1) * dt, dt) if end else (t, k * dt - t)
        base = np.concatenate((seg[end - 1], x[n:])) if end else x
        x = np.empty(5)
        flow = functools.partial(lib.segment_flow, m, g, base.ctypes.data, x.ctypes.data)
        s = _brentq(flow, 0.0, width, xtol=1e-15) if flow(0.0) > 0 else 0.0
        flow(s)
        x[:n][held] = base[:n][held]
        t, k, mode = t0 + s, k + end, 1 - mode
        switches.append((k, t))
    raise TooManySwitches(f"fluid path switched mode more than {MAX_SWITCHES} times by t={t:.6g}")


def aux_saturated_fluid(params, r, init, horizon, dt=1e-3):
    """Fluid path of the always-saturated system, reflected at y_star = 0, where it slides
    while the regulator u absorbs the outward drift, until that drift turns inward."""
    return solve_system("aux-saturated", params, r, (init[0], init[1], 0.0), horizon, dt)


def aux_noblock_fluid(params, r, init, horizon, dt=1e-3):
    """Fluid path of the no-blocking system, reflected at z = 0, where it slides while the
    regulator u absorbs the outward drift.  The y column is ``y_b_closed_form`` itself."""
    return solve_system("aux-noblock", params, r, (0.0, init[0], init[1]), horizon, dt)


def gbar_functional(params, r, init):
    """Integral functional whose reflected fixed point is the saturated y_star path.

    Given a candidate blocked-fraction path x, produces the free path

        Gbar(x)(t) = G(x)(t) + y_star0 + mu01 * k(t) e^{-mubar t} - mu02 r t,
        G(x)(t)    = -p mu01 \\int_0^t (x(s) + mu11 \\int_0^s x) e^{-mubar (t-s)} ds,

    with mubar = (1-p) mu01 + p mu11 and k(t) the relaxation of the
    companion y-coordinate.  Discretized with trapezoid quadrature for
    both nested integrals; the convolution is the exponentially-weighted
    prefix recursion conv_k = c_k + e^{-mubar dt} conv_{k-1}, the same
    quadrature rearranged for O(n) cost and overflow-free long horizons,
    run in one pass in the compiled library with the float operations, in
    order, of the numpy and banded-solve form the tests keep.  The terms
    that depend on the grid alone are kept from one call to the next on the
    same grid.

    The functional restarts, as ``solve_generalized`` calls it:
    ``gbar(x, t0, dt, carried)`` takes x on a window of the grid (times
    ``t0 + k dt``) and the pair (inner integral, convolution) at the
    window's first point, None when the window starts at t = 0.  It returns
    the free path on the window and that pair at the window's last point,
    so consecutive windows sharing an end point continue the same recursion.
    ``gbar.sweeps`` is its Picard window for ``solve_generalized``: the
    library's ``picard_window`` runs every sweep of the window, this pass
    then the reflection, in one call on the grid terms taken once.
    Parameters that ``model.validate`` refuses raise its DomainError first.
    """
    model.validate(params)
    y_star0, y0 = init
    FluidState(y_star0, y0, 0.0).check(r)
    lib = native.library()
    p, mu01, mu11, mu02 = params.p, params.mu01, params.mu11, params.mu02
    mubar = (1 - p) * mu01 + p * mu11

    @functools.lru_cache(maxsize=1)
    def grid_terms(t0, dt, n):
        """e^{-mubar dt} and Gbar's path-independent part."""
        t = t0 + dt * np.arange(n)
        et = np.exp(-mubar * t)
        k_times_decay = (p * y_star0 + y0) / mubar * (1.0 - et) + (
            p * mu11 / mubar**2
        ) * (et + mubar * t - 1.0)
        return np.exp(-mubar * dt), y_star0 + mu01 * k_times_decay - mu02 * r * t

    def gbar(x, t0, dt, carried):
        x = np.ascontiguousarray(x, dtype=float)
        if x.ndim != 1 or not len(x):
            raise DomainError("values", "the functional expects a scalar path with a point")
        if not dt > 0:
            raise DomainError("dt", "grid step must be positive")
        decay, base = grid_terms(t0, dt, len(x))
        state, out = (ctypes.c_double * 2)(*carried or (0.0, 0.0)), np.empty(len(x))
        lib.gbar_window(x.ctypes.data, base.ctypes.data, len(x), dt / 2, mu11, decay,
                        -p * mu01, state, out.ctypes.data)
        return out, (state[0], state[1])

    def sweeps(x, reg, t0, dt, carried, running_min, pinned, tol, max_iter):
        """(last change, sweeps, last free path, carried pair) of Picard on the window x."""
        decay, base = grid_terms(t0, dt, len(x))
        state, out = (ctypes.c_double * 2)(*carried or (0.0, 0.0)), np.empty(len(x))
        count = (ctypes.c_int64 * 1)()
        residual = lib.picard_window(x.ctypes.data, reg.ctypes.data, base.ctypes.data, len(x),
                                     dt / 2, mu11, decay, -p * mu01, state, out.ctypes.data,
                                     running_min, pinned, tol, max_iter, count)
        return residual, count[0], out, (state[0], state[1])

    gbar.sweeps = sweeps
    return gbar


def hybrid_fluid(params, r, init, horizon, dt=1e-3):
    """Global fluid path from any admissible initial state.

    Switches from the overloaded interior (z = 0) to the underloaded one
    (y_star = 0) when y_star reaches 0, and back when z reaches 0.  At the
    double boundary it enters the overloaded interior if y_star rises there,
    else the underloaded one.
    """
    return solve_system("hybrid", params, r, init.as_array(), horizon, dt).path


def solve_system(system, params, r, init, horizon, dt):
    """Path of one of the five ``SYSTEMS`` from ``init`` = (y_star, y, z).

    Returns a ReflectedSolution with columns (y_star, y, z), each system
    starting from the coordinates it evolves and holding the others at 0;
    the regulator is 0 except for the two auxiliary systems.  The ODE
    systems raise RegimeMismatch outside their regime.  A horizon below
    ``dt``, which has no grid step, is refused for every system.  The start,
    its held coordinate set to 0, must pass ``FluidState.check``; a start
    within that check's tolerance outside the domain starts on its
    boundary: at 0, at z = r, or at y_star + y = 1 with y lowered.  An
    unknown system, then parameters that ``model.validate`` refuses, then an
    r that is not finite and >= 0, is refused first.
    """
    if system not in SYSTEMS:
        raise DomainError("system", f"system must be one of {SYSTEMS}")
    model.validate(params)
    if not 0 <= r < math.inf:
        raise DomainError("r", f"r must be finite and >= 0, got {r!r}")
    grid_steps(horizon, dt)
    if horizon < dt:
        raise DomainError("horizon", "horizon must be at least dt")
    if system.endswith("-ode"):
        wanted = Regime.Overloaded if system == "overloaded-ode" else Regime.Underloaded
        regime = classify_regime(params, r)
        if regime is not wanted:
            raise RegimeMismatch(
                f"{system} needs an {wanted.name.lower()} ratio; r={r!r} is {regime.name}"
            )
    y_star, y, z = init
    held = {Y_STAR, Z}.difference(_SIDES[system][1])  # what the system holds at 0
    x0 = [0.0 if c in held else v for c, v in enumerate((y_star, y, z))]
    FluidState(*x0).check(r, y_star_held=Y_STAR in held)
    x0 = np.maximum(x0, 0.0)
    x0 = np.minimum(x0, (1.0, 1.0 - min(x0[Y_STAR], 1.0), r))
    values, regulator, _ = _affine_path(system, params, r, x0, horizon, dt)
    if system == "aux-noblock":
        values[:, Y] = y_b_closed_form(dt * np.arange(len(values)), params, x0[Y])
    return ReflectedSolution(SampledPath(0.0, dt, values), SampledPath(0.0, dt, regulator))
