"""Deterministic fluid dynamics of the two-level network, solved exactly.

Every fluid system is piecewise affine: between switches it follows the
overloaded interior (z = 0), the underloaded interior (y_star = 0), or an
auxiliary system's sliding mode on y_star = 0 or z = 0.  A segment is
expm(M t) x0 on the state (y_star, y, z, u, 1), regulator u included, and a
switch time is a root of that closed form.  Also here: the integral
functional that cross-validates the saturated system through the Picard
solver, and ``solve_system``.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm
from scipy.linalg.blas import dtbsv

from .errors import DomainError, NonFinite, RegimeMismatch, TooManySwitches
from .model import FluidState, Regime, classify_regime, y_b_closed_form
from .skorokhod import PathFunctional, SampledPath, grid_steps


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
    """One affine regime x' = matrix @ x on (y_star, y, z, u, 1): it lasts
    while ``guard @ x >= 0`` (for ever without a guard) and holds
    coordinate ``pinned`` at exactly 0."""

    matrix: np.ndarray
    guard: np.ndarray | None
    pinned: int


def _system_modes(system, params, r):
    """The modes of ``system`` at ratio r, the first tried first at t = 0.

    ``blocked`` is the overloaded interior (z = 0), ``free`` the underloaded
    one (y_star = 0).  A sliding mode holds an auxiliary system on its
    boundary while u cancels the outward drift, until that rate turns negative.
    """
    p, mu01, mu11, mu02 = params.p, params.mu01, params.mu11, params.mu02
    surplus = np.array([0.0, mu01, 0.0, 0.0, -mu02 * r])  # mu01 y - mu02 r
    relax = (0.0, -(1 - p) * mu01 - p * mu11, 0.0, 0.0, p * mu11)  # dy while y_star = 0
    blocked, free, sliding, unit = np.zeros((5, 5)), np.zeros((5, 5)), np.zeros((5, 5)), np.eye(5)
    blocked[Y_STAR] = surplus
    blocked[Y] = (-p * mu11, -(mu01 + p * mu11), 0.0, 0.0, p * (mu02 * r + mu11))
    free[Y], free[Z] = relax, (0.0, -mu01, -mu02, 0.0, mu02 * r)
    sliding[Y], sliding[U] = relax, -surplus if system == "aux-saturated" else surplus
    return {
        "overloaded-ode": (_Mode(blocked, None, Z),),
        "underloaded-ode": (_Mode(free, None, Y_STAR),),
        "hybrid": (_Mode(blocked, unit[Y_STAR], Z), _Mode(free, unit[Z], Y_STAR)),
        "aux-saturated": (_Mode(blocked, unit[Y_STAR], Z), _Mode(sliding, sliding[U], Y_STAR)),
        "aux-noblock": (_Mode(free, unit[Z], Y_STAR), _Mode(sliding, sliding[U], Z)),
    }[system]


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

    Returns rows (y_star, y, z) and the regulator u, or None without one.
    A segment is sampled by doubling: rows [m, 2m) are rows [0, m) moved by
    the affine map expm(M dt)^m.  Past a guard crossing, the local Brent
    solver ``_brentq`` on expm(M s) x finds the switch time inside that grid
    step; the path then toggles mode and sets the new mode's pinned
    coordinate to exactly 0.
    """
    steps = grid_steps(horizon, dt)
    modes = _system_modes(system, params, r)
    x = np.array([*x0, 0.0, 1.0])
    mode = 0 if _starts_in(modes[0], x) else 1
    n = ONE if any(m.matrix[U].any() for m in modes) else U
    out = np.empty((steps + 1, n))
    t, k = 0.0, 0  # start time of the segment, first grid index it samples
    for _ in range(MAX_SWITCHES + 1):
        matrix, guard, pinned = modes[mode]
        x[pinned] = 0.0
        held = ~matrix[:n].any(axis=1)
        seg = out[k:]
        seg[0] = (expm(matrix * (k * dt - t)) @ x)[:n]
        phi = expm(matrix * dt)
        checked, filled, end = 0, 1, len(seg)
        while True:
            if guard is not None:
                crossed = np.flatnonzero(seg[checked:filled] @ guard[:n] + guard[ONE] < 0)
                if crossed.size:
                    end = checked + int(crossed[0])
                    break
            if filled == len(seg):
                break
            take = min(filled, len(seg) - filled)
            block = seg[filled:filled + take]
            np.matmul(seg[:take], phi[:n, :n].T, out=block)
            block += phi[:n, ONE]
            checked, filled = filled, filled + take
            phi = phi @ phi
        seg[:end, held] = x[:n][held]
        if not np.isfinite(seg[:end]).all():
            raise NonFinite(f"{system} fluid state non-finite after t={t}")
        if end == len(seg):
            return out[:, :U], out[:, U] if n > U else None
        # The guard crossed 0 in the grid step before sample `end`.
        t0, width = ((k + end - 1) * dt, dt) if end else (t, k * dt - t)
        base = np.concatenate((seg[end - 1], x[n:])) if end else x
        s = (_brentq(lambda s: guard @ (expm(matrix * s) @ base), 0.0, width, xtol=1e-15)
             if guard @ base > 0 else 0.0)
        x = expm(matrix * s) @ base
        x[:n][held] = base[:n][held]
        t, k, mode = t0 + s, k + end, 1 - mode
    raise TooManySwitches(f"fluid path switched mode more than {MAX_SWITCHES} times by t={t:.6g}")


def _reflected(values, regulator, dt):
    return ReflectedSolution(SampledPath(0.0, dt, values), SampledPath(0.0, dt, regulator))


def aux_saturated_fluid(params, r, init, horizon, dt=1e-3):
    """Fluid path of the always-saturated system, reflected at y_star = 0.

    In the interior both coordinates follow the overloaded drift.  On
    y_star = 0 the path slides with dy = -(1-p) mu01 y + p mu11 (1 - y)
    while the regulator u absorbs the deficit mu02 r - mu01 y, and leaves
    the boundary when that deficit turns negative.
    """
    y_star, y = float(init[0]), float(init[1])
    if y_star < 0:
        raise DomainError("y_star", "initial y_star must be >= 0")
    if y < 0 or y_star + y > 1:
        raise DomainError("y", "initial (y_star, y) must lie in the simplex")
    return _reflected(*_affine_path("aux-saturated", params, r, (y_star, y, 0.0), horizon, dt), dt)


def aux_noblock_fluid(params, r, init, horizon, dt=1e-3):
    """Fluid path of the no-blocking system: y in closed form, z reflected at 0.

    z follows dz = mu02*(r - z) - mu01*y_b(t); while mu01*y_b exceeds
    mu02*r the path slides on z = 0 and the deficit accumulates in the
    regulator.  The y column is ``y_b_closed_form`` itself.
    """
    y0, z0 = float(init[0]), float(init[1])
    if not 0 <= y0 <= 1:
        raise DomainError("y", "initial y must lie in [0, 1]")
    if not 0 <= z0 <= r:
        raise DomainError("z", f"initial z must lie in [0, r] = [0, {r}]")
    values, regulator = _affine_path("aux-noblock", params, r, (0.0, y0, z0), horizon, dt)
    values[:, Y] = y_b_closed_form(dt * np.arange(len(values)), params, y0)
    return _reflected(values, regulator, dt)


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
    solved as a unit lower-bidiagonal banded system.  The terms that depend
    on the grid alone are kept from one call to the next on the same grid.
    """
    y_star0, y0 = float(init[0]), float(init[1])
    if y_star0 < 0 or y0 < 0 or y_star0 + y0 > 1:
        raise DomainError("init", "initial (y_star, y) must lie in the simplex")
    p, mu01, mu11, mu02 = params.p, params.mu01, params.mu11, params.mu02
    mubar = (1 - p) * mu01 + p * mu11

    @functools.lru_cache(maxsize=1)
    def grid_terms(t0, dt, n):
        """e^{-mubar dt}, the recursion's band and Gbar's path-independent part."""
        t = t0 + dt * np.arange(n)
        et = np.exp(-mubar * t)
        k_times_decay = (p * y_star0 + y0) / mubar * (1.0 - et) + (
            p * mu11 / mubar**2
        ) * (et + mubar * t - 1.0)
        decay = np.exp(-mubar * dt)
        # Row 0 is the unit diagonal (never read), row 1 the subdiagonal.
        band = np.zeros((2, n), order="F")
        band[1, :-1] = -decay
        return decay, band, y_star0 + mu01 * k_times_decay - mu02 * r * t

    def apply(path):
        x = path.values
        if x.ndim != 1:
            raise DomainError("values", "the functional expects a scalar path")
        dt = path.dt
        n = len(x)
        decay, band, free = grid_terms(path.t0, dt, n)
        inner = np.concatenate(([0.0], np.cumsum((x[1:] + x[:-1]) * (dt / 2))))
        w = x + mu11 * inner
        c = np.empty(n)
        c[0] = 0.0
        c[1:] = (dt / 2) * (w[:-1] * decay + w[1:])
        conv = dtbsv(1, band, c, lower=1, diag=1, overwrite_x=1)
        return SampledPath(path.t0, dt, -p * mu01 * conv + free)

    return PathFunctional(apply=apply)


def hybrid_fluid(params, r, init, horizon, dt=1e-3):
    """Global fluid path from any admissible initial state.

    Switches from the overloaded interior (z = 0) to the underloaded one
    (y_star = 0) when y_star reaches 0, and back when z reaches 0.  At the
    double boundary the surplus of class-0 inflow mu01*y over specialist
    throughput mu02*r decides: a positive surplus accumulates blocked
    operators, a deficit accumulates idle specialists.
    """
    init.check(r)
    x0 = np.maximum((init.y_star, init.y, init.z), 0.0)
    return SampledPath(0.0, dt, _affine_path("hybrid", params, r, x0, horizon, dt)[0])


SYSTEMS = ("hybrid", "aux-saturated", "aux-noblock", "overloaded-ode", "underloaded-ode")


def solve_system(system, params, r, init, horizon, dt):
    """Path of one of the five ``SYSTEMS`` from ``init`` = (y_star, y, z).

    Returns a ReflectedSolution with columns (y_star, y, z), each system
    starting from the coordinates it evolves and holding the others at 0;
    the regulator is 0 except for the two auxiliary systems.  The ODE
    systems raise RegimeMismatch outside their regime.  A horizon below
    ``dt``, which has no grid step, is refused for every system.
    """
    grid_steps(horizon, dt)
    if horizon < dt:
        raise DomainError("horizon", "horizon must be at least dt")
    if system == "aux-saturated":
        return aux_saturated_fluid(params, r, init[:2], horizon, dt)
    if system == "aux-noblock":
        return aux_noblock_fluid(params, r, init[1:], horizon, dt)
    if system == "hybrid":
        values = hybrid_fluid(params, r, FluidState(*init), horizon, dt).values
    else:
        wanted = Regime.Overloaded if system == "overloaded-ode" else Regime.Underloaded
        regime = classify_regime(params, r)
        if regime is not wanted:
            raise RegimeMismatch(
                f"{system} needs an {wanted.name.lower()} ratio; r={r!r} is {regime.name}"
            )
        values = _affine_path(system, params, r, init, horizon, dt)[0]
    return _reflected(values, np.zeros(len(values)), dt)
