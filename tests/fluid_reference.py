"""Projected-Euler reference for the three reflected fluid systems, the
closed-form drifts of the two regime interiors, and full-horizon Picard.

Written independently of the exact piecewise-affine solver in
``twolevel.fluid``: each system is advanced by explicit Euler steps of its
drift and projected back onto its constraint set, the deficit booked into
the regulator.  The result is first-order accurate in dt, so the tests
compare it with the exact paths as dt shrinks, not to roundoff.
``reflect_1d`` is the running-infimum reflection in numpy, the reference
for the compiled one behind ``solve_generalized``.
``overloaded_rhs`` and ``underloaded_rhs`` state the interior drifts by
hand; the tests check them against the fixed points and the transition
tables' drift, and ``reference_modes`` builds from them the affine modes
that ``fluid`` derives from the tables.  ``picard_full_horizon`` is Picard on
the whole horizon at once, the reference for the windowed
``solve_generalized``, and ``gbar_reference`` the Picard functional in
numpy with a BLAS banded solve, the reference for the compiled
``gbar_functional``.  ``affine_path_reference`` is the exact solver's
segment loop with the doubling in numpy and scipy's ``expm`` and ``brentq``,
the reference for the compiled segments of ``fluid._affine_path``.
"""

import numpy as np

from twolevel import (
    DomainError,
    NoConvergence,
    SampledPath,
    TooManySwitches,
    fluid,
    y_b_closed_form,
)


def reflect_1d(free, running_min=None):
    """Reflect a sampled path at zero.

    Returns (reflected, regulator) with reflected = free + regulator,
    reflected >= 0, regulator non-decreasing from 0 and increasing only
    where the reflected path sits at (grid-resolution) zero.  Computed by
    the running-infimum formula, one pass over the samples.  A path that
    continues one reflected earlier passes ``running_min``, the minimum of
    the free path up to its first sample, and its regulator continues from
    that level; a path without one must start >= 0.
    """
    f = free.values
    if f.ndim != 1:
        raise DomainError("values", "reflect_1d expects a scalar path")
    low = np.minimum.accumulate(f)
    if running_min is None:
        if f[0] < 0:
            raise DomainError("values", f"free path must start >= 0, got {f[0]}")
    else:
        np.minimum(low, running_min, out=low)
    regulator = np.maximum(0.0, -low)
    reflected = f + regulator
    return (
        SampledPath(free.t0, free.dt, reflected),
        SampledPath(free.t0, free.dt, regulator),
    )


def overloaded_rhs(state, params, r):
    """Drift of (y_star, y) while every specialist is busy (z = 0)."""
    y_star, y = state
    d_y_star = params.mu01 * y - params.mu02 * r
    d_y = -params.mu01 * y + params.p * (
        params.mu02 * r + params.mu11 * (1.0 - y_star - y)
    )
    return (d_y_star, d_y)


def underloaded_rhs(state, params, r):
    """Drift of (y, z) while no operator is blocked (y_star = 0)."""
    y, z = state
    d_y = -(params.p * params.mu11 + (1 - params.p) * params.mu01) * y + params.p * params.mu11
    d_z = -params.mu02 * z - params.mu01 * y + params.mu02 * r
    return (d_y, d_z)


def _affine(rhs, coords, params, r):
    """The matrix on (y_star, y, z, u, 1) of ``rhs``, an affine drift of the coordinates
    ``coords``: its value at 0 in column ONE, less that, its value at each unit vector."""
    one, matrix = fluid.ONE, np.zeros((5, 5))
    matrix[coords, one] = rhs((0.0, 0.0), params, r)
    for unit, j in zip(np.eye(2), coords):
        matrix[coords, j] = np.array(rhs(unit, params, r)) - matrix[coords, one]
    return matrix


def reference_modes(system, params, r):
    """(matrix, guard, pinned) of each mode of ``system``, as ``fluid._system_modes``
    orders them, from the closed-form drifts above.

    ``blocked`` is ``overloaded_rhs`` with z pinned, ``free`` is ``underloaded_rhs``
    with y_star pinned.  A sliding mode moves y by ``underloaded_rhs``'s dy (the relax
    row) and u by -(mu01 y - mu02 r) on y_star = 0, +(mu01 y - mu02 r) on z = 0; its
    guard is that u row.
    """
    y_star, y, z, u, one = range(5)
    blocked = _affine(overloaded_rhs, [y_star, y], params, r)
    free = _affine(underloaded_rhs, [y, z], params, r)
    surplus = np.zeros(5)
    surplus[y], surplus[one] = params.mu01, -params.mu02 * r
    saturated, noblock, unit = np.zeros((5, 5)), np.zeros((5, 5)), np.eye(5)
    saturated[y], saturated[u] = free[y], -surplus
    noblock[y], noblock[u] = free[y], surplus
    return {
        "overloaded-ode": [(blocked, None, z)],
        "underloaded-ode": [(free, None, y_star)],
        "hybrid": [(blocked, unit[y_star], z), (free, unit[z], y_star)],
        "aux-saturated": [(blocked, unit[y_star], z), (saturated, saturated[u], y_star)],
        "aux-noblock": [(free, unit[z], y_star), (noblock, noblock[u], z)],
    }[system]


def _steps(horizon, dt):
    return int(round(horizon / dt))


def euler_saturated(params, r, init, horizon, dt):
    """(path, regulator) of the saturated system, reflected at y_star = 0.

    A would-be negative y_star is set to 0, the deficit is booked into the
    regulator u, and y receives the coupled correction -p * du.
    """
    y_star, y = float(init[0]), float(init[1])
    p, mu01, mu11, mu02 = params.p, params.mu01, params.mu11, params.mu02
    steps = _steps(horizon, dt)
    path = np.zeros((steps + 1, 3))
    reg = np.zeros(steps + 1)
    path[0, 0], path[0, 1] = y_star, y
    u = 0.0
    for k in range(steps):
        d_y_star = mu01 * y - mu02 * r
        d_y = -mu01 * y + p * mu11 * (1.0 - y_star - y) + p * mu02 * r
        y_star_next = y_star + dt * d_y_star
        y_next = y + dt * d_y
        if y_star_next < 0.0:
            du = -y_star_next
            y_star_next = 0.0
            y_next -= p * du
            u += du
        y_star, y = y_star_next, y_next
        path[k + 1, 0], path[k + 1, 1] = y_star, y
        reg[k + 1] = u
    return path, reg


def euler_noblock(params, r, init, horizon, dt):
    """(path, regulator) of the no-blocking system: y in closed form, z reflected at 0."""
    y0, z = float(init[0]), float(init[1])
    mu01, mu02 = params.mu01, params.mu02
    steps = _steps(horizon, dt)
    yb = np.atleast_1d(y_b_closed_form(dt * np.arange(steps + 1), params, y0))
    path = np.zeros((steps + 1, 3))
    reg = np.zeros(steps + 1)
    path[:, 1] = yb
    path[0, 2] = z
    u = 0.0
    for k in range(steps):
        z_next = z + dt * (mu02 * (r - z) - mu01 * yb[k])
        if z_next < 0.0:
            u += -z_next
            z_next = 0.0
        z = z_next
        path[k + 1, 2] = z
        reg[k + 1] = u
    return path, reg


def euler_hybrid(params, r, init, horizon, dt):
    """Path of the global dynamics, projected onto the admissible set each step.

    The blocking branch runs while y_star > 0, or at y_star = z = 0 while
    class-0 inflow mu01*y exceeds specialist throughput mu02*r.
    """
    y_star, y, z = (float(v) for v in init)
    p, mu01, mu11, mu02 = params.p, params.mu01, params.mu11, params.mu02
    steps = _steps(horizon, dt)
    out = np.empty((steps + 1, 3))
    out[0] = (y_star, y, z)
    for k in range(steps):
        if y_star > 0 or (z <= 0 and mu01 * y - mu02 * r > 0):
            d_y_star = mu01 * y - mu02 * r
            d_y = -mu01 * y + p * (mu02 * r + mu11 * (1.0 - y_star - y))
            d_z = 0.0
        else:
            d_y_star = 0.0
            d_y = -(1 - p) * mu01 * y + p * mu11 * (1.0 - y)
            d_z = -mu01 * y + mu02 * (r - z)
        y_star = max(0.0, y_star + dt * d_y_star)
        z = min(max(0.0, z + dt * d_z), r)
        y = min(max(0.0, y + dt * d_y), 1.0 - y_star)
        out[k + 1] = (y_star, y, z)
    return out


def gbar_reference(params, r, init):
    """``fluid.gbar_functional``'s Gbar in numpy, with the same contract.

    The nested trapezoid integrals are a cumulative sum and array
    arithmetic; the convolution conv_k = c_k + e^{-mubar dt} conv_{k-1} is
    solved as a unit lower-bidiagonal banded system by BLAS ``dtbsv``.
    """
    from scipy.linalg.blas import dtbsv

    y_star0, y0 = init
    p, mu01, mu11, mu02 = params.p, params.mu01, params.mu11, params.mu02
    mubar = (1 - p) * mu01 + p * mu11

    def gbar(x, t0, dt, carried):
        n = len(x)
        t = t0 + dt * np.arange(n)
        et = np.exp(-mubar * t)
        k_times_decay = (p * y_star0 + y0) / mubar * (1.0 - et) + (
            p * mu11 / mubar**2
        ) * (et + mubar * t - 1.0)
        decay = np.exp(-mubar * dt)
        # Row 0 is the unit diagonal (never read), row 1 the subdiagonal.
        band = np.zeros((2, n), order="F")
        band[1, :-1] = -decay
        inner, c = np.empty(n), np.empty(n)
        inner[0], c[0] = (0.0, 0.0) if carried is None else carried
        np.add(x[1:], x[:-1], out=inner[1:])
        inner[1:] *= dt / 2
        np.cumsum(inner, out=inner)
        w = mu11 * inner
        w += x
        np.multiply(w[:-1], decay, out=c[1:])
        c[1:] += w[1:]
        c[1:] *= dt / 2
        conv = dtbsv(1, band, c, lower=1, diag=1, overwrite_x=1)
        out = -p * mu01 * conv
        out += y_star0 + mu01 * k_times_decay - mu02 * r * t
        return out, (inner[-1], conv[-1])

    return gbar


def picard_full_horizon(phi, horizon, dt, tol=1e-9, max_iter=200):
    """(solution, regulator, sweeps) of x = reflect(phi(x)) by Picard on all of [0, horizon].

    Every sweep applies ``phi`` to the whole grid from t = 0, with no
    carried state, starting from x = 0; NoConvergence after ``max_iter``
    sweeps.
    """
    x = SampledPath(0.0, dt, np.zeros(_steps(horizon, dt) + 1))
    residual = np.inf
    for sweep in range(1, max_iter + 1):
        free, _ = phi(x.values, 0.0, dt, None)
        new, regulator = reflect_1d(SampledPath(0.0, dt, free))
        residual = float(np.max(np.abs(new.values - x.values)))
        x = new
        if residual <= tol:
            return x, regulator, sweep
    raise NoConvergence(max_iter, residual)


def affine_path_reference(system, params, r, x0, horizon, dt):
    """``fluid._affine_path`` with numpy doubling: (rows, regulator, switches).

    Each segment's first row is scipy's ``expm(M s) x``; rows [m, 2m) are
    rows [0, m) times expm(M dt)^m by ``np.matmul``, the guard scanned after
    each block.  A switch time is scipy's ``brentq`` root of the guard of
    ``expm(M s) x`` inside the grid step where the guard went negative.
    """
    from scipy.linalg import expm
    from scipy.optimize import brentq

    one, u = fluid.ONE, fluid.U
    steps = int(np.floor(horizon / dt + 1e-9))
    modes = fluid._system_modes(system, params, r)
    x = np.array([*x0, 0.0, 1.0])
    mode = 0 if fluid._starts_in(modes[0], x) else 1
    n = one if any(m.matrix[u].any() for m in modes) else u
    out = np.empty((steps + 1, n))
    t, k, switches = 0.0, 0, []
    for _ in range(fluid.MAX_SWITCHES + 1):
        matrix, guard, pinned = modes[mode]
        x[pinned] = 0.0
        held = ~matrix[:n].any(axis=1)
        seg = out[k:]
        seg[0] = (expm(matrix * (k * dt - t)) @ x)[:n]
        phi = expm(matrix * dt)
        checked, filled, end = 0, 1, len(seg)
        while True:
            if guard is not None:
                crossed = np.flatnonzero(seg[checked:filled] @ guard[:n] + guard[one] < 0)
                if crossed.size:
                    end = checked + int(crossed[0])
                    break
            if filled == len(seg):
                break
            take = min(filled, len(seg) - filled)
            block = seg[filled:filled + take]
            np.matmul(seg[:take], phi[:n, :n].T, out=block)
            block += phi[:n, one]
            checked, filled = filled, filled + take
            phi = phi @ phi
        seg[:end, held] = x[:n][held]
        if end == len(seg):
            return out[:, :u], out[:, u] if n > u else np.zeros(len(out)), switches
        t0, width = ((k + end - 1) * dt, dt) if end else (t, k * dt - t)
        base = np.concatenate((seg[end - 1], x[n:])) if end else x
        s = (brentq(lambda s: guard @ (expm(matrix * s) @ base), 0.0, width, xtol=1e-15)
             if guard @ base > 0 else 0.0)
        x = expm(matrix * s) @ base
        x[:n][held] = base[:n][held]
        t, k, mode = t0 + s, k + end, 1 - mode
        switches.append((k, t))
    raise TooManySwitches(f"reference path switched mode more than {fluid.MAX_SWITCHES} times")
