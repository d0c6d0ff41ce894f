"""Projected-Euler reference for the three reflected fluid systems, and the
closed-form drifts of the two regime interiors.

Written independently of the exact piecewise-affine solver in
``twolevel.fluid``: each system is advanced by explicit Euler steps of its
drift and projected back onto its constraint set, the deficit booked into
the regulator.  The result is first-order accurate in dt, so the tests
compare it with the exact paths as dt shrinks, not to roundoff.
``overloaded_rhs`` and ``underloaded_rhs`` state the interior drifts by
hand; the tests check them against the fixed points, the affine modes
and the transition tables' drift.
"""

import numpy as np

from twolevel import y_b_closed_form


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
