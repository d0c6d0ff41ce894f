"""Deterministic fluid dynamics of the two-level network.

Right-hand sides for the two load regimes, a fixed-step RK4 integrator,
projected (reflected) Euler integration of the two auxiliary fluid
systems, the integral-functional builder used for cross-validating the
saturated system through the generalized reflection solver, and a global
"hybrid" dynamic that switches regime branches at the constraint
boundary.  ``solve_system`` runs any of these systems by name.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.signal import lfilter

from .errors import DomainError, NonFinite, RegimeMismatch
from .model import FluidState, Regime, classify_regime, y_b_closed_form
from .skorokhod import PathFunctional, SampledPath, grid_steps


class FluidDerivative(NamedTuple):
    d_y_star: float
    d_y: float
    d_z: float


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


def integrate(rhs, init, horizon, dt):
    """Classic fixed-step RK4 for rhs(t, state) -> d_state.

    Returns the solution as a vector SampledPath on the grid k*dt.
    Raises NonFinite as soon as a coordinate leaves finite range.
    """
    steps = grid_steps(horizon, dt)
    if horizon < dt:
        raise DomainError("horizon", "horizon must be at least dt")
    state = np.asarray(init, dtype=float)
    out = np.empty((steps + 1, state.size))
    out[0] = state
    for k in range(steps):
        t = k * dt
        k1 = np.asarray(rhs(t, state), dtype=float)
        k2 = np.asarray(rhs(t + dt / 2, state + dt / 2 * k1), dtype=float)
        k3 = np.asarray(rhs(t + dt / 2, state + dt / 2 * k2), dtype=float)
        k4 = np.asarray(rhs(t + dt, state + dt * k3), dtype=float)
        state = state + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(state)):
            raise NonFinite(f"state became non-finite at t={t + dt}")
        out[k + 1] = state
    return SampledPath(0.0, dt, out)


def aux_saturated_fluid(params, r, init, horizon, dt=1e-3):
    """Fluid path of the always-saturated system, reflected at y_star = 0.

    Projected Euler: each step advances both coordinates by the drift; a
    would-be negative y_star is set to 0, the deficit is booked into the
    regulator u, and y receives the coupled correction -p * du.
    """
    y_star, y = float(init[0]), float(init[1])
    if y_star < 0:
        raise DomainError("y_star", "initial y_star must be >= 0")
    if y < 0 or y_star + y > 1:
        raise DomainError("y", "initial (y_star, y) must lie in the simplex")
    p, mu01, mu11, mu02 = params.p, params.mu01, params.mu11, params.mu02
    steps = grid_steps(horizon, dt)
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
        if not (np.isfinite(y_star) and np.isfinite(y)):
            raise NonFinite(f"saturated fluid state non-finite at t={(k + 1) * dt}")
        path[k + 1, 0], path[k + 1, 1] = y_star, y
        reg[k + 1] = u
    return ReflectedSolution(SampledPath(0.0, dt, path), SampledPath(0.0, dt, reg))


def aux_noblock_fluid(params, r, init, horizon, dt=1e-3):
    """Fluid path of the no-blocking system: y in closed form, z reflected at 0.

    z follows projected Euler on dz = mu02*(r - z) - mu01*y_b(t); the idle
    pool cannot go negative, so the deficit accumulates in the regulator.
    """
    y0, z0 = float(init[0]), float(init[1])
    if not 0 <= y0 <= 1:
        raise DomainError("y", "initial y must lie in [0, 1]")
    if not 0 <= z0 <= r:
        raise DomainError("z", f"initial z must lie in [0, r] = [0, {r}]")
    mu01, mu02 = params.mu01, params.mu02
    steps = grid_steps(horizon, dt)
    grid = dt * np.arange(steps + 1)
    yb = np.atleast_1d(y_b_closed_form(grid, params, y0))
    path = np.zeros((steps + 1, 3))
    reg = np.zeros(steps + 1)
    path[:, 1] = yb
    z = z0
    u = 0.0
    path[0, 2] = z
    for k in range(steps):
        z_next = z + dt * (mu02 * (r - z) - mu01 * yb[k])
        if z_next < 0.0:
            u += -z_next
            z_next = 0.0
        z = z_next
        if not np.isfinite(z):
            raise NonFinite(f"no-blocking fluid z non-finite at t={(k + 1) * dt}")
        path[k + 1, 2] = z
        reg[k + 1] = u
    return ReflectedSolution(SampledPath(0.0, dt, path), SampledPath(0.0, dt, reg))


def gbar_functional(params, r, init):
    """Integral functional whose reflected fixed point is the saturated y_star path.

    Given a candidate blocked-fraction path x, produces the free path

        Gbar(x)(t) = G(x)(t) + y_star0 + mu01 * k(t) e^{-mubar t} - mu02 r t,
        G(x)(t)    = -p mu01 \\int_0^t (x(s) + mu11 \\int_0^s x) e^{-mubar (t-s)} ds,

    with mubar = (1-p) mu01 + p mu11 and k(t) the relaxation of the
    companion y-coordinate.  Discretized with trapezoid quadrature for
    both nested integrals; the convolution is evaluated through an
    exponentially-weighted prefix recursion, which is the same quadrature
    rearranged for O(n) cost and overflow-free long horizons.
    """
    y_star0, y0 = float(init[0]), float(init[1])
    if y_star0 < 0 or y0 < 0 or y_star0 + y0 > 1:
        raise DomainError("init", "initial (y_star, y) must lie in the simplex")
    p, mu01, mu11, mu02 = params.p, params.mu01, params.mu11, params.mu02
    mubar = (1 - p) * mu01 + p * mu11

    def apply(path):
        x = path.values
        if x.ndim != 1:
            raise DomainError("values", "the functional expects a scalar path")
        dt = path.dt
        n = len(x)
        t = path.times
        inner = np.concatenate(([0.0], np.cumsum((x[1:] + x[:-1]) * (dt / 2))))
        w = x + mu11 * inner
        decay = np.exp(-mubar * dt)
        c = np.empty(n)
        c[0] = 0.0
        c[1:] = (dt / 2) * (w[:-1] * decay + w[1:])
        conv = lfilter([1.0], [1.0, -decay], c)
        g = -p * mu01 * conv
        et = np.exp(-mubar * t)
        k_times_decay = (p * y_star0 + y0) / mubar * (1.0 - et) + (
            p * mu11 / mubar**2
        ) * (et + mubar * t - 1.0)
        return SampledPath(path.t0, dt, g + y_star0 + mu01 * k_times_decay - mu02 * r * t)

    return PathFunctional(apply=apply)


def hybrid_drift(state, params, r):
    """Drift of the full fluid dynamics with indicators resolved from ``state``.

    At the double boundary y_star = z = 0 the surplus of class-0 inflow
    mu01*y over specialist throughput mu02*r decides which constraint
    stays active: a positive surplus accumulates blocked operators, a
    deficit accumulates idle specialists.
    """
    y_star, y, z = state
    p, mu01, mu11, mu02 = params.p, params.mu01, params.mu11, params.mu02
    blocked_branch = y_star > 0 or (z <= 0 and mu01 * y - mu02 * r > 0)
    if blocked_branch:
        d_y_star, d_y = overloaded_rhs((y_star, y), params, r)
        return FluidDerivative(d_y_star, d_y, 0.0)
    d_y = -(1 - p) * mu01 * y + p * mu11 * (1.0 - y)
    d_z = -mu01 * y + mu02 * (r - z)
    return FluidDerivative(0.0, d_y, d_z)


def hybrid_fluid(params, r, init, horizon, dt=1e-3):
    """Global fluid path from any admissible initial state.

    Advances the hybrid drift by Euler steps and projects back to the
    admissible set {y_star >= 0, y >= 0, y_star + y <= 1, 0 <= z <= r,
    y_star * z = 0}.  On regime-consistent long runs the path settles at
    the corresponding fixed point.
    """
    init.check(r)
    y_star, y, z = init.y_star, init.y, init.z
    steps = grid_steps(horizon, dt)
    out = np.empty((steps + 1, 3))
    out[0] = (y_star, y, z)
    for k in range(steps):
        d = hybrid_drift((y_star, y, z), params, r)
        y_star += dt * d.d_y_star
        y += dt * d.d_y
        z += dt * d.d_z
        if y_star < 0.0:
            y_star = 0.0
        if z < 0.0:
            z = 0.0
        elif z > r:
            z = r
        if y < 0.0:
            y = 0.0
        elif y > 1.0 - y_star:
            y = 1.0 - y_star
        if not (np.isfinite(y_star) and np.isfinite(y) and np.isfinite(z)):
            raise NonFinite(f"hybrid fluid state non-finite at t={(k + 1) * dt}")
        out[k + 1] = (y_star, y, z)
    return SampledPath(0.0, dt, out)


SYSTEMS = ("hybrid", "aux-saturated", "aux-noblock", "overloaded-ode", "underloaded-ode")


def solve_system(system, params, r, init, horizon, dt):
    """Path of one of the five ``SYSTEMS`` from ``init`` = (y_star, y, z).

    Returns a ReflectedSolution with columns (y_star, y, z), each system
    starting from the coordinates it evolves and holding the others at 0;
    the regulator is 0 except for the two auxiliary systems.  The ODE
    systems raise RegimeMismatch outside their regime.
    """
    if system == "aux-saturated":
        return aux_saturated_fluid(params, r, init[:2], horizon, dt)
    if system == "aux-noblock":
        return aux_noblock_fluid(params, r, init[1:], horizon, dt)
    if system == "hybrid":
        values = hybrid_fluid(params, r, FluidState(*init), horizon, dt).values
    else:
        wanted, rhs, cols = {
            "overloaded-ode": (Regime.Overloaded, overloaded_rhs, [0, 1]),
            "underloaded-ode": (Regime.Underloaded, underloaded_rhs, [1, 2]),
        }[system]
        regime = classify_regime(params, r)
        if regime is not wanted:
            raise RegimeMismatch(
                f"{system} needs an {wanted.name.lower()} ratio; r={r!r} is {regime.name}"
            )
        path = integrate(lambda t, s: rhs(s, params, r), [init[c] for c in cols], horizon, dt)
        values = np.zeros((len(path), 3))
        values[:, cols] = path.values
    zeros = np.zeros(len(values))
    return ReflectedSolution(SampledPath(0.0, dt, values), SampledPath(0.0, dt, zeros))
