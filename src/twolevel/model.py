"""Parameters, regime classification, and closed-form quantities.

The network has N front-line (level-1) operators and C2 specialists
(level 2).  Operators continuously take calls; a fraction p of fresh
calls are "class 0": once the level-1 phase completes (rate mu01), the
call must be handed to an idle specialist for an exp(mu02) consult.  If
every specialist is busy, the operator is *blocked* -- it holds the call
and can take no new work until a specialist frees up.  Level-1 work that
needs no specialist proceeds at rate mu11.

Everything here is a closed form in the parameters: the critical
capacity ratio separating the blocking and non-blocking regimes, the
fixed points of both fluid systems, the blocked-fraction limit, and the
envelope / relaxation curves used by the fluid solvers.  Also here: each
chain's transition table in ``PROCESSES``, the one statement of its rates
and jumps, which ``sim`` evaluates and ``native`` compiles to C.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, InvalidState, RegimeError


@dataclass(frozen=True)
class ModelParams:
    """Service rates and urgent-call mix.

    p     : probability an incoming call is class 0 (needs a specialist)
    mu01  : level-1 service rate for class-0 calls
    mu11  : level-1 service rate for ordinary calls
    mu02  : specialist (level-2) service rate
    """

    p: float
    mu01: float
    mu11: float
    mu02: float


@dataclass(frozen=True)
class ScalingParams:
    """Capacities of the two pools: n level-1 operators, c2 specialists."""

    n: int
    c2: int

    @property
    def r(self):
        return self.c2 / self.n


class Regime(Enum):
    Underloaded = "Underloaded"
    Overloaded = "Overloaded"
    Critical = "Critical"


@dataclass(frozen=True)
class FluidState:
    """Fractions (of n) of blocked operators, class-0-busy operators, idle specialists."""

    y_star: float
    y: float
    z: float

    def check(self, r, y_star_held=False):
        """Raise DomainError naming the first violated fluid-domain constraint.

        Each bound holds within 1e-9.  With ``y_star_held`` (a system that
        holds y_star at 0) the bound y_star + y <= 1 is a bound on y and is
        reported as one.
        """
        tol = 1e-9
        if not (-tol <= self.y_star):
            raise DomainError("y_star", "y_star must be non-negative")
        if not (-tol <= self.y):
            raise DomainError("y", "y must be non-negative")
        if self.y_star + self.y > 1 + tol:
            if y_star_held:
                raise DomainError("y", "y exceeds 1")
            raise DomainError("y_star", "y_star + y exceeds 1")
        if not (-tol <= self.z <= r + tol):
            raise DomainError("z", f"z must lie in [0, r] = [0, {r}]")
        if self.y_star * self.z > tol:
            raise DomainError("y_star", "y_star and z cannot both be positive")

    def as_array(self):
        return np.array([self.y_star, self.y, self.z])


def validate(params, scaling=None):
    """Check all invariants, of the scale alone if ``params`` is None; raise DomainError."""
    if params is not None:
        p = params.p
        if not (isinstance(p, (int, float)) and math.isfinite(p) and 0 <= p <= 1):
            raise DomainError("p", f"p must lie in [0, 1], got {p!r}")
        for name in ("mu01", "mu11", "mu02"):
            rate = getattr(params, name)
            if not (isinstance(rate, (int, float)) and math.isfinite(rate) and rate > 0):
                raise DomainError(name, f"{name} must be a positive finite rate, got {rate!r}")
    if scaling is not None:
        if not (isinstance(scaling.n, (int, np.integer)) and scaling.n >= 1):
            raise DomainError("n", f"n must be an integer >= 1, got {scaling.n!r}")
        if not (isinstance(scaling.c2, (int, np.integer)) and scaling.c2 >= 1):
            raise DomainError("c2", f"c2 must be an integer >= 1, got {scaling.c2!r}")


def critical_ratio(params):
    """Capacity ratio c2/n below which blocking persists in the large-n limit.

    Balances the specialist drain rate against the long-run rate at which
    level-1 operators produce specialist-bound work.  Like every closed form
    here, it first refuses, through ``validate``, parameters no chain has.
    """
    validate(params)
    if params.p == 0:
        return 0.0
    return (params.p / params.mu02) / (
        params.p / params.mu01 + (1 - params.p) / params.mu11
    )


def classify_regime(params, r):
    """Classify the load regime of capacity ratio r.

    Underloaded iff r > r_c + tol, Overloaded iff r < r_c - tol, Critical
    otherwise, with tol = 1e-12 relative to r_c (absolute below r_c = 1);
    equality is always surfaced as Critical, never silently assigned.
    """
    r_c = critical_ratio(params)
    tol = 1e-12 * max(1.0, r_c)
    if r > r_c + tol:
        return Regime.Underloaded
    if r < r_c - tol:
        return Regime.Overloaded
    return Regime.Critical


def blocked_fraction_limit(params, r):
    """Long-run fraction of level-1 operators stuck blocked when capacity is short.

    The y_star coordinate of ``overloaded_fixed_point``, so defined only
    for p > 0 and where ``classify_regime`` says Overloaded.
    """
    return overloaded_fixed_point(params, r)[0]


def overloaded_fixed_point(params, r):
    """Rest point (y_star, y) of the overloaded fluid dynamics (z pinned at 0).

    DomainError for p = 0, then RegimeError unless ``classify_regime`` says Overloaded."""
    if params.p == 0:
        raise DomainError("p", "overloaded fixed point requires p > 0")
    if classify_regime(params, r) is not Regime.Overloaded:
        raise RegimeError(f"r={r} is not in the overloaded regime")
    y = params.mu02 * r / params.mu01
    y_star = 1.0 - y * ((1 - params.p) * params.mu01 / (params.p * params.mu11) + 1.0)
    return (y_star, y)


def underloaded_fixed_point(params, r):
    """Rest point (y, z) of the underloaded fluid dynamics (y_star pinned at 0).

    RegimeError unless ``classify_regime`` says Underloaded (not within its Critical band)."""
    if classify_regime(params, r) is not Regime.Underloaded:
        raise RegimeError(f"r={r} is not in the underloaded regime")
    y = y_bar(params)
    denom = params.mu02 * (params.p * params.mu11 + (1 - params.p) * params.mu01)
    z = r - params.p * params.mu01 * params.mu11 / denom
    return (y, z)


def y_bar(params):
    """Long-run class-0 share of level-1 operators when none are ever blocked."""
    validate(params)
    birth = params.p * params.mu11
    return birth / (birth + (1 - params.p) * params.mu01)


def y_underline(params, r):
    """Class-0 occupancy at level 1 needed to keep every specialist busy."""
    validate(params)
    return r * params.mu02 / params.mu01


def h_bar(t, params, r, init_sum):
    """Lower envelope for the total class-0 level-1 occupancy y_star + y.

    Relaxes exponentially (rate p*mu11) from init_sum to its limit
    1 - (1-p)*mu02*r/(p*mu11), which coincides with the coordinate sum of
    the overloaded fixed point.  Accepts scalar or array t.
    """
    validate(params)
    if params.p == 0:
        raise DomainError("p", "h_bar requires p > 0")
    rate = params.p * params.mu11
    limit = 1.0 - (1 - params.p) * params.mu02 * r / rate
    decay = np.exp(-rate * np.asarray(t, dtype=float))
    out = init_sum * decay + limit * (1.0 - decay)
    return float(out) if np.isscalar(t) else out


def y_b_closed_form(t, params, y0):
    """Class-0 occupancy path of the no-blocking dynamics, in closed form.

    Solves dy/dt = -(p*mu11 + (1-p)*mu01) * y + p*mu11 from y0; relaxes to
    y_bar.  Accepts scalar or array t.
    """
    validate(params)
    rate = params.p * params.mu11 + (1 - params.p) * params.mu01
    decay = np.exp(-rate * np.asarray(t, dtype=float))
    out = y0 * decay + y_bar(params) * (1.0 - decay)
    return float(out) if np.isscalar(t) else out


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
