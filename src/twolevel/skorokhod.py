"""One-dimensional Skorokhod reflection on sampled paths.

Two pieces: the explicit reflection map for a known free path, and a
Picard solver for generalized problems where the free path is itself a
causal functional of the (unknown) reflected solution.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatch, NoConvergence


def grid_steps(horizon, dt):
    """Number of dt steps to reach ``horizon``; DomainError for dt <= 0 or horizon < 0."""
    if not dt > 0:
        raise DomainError("dt", f"dt must be positive, got {dt!r}")
    if not 0 <= horizon < np.inf:
        raise DomainError("horizon", f"horizon must be finite and >= 0, got {horizon!r}")
    return int(round(horizon / dt))


@dataclass(frozen=True)
class SampledPath:
    """Real-valued path sampled on the uniform grid t0 + k*dt.

    values may be 1-D (scalar path) or 2-D with one row per grid point
    (vector path).
    """

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.dt <= 0:
            raise DomainError("dt", "grid step must be positive")
        if len(self.values) < 1:
            raise DomainError("values", "a path needs at least one sample")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("values", "path values must be finite")

    @property
    def times(self):
        return self.t0 + self.dt * np.arange(len(self.values))

    def __len__(self):
        return len(self.values)

    def same_grid(self, other):
        return (
            len(self) == len(other)
            and abs(self.t0 - other.t0) < 1e-12
            and abs(self.dt - other.dt) < 1e-15
        )


def reflect_1d(free):
    """Reflect a sampled path at zero.

    Returns (reflected, regulator) with reflected = free + regulator,
    reflected >= 0, regulator non-decreasing from 0 and increasing only
    where the reflected path sits at (grid-resolution) zero.  Computed by
    the running-infimum formula, one pass over the samples.
    """
    f = free.values
    if f.ndim != 1:
        raise DomainError("values", "reflect_1d expects a scalar path")
    if f[0] < 0:
        raise DomainError("values", f"free path must start >= 0, got {f[0]}")
    running_min = np.minimum.accumulate(f)
    regulator = np.maximum(0.0, -running_min)
    reflected = f + regulator
    return (
        SampledPath(free.t0, free.dt, reflected),
        SampledPath(free.t0, free.dt, regulator),
    )


def check_complementarity(reflected, regulator, tol):
    """True iff the regulator only grows while the reflected path is at zero.

    Checks the discrete complementarity sum  sum_k reflected[k] * (regulator[k]
    - regulator[k-1]) <= tol  together with monotonicity of the regulator.
    """
    if not reflected.same_grid(regulator):
        raise GridMismatch("reflected and regulator paths live on different grids")
    du = np.diff(regulator.values)
    if np.any(du < -1e-15):
        return False
    coupling = float(np.sum(reflected.values[1:] * np.maximum(du, 0.0)))
    return coupling <= tol


def solve_generalized(phi, horizon, dt, tol=1e-9, max_iter=200, start=None):
    """Solve the generalized reflection problem x = reflect(phi(x)) by Picard iteration.

    ``phi`` is a causal map between sampled paths: phi(path) is a path on
    the same grid whose value at index k depends only on input indices
    <= k.  Starts from x ≡ 0 (or ``start``), applies x <- reflect_1d(phi(x))
    until the sup-norm change is <= tol.  Returns (solution, regulator,
    iterations).  Raises NoConvergence(max_iter) carrying the last
    residual when the iteration budget runs out -- the usual causes are a
    horizon too long for the functional's contraction or an over-tight tol.
    """
    n = grid_steps(horizon, dt) + 1
    if start is None:
        x = SampledPath(0.0, dt, np.zeros(n))
    else:
        x = start
    regulator = SampledPath(0.0, dt, np.zeros(n))
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        free = phi(x)
        new, regulator = reflect_1d(free)
        residual = float(np.max(np.abs(new.values - x.values)))
        x = new
        if residual <= tol:
            return x, regulator, iteration
    raise NoConvergence(max_iter, residual)
