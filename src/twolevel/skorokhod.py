"""One-dimensional Skorokhod reflection on sampled paths.

A Picard solver for generalized problems where the free path is itself a
causal functional of the (unknown) reflected solution.  The solver runs
Picard on consecutive windows of ``WINDOW`` time units (waveform
relaxation): the functional restarts from the state it carried out of the
previous window, and the reflection, in the compiled library (``native``),
from the running minimum of the free path so far.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import native
from .errors import DomainError, GridMismatch, NoConvergence

# Length of one Picard window in time units.  Picard's contraction on [0, T]
# weakens as T grows; on windows of 1, 3 and 5 units the solve was slower.
WINDOW = 2.0
# A window's Picard stops at a sup-norm change <= TOL, or fails after MAX_ITER sweeps.
TOL = 1e-9
MAX_ITER = 200


def whole_steps(horizon, dt):
    """floor(horizon / dt + 1e-9): the one rule of ``grid_steps`` and ``sim.grid_points``;
    DomainError naming ``horizon`` when the ratio is not finite."""
    steps = horizon / dt + 1e-9
    if not math.isfinite(steps):
        raise DomainError("horizon", f"horizon {horizon!r} over the step {dt!r} is not finite")
    return int(math.floor(steps))


def grid_steps(horizon, dt):
    """Number of dt steps within ``horizon``; DomainError for dt <= 0 or horizon < 0."""
    if not dt > 0:
        raise DomainError("dt", f"dt must be positive, got {dt!r}")
    if not 0 <= horizon < np.inf:
        raise DomainError("horizon", f"horizon must be finite and >= 0, got {horizon!r}")
    return whole_steps(horizon, dt)


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
        if not 0 < self.dt < np.inf:
            raise DomainError("dt", f"grid step must be finite and positive, got {self.dt!r}")
        if len(self.values) < 1:
            raise DomainError("values", "a path needs at least one sample")
        if not np.isfinite(self.values).all():
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


def solve_generalized(phi, horizon, dt):
    """Solve the generalized reflection problem x = reflect(phi(x)) by windowed Picard.

    ``phi(x, t0, dt, carried)`` is a causal functional that restarts: given
    the candidate path ``x`` on a window of the grid (times t0 + k dt) and
    the state it carried out of the window before (None for the window
    starting at t = 0), it returns the free path on that window, a
    contiguous float64 array of ``len(x)`` points whose value at index k
    depends only on input indices <= k, and the state at the window's last
    point.  It must not keep ``x``, which the reflection overwrites, nor
    return it or a view of it.

    The grid is cut into windows of ``WINDOW`` time units, each sharing its
    first point with the last point of the window before, where that point
    stays pinned to its converged value.  On each window x <- reflect(
    phi(x)) runs until the sup-norm change is <= ``TOL``, starting from 0 on
    the first window and from the linear extrapolation of the last two
    converged points (clipped at 0) on the others.  A sweep is one ``phi``
    call and the reflection reflected = free + max(0, -m), the regulator
    max(0, -m) and m the running minimum of the free path since t = 0
    (this window's and those before it), in the compiled library; so
    without a C compiler the solve raises ``BuildError`` for every ``phi``,
    a numpy one too.  Returns (solution, regulator, iterations),
    ``iterations`` being the most sweeps any window took.  Raises
    NoConvergence(MAX_ITER) with that window's last residual when a window
    spends its budget of ``MAX_ITER`` sweeps -- a functional that is no
    contraction on a window, or a ``TOL`` below the rounding of its sweeps --
    and DomainError for a free path of another shape or type, sharing
    memory with ``x``, not finite, or starting below 0.
    """
    n = grid_steps(horizon, dt) + 1
    reflect = native.library().reflect_window
    x, regulator = np.zeros(n), np.zeros(n)
    width = max(1, int(round(WINDOW / dt)))
    carried, running_min, iterations = None, None, 0
    a = 0
    while True:
        b = min(a + width, n - 1)
        guess = x[a:b + 1]
        if a:
            guess[1:] = np.maximum(x[a] + (x[a] - x[a - 1]) * np.arange(1, b - a + 1), 0.0)
        # The sweep writes the reflected path into guess and the regulator in place.
        window = (guess.ctypes.data, regulator[a:].ctypes.data, len(guess),
                  np.inf if running_min is None else running_min, a > 0)
        residual = np.inf
        for sweep in range(1, MAX_ITER + 1):
            free, out = phi(guess, a * dt, dt, carried)
            if not (isinstance(free, np.ndarray) and free.dtype == np.float64
                    and free.shape == guess.shape and free.flags.c_contiguous):
                got = getattr(free, "dtype", type(free).__name__)
                raise DomainError("free", f"phi must return a contiguous float64 array of shape "
                                  f"{guess.shape}, got {got} of shape {np.shape(free)}")
            if np.shares_memory(free, guess):
                raise DomainError("free", "phi must return a new array, not x or a view of it")
            residual = reflect(free.ctypes.data, *window)
            if math.isnan(residual):
                raise DomainError("values", "path values must be finite")
            if running_min is None and free[0] < 0:
                raise DomainError("values", f"free path must start >= 0, got {free[0]}")
            if residual <= TOL:
                break
        else:
            raise NoConvergence(MAX_ITER, residual)
        iterations = max(iterations, sweep)
        if b == n - 1:
            return SampledPath(0.0, dt, x), SampledPath(0.0, dt, regulator), iterations
        low = float(free.min())
        carried, running_min = out, low if running_min is None else min(running_min, low)
        a = b
