"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """A parameter or state lies outside its admissible domain.

    ``field`` names the first violated quantity so callers (and the CLI)
    can point at the offending input.
    """

    def __init__(self, field, message=None):
        self.field = field
        super().__init__(message or f"invalid value for '{field}'")


class RegimeError(ValueError):
    """An operation only defined in one load regime was called in another."""


class RegimeMismatch(ValueError):
    """Experiment target inconsistent with the regime implied by r."""


class GridMismatch(ValueError):
    """Two sampled paths do not share the same uniform time grid."""


class NoConvergence(RuntimeError):
    """Picard iteration exhausted max_iter; carries the last residual."""

    def __init__(self, max_iter, residual):
        self.max_iter = max_iter
        self.residual = residual
        super().__init__(
            f"no convergence after {max_iter} iterations (last residual {residual:.3e})"
        )


class NonFinite(ArithmeticError):
    """A state coordinate left finite range during integration."""


class TooManySwitches(ArithmeticError):
    """A piecewise-affine fluid path switched mode more often than the cap allows."""


class InvalidState(ValueError):
    """A microscopic state violates the state-space invariants."""


class TooLarge(ValueError):
    """The instance exceeds the configured exact-solver size cap."""

    def __init__(self, size, cap):
        self.size = size
        self.cap = cap
        super().__init__(f"state space has {size} states, exceeding the cap of {cap}")


class NotIrreducible(ValueError):
    """The generator's communication graph is not strongly connected."""


class SingularSystem(ArithmeticError):
    """The stationary linear system could not be solved."""


class BuildError(RuntimeError):
    """The compiled library could not be built: no C compiler, or its stderr."""
