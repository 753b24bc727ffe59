"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class ToeplitzBoundsError(Exception):
    """Base class for all package errors."""


class InvalidConfiguration(ToeplitzBoundsError, ValueError):
    """Input violates a documented precondition (bad radius, schedule, flag)."""


class RepeatedZero(ToeplitzBoundsError):
    """Two zeros coincide within the supported separation threshold."""


class PointCollision(ToeplitzBoundsError):
    """An evaluation point sits on top of a zero where a formula degenerates."""


class ToleranceNotMet(ToeplitzBoundsError):
    """Adaptive quadrature missed its tolerance at a limit: the bisection
    depth MAX_DEPTH, or more than MAX_PENDING panels pending in one sweep.

    Carries the best value found and an honest error estimate, both means
    over the circle as the integrals report them, and the number of
    integrand evaluations spent, so callers can degrade gracefully instead
    of losing the computation.
    """

    def __init__(
        self, message: str, value=None, error_estimate: float | None = None, evaluations: int = 0
    ):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.evaluations = evaluations


class NumericalBreakdown(ToeplitzBoundsError):
    """A numeric routine lost too much accuracy to continue: a Cholesky pivot
    of minimal_level that is not positive, an interpolant whose residual
    fails its check, a slack ladder with every construction failed, or the
    fold solver of the Lambda integrand (a NaN swept phase, or no
    convergence)."""


class NotStrictlyFeasible(ToeplitzBoundsError):
    """Interpolation level is too close to the minimal level for a stable construction."""
