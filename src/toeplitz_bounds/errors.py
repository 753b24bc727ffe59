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
    """Adaptive quadrature hit its depth limit before reaching tolerance.

    Carries the best value found, an honest error estimate and the number of
    integrand evaluations spent, so callers can degrade gracefully instead of
    losing the computation.
    """

    def __init__(
        self, message: str, value=None, error_estimate: float | None = None, evaluations: int = 0
    ):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.evaluations = evaluations


class NumericalBreakdown(ToeplitzBoundsError):
    """A numeric routine (eigensolve, recursion) lost too much accuracy to continue."""


class NotStrictlyFeasible(ToeplitzBoundsError):
    """Interpolation level is too close to the minimal level for a stable construction."""
