"""Exception and warning types shared across the package."""

from __future__ import annotations


class QrlabError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(QrlabError, ValueError):
    """An argument violates a documented precondition."""


class CapacityError(QrlabError):
    """A request exceeds a declared resource guard.

    ``required_bytes`` reports the allocation that was refused.
    """

    def __init__(self, message: str, required_bytes: int | None = None):
        super().__init__(message)
        self.required_bytes = required_bytes


class NumericalFailureError(QrlabError, RuntimeError):
    """An iterative or factorization routine failed to converge.

    ``residual`` carries the last residual and ``iterations`` the steps spent
    before the failure, when they are available.
    """

    def __init__(self, message: str, residual: float | None = None, iterations: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class SingularSystemError(NumericalFailureError):
    """A ridge system was not positive definite within tolerance.

    ``lambda_min`` reports the estimated smallest eigenvalue of the
    regularized matrix.
    """

    def __init__(self, message: str, lambda_min: float | None = None):
        super().__init__(message)
        self.lambda_min = lambda_min


class AssumptionViolationError(QrlabError):
    """Inputs fall outside the admissible regime of an asymptotic formula."""

    def __init__(self, message: str, detail: dict | None = None):
        super().__init__(message)
        self.detail = dict(detail or {})


class AssumptionWarning(UserWarning):
    """Non-fatal: inputs are outside the regime some downstream formulas need."""
