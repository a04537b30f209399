"""Exception types shared across the package."""


class IsacPilotError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(IsacPilotError, ValueError):
    """A scalar or structural parameter is outside its documented range."""


class DimensionError(IsacPilotError, ValueError):
    """Array shapes are inconsistent with the documented contracts."""


class NumericError(IsacPilotError, ArithmeticError):
    """A numerical operation failed (factorization, conditioning, overflow)."""


class SingularMatrixError(NumericError):
    """A matrix that must be invertible is numerically rank deficient."""


class ObjectiveDomainError(NumericError):
    """The argument of a logarithm left its domain.

    Carries the offending value in ``value`` so callers can report it, and
    the failing pilot's position in its stack in ``index`` (None for one
    pilot).  It pickles with its message, value and index, so one raised in
    a worker process reaches the parent as it was raised.
    """

    def __init__(self, message: str, value: float, index: int | None = None):
        super().__init__(message)
        self.value = value
        self.index = index

    def __reduce__(self):
        return type(self), (self.args[0], self.value, self.index)
