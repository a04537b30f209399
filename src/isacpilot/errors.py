"""Exception types shared across the package, and the input rules that both
boundaries apply.

The config parser calls the rules with a value's dotted path as its name
(``config._parsed`` re-raises their errors as ``ConfigError``) and the
library with the parameter's name, so a rule reads the same at both: its
message is "{name}: {rule}".  A NaN or infinite number or array entry raises
``NonFiniteError``; every other broken rule raises ``InvalidParameterError``
(values) or ``DimensionError`` (array ranks and sizes).
"""

import math
import numbers

import numpy as np


class IsacPilotError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(IsacPilotError, ValueError):
    """A scalar or structural parameter is outside its documented range."""


class DimensionError(IsacPilotError, ValueError):
    """Array shapes are inconsistent with the documented contracts."""


class NumericError(IsacPilotError, ArithmeticError):
    """A numerical operation failed (factorization, conditioning, overflow)."""


class NonFiniteError(InvalidParameterError, NumericError):
    """An input number or array entry is NaN or infinite."""


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


# the rules a number or every entry of an array can be held to, by message;
# each test works on a float and elementwise on an array
RULES = {
    "must be positive": lambda x: x > 0.0,
    "must be nonnegative": lambda x: x >= 0.0,
    "must lie in [0, 1]": lambda x: (0.0 <= x) & (x <= 1.0),
    "must lie in (0, 1]": lambda x: (0.0 < x) & (x <= 1.0),
}


def count(value, name: str, low: int = 1) -> int:
    """``value`` as an ``int`` of at least ``low``; Python and NumPy integers
    pass, ``bool`` and floats (integral, NaN or infinite) do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name}: expected an integer")
    if value < low:
        raise InvalidParameterError(f"{name}: must be at least {low}")
    return int(value)


def number(value, name: str, rule: str = "") -> float:
    """``value`` as a finite ``float`` that obeys ``rule`` (a key of ``RULES``,
    or "" for none)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParameterError(f"{name}: expected a number")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise NonFiniteError(f"{name}: expected a finite number")
    if rule and not RULES[rule](x):
        raise InvalidParameterError(f"{name}: {rule}")
    return x


def finite_array(value, name: str, ndim, rule: str = "", dtype=float) -> np.ndarray:
    """``value`` as a nonempty ``dtype`` array with every entry finite and,
    for a real array, obeying ``rule``.  ``ndim`` is its number of axes, or
    the (low, high) range of it, with high None for no bound.  A non-finite
    entry is named by its index."""
    try:
        array = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError):  # a ragged or non-numeric value
        raise InvalidParameterError(f"{name}: expected an array of numbers") from None
    low, high = (ndim, ndim) if isinstance(ndim, int) else ndim
    if not low <= array.ndim <= (high or array.ndim):
        top = "" if high == low else f" to {high}-D" if high else " or higher"
        raise DimensionError(f"{name}: expected a {low}-D{top} array")
    if array.size == 0:
        raise DimensionError(f"{name}: must be nonempty")
    finite = np.isfinite(array)
    if not finite.all():
        index = ", ".join(map(str, np.unravel_index(np.argmin(finite), array.shape)))
        raise NonFiniteError(f"{name}[{index}]: expected a finite number")
    if rule and not np.all(RULES[rule](array)):
        raise InvalidParameterError(f"{name}: values {rule}")
    return array


def one_of(value, name: str, options: tuple):
    """``value``, which must be one of ``options``."""
    if value not in options:
        raise InvalidParameterError(f"{name}: expected one of {options}")
    return value


def simplex(value, name: str, size: int) -> np.ndarray:
    """``value`` as ``size`` finite nonnegative weights that sum to 1 within 1e-12."""
    weights = finite_array(value, name, 1, "must be nonnegative")
    if weights.size != size:
        raise DimensionError(f"{name}: expected {size} entries")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise InvalidParameterError(f"{name}: weights must sum to 1")
    return weights
