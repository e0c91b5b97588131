"""Exception types shared across the package, and its one integer rule and one real-number rule.

Each rule returns the failure message or None, so it can feed a
``validate_problem`` finding, a ``ValidationError`` or a ``ContractError``.
"""

import math
import numbers


class ValidationError(ValueError):
    """Raised when an input object violates its documented invariants."""


class ContractError(ValueError):
    """Raised when a function is called outside its documented contract."""


class NumericalError(RuntimeError):
    """Raised when a numerical procedure fails to converge or degenerates."""


def _real(x) -> float | None:
    """x as a float if it is a real number (a bool is not), else None; an int too large for a float is +-inf."""
    if type(x) is float:
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return None
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _int_fault(value, name: str, lo: int | None = None, hi: int | None = None) -> str | None:
    """Why ``value`` is not an integer in [lo, hi], or None; a bound of None is open, and hi needs lo."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        return f"{name} must be an integer, got {value!r}"
    if hi is not None and not lo <= value <= hi:
        return f"{name} must lie in [{lo}, {hi}], got {value}"
    if lo is not None and value < lo:
        return f"{name} must be at least {lo}, got {value}"
    return None


def _real_fault(value, name: str, sign: str = "") -> str | None:
    """Why ``value`` is not a finite real number, "positive" or "nonnegative" if ``sign`` says so, or None."""
    x = _real(value)
    if x is None:
        return f"{name} must be a real number, got {value!r}"
    if not math.isfinite(x):
        return f"{name} must be finite, got {value}"
    if (sign == "positive" and x <= 0.0) or (sign == "nonnegative" and x < 0.0):
        return f"{name} must be {sign}, got {value}"
    return None


def _require(error: type[Exception], *faults: str | None) -> None:
    """Raise ``error`` with the first of ``faults`` that is not None."""
    for fault in faults:
        if fault is not None:
            raise error(fault)
