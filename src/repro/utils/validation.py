"""Small argument-validation helpers shared across the library."""

from __future__ import annotations

import math
from numbers import Integral

__all__ = ["check_count", "check_positive", "check_probability"]


def check_count(name: str, value: int, minimum: int) -> int:
    """Validate that ``value`` is an integer ``>= minimum``.

    ``bool`` is an ``int`` subclass, so ``True`` would silently count as
    one; it is rejected with floats and every other non-integer.  Numpy
    integers pass.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return value


def check_positive(
    name: str, value: float, *, strict: bool = True, finite: bool = False
) -> float:
    """Validate that ``value`` is positive (or non-negative when not
    strict) and, with ``finite``, not infinite.  NaN always fails."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    if finite and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value
