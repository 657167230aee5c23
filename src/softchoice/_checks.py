"""The one check that a value is a finite real number within optional bounds."""

from __future__ import annotations

import math
from typing import Optional


def checked_real(
    value: float, name: str, *,
    low: Optional[float] = None, high: Optional[float] = None, strict: bool = False,
) -> float:
    """``value`` as a float, once it is a real (not a bool), finite and within the bounds.

    ``low`` and ``high`` are inclusive, or exclusive when ``strict``; ``name`` opens every message.
    """
    if type(value) is not float:  # exact floats, the common case, need no conversion
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            raise ValueError(f"{name} must be finite, got an int beyond the float range") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if (low is not None and (value <= low if strict else value < low)) or (
        high is not None and (value >= high if strict else value > high)
    ):
        if high is None and low == 0:
            wanted = "be positive" if strict else "be nonnegative"
        else:
            left, right = "()" if strict else "[]"
            wanted = f"lie in {left}{low:g}, {high:g}{right}"
        raise ValueError(f"{name} must {wanted}, got {value!r}")
    return value
