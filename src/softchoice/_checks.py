"""The one finite-real check, the one identifier check, and the one base of the frozen slotted classes."""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import Iterable, Optional

FLOAT_MAX = sys.float_info.max


class Frozen:
    """Base of the frozen dataclasses that write their ``__slots__`` by hand.

    ``dataclass(slots=True)`` rebuilds the class, and on Python 3.11 the rebuilt
    class's frozen ``__setattr__`` raises ``TypeError`` for a new name. The frozen
    ``__setattr__`` also refuses the default restore of slots, so instances pickle
    and copy through their constructor, which runs its checks again.
    """

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in dataclasses.fields(self))


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


def checked_ids(ids: Iterable[str], kind: str) -> tuple:
    """``ids`` as a tuple, once each is a non-empty string and none repeats; ``kind`` names them."""
    out = tuple(ids)
    for value in out:
        if not isinstance(value, str) or not value:
            raise ValueError(f"{kind} identifiers must be non-empty strings, got {value!r}")
    if len(set(out)) != len(out):
        seen, dupes = set(), {}  # dict: keys in order of second occurrence
        for value in out:
            if value in seen:
                dupes[value] = None
            seen.add(value)
        raise ValueError(f"duplicate {kind} identifiers: {', '.join(dupes)}")
    return out
