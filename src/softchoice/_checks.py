"""The one finite-real check, identifier check, default tie tolerance and frozen slotted base class."""

from __future__ import annotations

import math
import sys
from typing import Iterable, Optional

FLOAT_MAX = sys.float_info.max
EPSILON = 1e-9  # the default tie tolerance of decide, the rankers and --epsilon


class _Fields:
    """On first read, makes the nearest class in the MRO with its own ``__match_args__`` a dataclass."""

    def __get__(self, instance, owner):
        for cls in owner.__mro__:
            if "__match_args__" in vars(cls):
                import dataclasses
                return dataclasses.dataclass(init=False, repr=False, eq=False)(cls).__dataclass_fields__
        raise AttributeError(f"type object {owner.__name__!r} has no attribute '__dataclass_fields__'")


class Frozen:
    """Base of every frozen class: values, cells, tables, reports, scales and soft sets.

    Each names its fields once, ``__slots__ = __match_args__ = (...)``, and gets here the methods
    a frozen dataclass would generate. Its dataclass fields are made on first use, so ``import
    softchoice`` loads no ``dataclasses`` while ``dataclasses.fields``, ``replace`` and ``astuple``
    work. It pickles and copies through its constructor, so its ``__init__`` checks run again.
    The hot constructors (grey and triplet values, so cells too) set slots through setters captured once.
    """

    __slots__ = ()
    __dataclass_fields__ = _Fields()

    def __reduce__(self):  # the class and the field values, which == and hash compare too
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):  # of the same class only, so no Triplet equals an accumulator
        return self.__reduce__() == other.__reduce__() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self.__reduce__()[1])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __replace__(self, /, **changes):  # copy.replace, from Python 3.13
        from dataclasses import replace
        return replace(self, **changes)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


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
