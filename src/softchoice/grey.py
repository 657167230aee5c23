"""Closed-interval grey numbers: reals known only up to an enclosing interval."""

from __future__ import annotations

from ._checks import FLOAT_MAX, Frozen, checked_real


class GreyNumber(Frozen):
    """A real number known only to lie in the closed interval [lower, upper].

    Supports exactly what the decision methods need: interval addition,
    scaling by a positive real, and the midpoint as the representative
    crisp value. Degenerate intervals (lower == upper) stand for crisp
    numbers.
    """

    __slots__ = __match_args__ = ("lower", "upper")
    lower: float
    upper: float

    def __init__(self, lower: float, upper: float) -> None:
        # Finite, ordered exact floats are what the checks would keep as they are.
        if not (type(lower) is type(upper) is float and -FLOAT_MAX <= lower <= upper <= FLOAT_MAX):
            lower = checked_real(lower, "lower endpoint")
            upper = checked_real(upper, "upper endpoint")
            if lower > upper:
                raise ValueError(f"invalid interval: lower {lower!r} > upper {upper!r}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def __str__(self) -> str:
        """The interval's table token, ``[lower;upper]``, at full round-trip precision."""
        return f"[{self.lower!r};{self.upper!r}]"

    def __add__(self, other: "GreyNumber") -> "GreyNumber":
        if not isinstance(other, GreyNumber):
            return NotImplemented
        return GreyNumber(self.lower + other.lower, self.upper + other.upper)

    def scale(self, k: float) -> "GreyNumber":
        """Scale both endpoints by a positive real."""
        k = checked_real(k, "scalar", low=0.0, strict=True)
        return GreyNumber(k * self.lower, k * self.upper)

    def __mul__(self, k: float) -> "GreyNumber":
        if isinstance(k, GreyNumber):
            raise TypeError(
                "interval-by-interval multiplication is not supported; "
                "scale by a positive real instead"
            )
        return self.scale(k)

    __rmul__ = __mul__

    def midpoint(self) -> float:
        """Representative crisp value of the interval."""
        return (self.lower + self.upper) / 2.0

    def width(self) -> float:
        return self.upper - self.lower
