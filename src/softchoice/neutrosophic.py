"""Truth / indeterminacy / falsity triplets and the aggregation defined on them.

Two value types keep the algebra honest: ``Triplet`` enforces the unit-box
constraint on every component, while ``TripletAccumulator`` carries the
intermediate sums and scalings, which routinely leave the box. Adding or
scaling either kind yields an accumulator; ``mean`` brings the result back
into the box, where it provably belongs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Tuple, Union

from ._checks import checked_real


@dataclass(frozen=True)
class _Components:
    """Truth, indeterminacy and falsity components; nonnegative, bounded above by ``_high``."""

    truth: float
    indeterminacy: float
    falsity: float

    _high = None
    _labels = ("truth component", "indeterminacy component", "falsity component")

    def __post_init__(self) -> None:
        for name, label in zip(("truth", "indeterminacy", "falsity"), self._labels):
            value = checked_real(getattr(self, name), label, low=0.0, high=self._high)
            object.__setattr__(self, name, value)

    def __str__(self) -> str:
        """The table token, ``(truth;indeterminacy;falsity)``; a boxed one re-parses exactly."""
        return f"({self.truth!r};{self.indeterminacy!r};{self.falsity!r})"

    def __add__(self, other: "TripletLike") -> "TripletAccumulator":
        if not isinstance(other, _Components):
            return NotImplemented
        return add(self, other)

    def __mul__(self, k: float) -> "TripletAccumulator":
        return scale(k, self)

    __rmul__ = __mul__


class Triplet(_Components):
    """Degrees of truth, indeterminacy and falsity, each constrained to [0, 1]."""

    _high = 1.0
    _labels = ("truth degree", "indeterminacy degree", "falsity degree")

    def accumulator(self) -> "TripletAccumulator":
        return TripletAccumulator(self.truth, self.indeterminacy, self.falsity)


class TripletAccumulator(_Components):
    """Componentwise sums and scalings of triplets; nonnegative, no upper bound."""

    def as_triplet(self) -> Triplet:
        """Reinterpret as a boxed triplet; fails if any component exceeds 1."""
        return Triplet(self.truth, self.indeterminacy, self.falsity)


TripletLike = Union[Triplet, TripletAccumulator]


def _components(value: TripletLike) -> Tuple[float, float, float]:
    if not isinstance(value, _Components):
        raise TypeError(
            f"expected a Triplet or TripletAccumulator, got {type(value).__name__}"
        )
    return value.truth, value.indeterminacy, value.falsity


def add(a: TripletLike, b: TripletLike) -> TripletAccumulator:
    """Componentwise sum; the result is an unconstrained accumulator."""
    at, ai, af = _components(a)
    bt, bi, bf = _components(b)
    return TripletAccumulator(at + bt, ai + bi, af + bf)


def scale(k: float, a: TripletLike) -> TripletAccumulator:
    """Componentwise product with a positive real."""
    k = checked_real(k, "scalar", low=0.0, strict=True)
    t, i, f = _components(a)
    return TripletAccumulator(k * t, k * i, k * f)


def mean(items: Iterable[Tuple[Triplet, int]]) -> Triplet:
    """Multiplicity-weighted mean of triplets.

    Accumulates in exact rational arithmetic and divides by the total count
    once, so a single repeated item comes back unchanged and splitting a
    multiplicity across several entries cannot change the result. The mean
    is a convex combination, hence always a valid boxed triplet.
    """
    entries = list(items)
    if not entries:
        raise ValueError("mean requires at least one (triplet, multiplicity) entry")
    total = 0
    sum_t = sum_i = sum_f = Fraction(0)
    for entry in entries:
        try:
            triplet, count = entry
        except (TypeError, ValueError):
            raise TypeError("mean expects (triplet, multiplicity) pairs") from None
        if not isinstance(triplet, Triplet):
            raise TypeError(f"mean expects Triplet values, got {type(triplet).__name__}")
        if isinstance(count, bool) or not isinstance(count, int):
            raise TypeError(f"multiplicity must be an integer, got {count!r}")
        if count < 1:
            raise ValueError(f"multiplicity must be >= 1, got {count}")
        total += count
        sum_t += count * Fraction(triplet.truth)
        sum_i += count * Fraction(triplet.indeterminacy)
        sum_f += count * Fraction(triplet.falsity)
    return Triplet(float(sum_t / total), float(sum_i / total), float(sum_f / total))


class InformationClass(enum.Enum):
    """What the component sum says about the information carried by a triplet."""

    INCOMPLETE = "incomplete"
    COMPLETE = "complete"
    INCONSISTENT = "inconsistent"


def classify_information(triplet: Triplet, epsilon: float = 1e-9) -> InformationClass:
    """Sum below 1 leaves information missing, near 1 is complete, above 1 is contradictory."""
    if not isinstance(triplet, Triplet):
        raise TypeError(f"expected a Triplet, got {type(triplet).__name__}")
    epsilon = checked_real(epsilon, "epsilon", low=0.0, strict=True)
    total = triplet.truth + triplet.indeterminacy + triplet.falsity
    if abs(total - 1.0) <= epsilon:
        return InformationClass.COMPLETE
    if total < 1.0:
        return InformationClass.INCOMPLETE
    return InformationClass.INCONSISTENT
