"""Truth / indeterminacy / falsity triplets and the aggregation defined on them.

``TripletAccumulator`` carries the intermediate sums and scalings, which
routinely leave the unit box; ``Triplet`` narrows it to components in
[0, 1]. Adding or scaling either kind (``k * t`` and ``t * k`` are
``t.scale(k)``) yields an accumulator; ``mean`` brings the result back
into the box, where it provably belongs.
"""

from __future__ import annotations

import enum
from math import frexp, fsum, ldexp
from typing import Iterable, Tuple

from ._checks import FLOAT_MAX, Frozen, checked_real


class TripletAccumulator(Frozen):
    """Componentwise sums and scalings of triplets; nonnegative, bounded above only by ``_high``."""

    __slots__ = __match_args__ = ("truth", "indeterminacy", "falsity")
    truth: float
    indeterminacy: float
    falsity: float

    _high = None
    _labels = ("truth component", "indeterminacy component", "falsity component")

    def __init__(self, truth: float, indeterminacy: float, falsity: float) -> None:
        high = FLOAT_MAX if self._high is None else self._high
        if not (type(truth) is type(indeterminacy) is type(falsity) is float and (
            0.0 <= truth <= high and 0.0 <= indeterminacy <= high and 0.0 <= falsity <= high
        )):  # exact floats in [0, high] are what the checks would keep as they are
            truth, indeterminacy, falsity = (
                checked_real(value, label, low=0.0, high=self._high)
                for value, label in zip((truth, indeterminacy, falsity), self._labels)
            )
        _set_truth(self, truth)
        _set_indeterminacy(self, indeterminacy)
        _set_falsity(self, falsity)

    def __str__(self) -> str:
        """The table token, ``(truth;indeterminacy;falsity)``.

        A boxed one re-parses exactly unless a component is ``-0.0``: it prints with a
        minus sign, which the table format cannot spell, so ``parse_cell`` rejects it.
        """
        return f"({self.truth!r};{self.indeterminacy!r};{self.falsity!r})"

    def __add__(self, other: "TripletAccumulator") -> "TripletAccumulator":
        if not isinstance(other, TripletAccumulator):
            return NotImplemented
        return TripletAccumulator(
            self.truth + other.truth,
            self.indeterminacy + other.indeterminacy,
            self.falsity + other.falsity,
        )

    def scale(self, k: float) -> "TripletAccumulator":
        """Scale every component by a positive real."""
        k = checked_real(k, "scalar", low=0.0, strict=True)
        return TripletAccumulator(k * self.truth, k * self.indeterminacy, k * self.falsity)

    __mul__ = __rmul__ = scale

    def as_triplet(self) -> "Triplet":
        """Reinterpret as a boxed triplet; fails if any component exceeds 1."""
        return Triplet(self.truth, self.indeterminacy, self.falsity)


_set_truth, _set_indeterminacy, _set_falsity = (
    getattr(TripletAccumulator, name).__set__ for name in TripletAccumulator.__slots__)


class Triplet(TripletAccumulator):
    """Degrees of truth, indeterminacy and falsity, each constrained to [0, 1]."""

    __slots__ = ()
    _high = 1.0
    _labels = ("truth degree", "indeterminacy degree", "falsity degree")


def mean(items: Iterable[Tuple[Triplet, int]]) -> Triplet:
    """Multiplicity-weighted mean of triplets, exact and rounded once.

    With every multiplicity 1, as from the engine, two ``fsum``s a component give ``s1``,
    the sum rounded once, and ``s2``, the rest rounded once. The sum is ``s1`` if ``s2`` is
    0, else within ``h``, half an ulp of ``s2``, of ``s1 + s2``: a band whose ends are ints
    in units of ``h``, as no denominator there exceeds ``h``'s. Rounding is monotone, so if
    both ends over ``n`` round to one float, so does the mean. If not, or for other
    multiplicities, the weighted sums are exact ints in units of ``2**-1074`` (``m / 2**j``
    in [0, 1] is ``m << (1074 - j)`` of them; ``2**j`` has bit length ``j + 1``). One
    correctly rounded division ends each. A repeated item comes back unchanged, splitting
    or reordering entries cannot change the result, and the convex mean stays in the box.
    """
    total, triplets, counts = 0, [], []
    for entry in items:
        try:
            triplet, count = entry
        except (TypeError, ValueError):
            raise TypeError("mean expects (triplet, multiplicity) pairs") from None
        if not isinstance(triplet, Triplet):
            raise TypeError(f"mean expects Triplet values, got {type(triplet).__name__}")
        if type(count) is not int and (isinstance(count, bool) or not isinstance(count, int)):
            raise TypeError(f"multiplicity must be an integer, got {count!r}")
        if count < 1:
            raise ValueError(f"multiplicity must be >= 1, got {count}")
        total += count
        triplets.append(triplet)
        counts.append(count)
    if not total:
        raise ValueError("mean requires at least one (triplet, multiplicity) entry")
    if total == len(triplets):  # every multiplicity is 1, so total is n
        parts = []
        for column in ([t.truth for t in triplets], [t.indeterminacy for t in triplets],
                       [t.falsity for t in triplets]):
            s1 = fsum(column)
            column.append(-s1)
            s2 = fsum(column)
            low = high = s1 / total
            if s2:
                k = 54 - frexp(s2)[1]  # h is 2**-k
                whole, power = s1.as_integer_ratio()
                middle = (whole << k + 1 - power.bit_length()) + int(ldexp(s2, k))
                low, high = (middle - 1) / (total << k), (middle + 1) / (total << k)
            if low != high:
                break
            parts.append(low)
        else:
            return Triplet(*parts)
    sum_t = sum_i = sum_f = 0
    for triplet, count in zip(triplets, counts):
        n_t, d_t = triplet.truth.as_integer_ratio()
        n_i, d_i = triplet.indeterminacy.as_integer_ratio()
        n_f, d_f = triplet.falsity.as_integer_ratio()
        sum_t += count * n_t << 1075 - d_t.bit_length()
        sum_i += count * n_i << 1075 - d_i.bit_length()
        sum_f += count * n_f << 1075 - d_f.bit_length()
    return Triplet(*(part / (total << 1074) for part in (sum_t, sum_i, sum_f)))


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
