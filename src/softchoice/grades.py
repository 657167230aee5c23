"""Grade scales: ordered mappings from qualitative labels to unit-interval grey numbers."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ._checks import Frozen
from .grey import GreyNumber


class UnknownGradeError(KeyError):
    """A grade label the scale does not define; ``cell`` is its (candidate, parameter), if known."""

    def __init__(self, label: str, known: Tuple[str, ...]):
        super().__init__(label)
        self.label = label
        self.known = tuple(known)
        self.cell: Optional[Tuple[str, str]] = None

    def __str__(self) -> str:
        where = "" if self.cell is None else " in cell ({}, {})".format(*self.cell)
        return f"unknown grade {self.label!r}{where}; the scale defines {', '.join(self.known)}"


class ScaleValidationError(ValueError):
    """A grade scale that breaks one or more structural rules."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("invalid grade scale: " + "; ".join(self.violations))


class GradeScale(Frozen):
    """Ordered (label, interval) entries, best grade first.

    Construction only checks shape; :meth:`validate` reports the semantic
    rules (unit-interval containment, pairwise disjointness, strictly
    descending lower endpoints, unique labels) so that a faulty
    user-supplied scale can be diagnosed in full rather than rejected at
    the first problem.
    """

    __match_args__ = ("entries",)
    __slots__ = (*__match_args__, "_index")
    entries: Tuple[Tuple[str, GreyNumber], ...]

    def __init__(self, entries: Tuple[Tuple[str, GreyNumber], ...]) -> None:
        entries = tuple(tuple(entry) for entry in entries)
        if not entries:
            raise ValueError("a grade scale needs at least one entry")
        for entry in entries:
            if len(entry) != 2:
                raise ValueError(f"scale entries are (label, interval) pairs, got {entry!r}")
            label, interval = entry
            if not isinstance(label, str) or not label:
                raise ValueError(f"grade labels must be non-empty strings, got {label!r}")
            if not isinstance(interval, GreyNumber):
                raise TypeError(f"grade {label!r} must map to a GreyNumber, got {type(interval).__name__}")
        object.__setattr__(self, "entries", entries)
        # Not a field, so ==, hash, repr and pickle skip it; a repeated label finds its first entry.
        object.__setattr__(self, "_index", dict(reversed(entries)))

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(label for label, _ in self.entries)

    def __contains__(self, label: str) -> bool:
        return isinstance(label, str) and label in self._index

    def __getitem__(self, label: str) -> GreyNumber:
        try:
            return self._index[label]
        except (KeyError, TypeError):  # TypeError: unhashable, so equal to no label
            raise UnknownGradeError(label, self.labels) from None

    def validate(self) -> List[str]:
        """Return every violated rule, or an empty list when the scale is sound."""
        violations = []
        seen = set()
        for label in self.labels:
            if label in seen:
                violations.append(f"duplicate grade label {label!r}")
            seen.add(label)
        for label, interval in self.entries:
            if interval.lower < 0.0 or interval.upper > 1.0:
                violations.append(f"grade {label!r} interval {interval} escapes [0, 1]")
        for index in range(len(self.entries) - 1):
            label_a, a = self.entries[index]
            label_b, b = self.entries[index + 1]
            if not a.lower > b.lower:
                violations.append(
                    f"grades {label_a!r} and {label_b!r} are not in strictly "
                    f"descending order of lower endpoint"
                )
        # In descending order of lower endpoint, any overlap shows between neighbours.
        by_lower = sorted(enumerate(self.entries), key=lambda item: item[1][1].lower, reverse=True)
        for (i, (label_a, a)), (j, (label_b, b)) in zip(by_lower, by_lower[1:]):
            if a.lower <= b.upper:
                first, second = (label_a, label_b) if i < j else (label_b, label_a)
                violations.append(f"grades {first!r} and {second!r} overlap")
        return violations


def default_scale() -> GradeScale:
    """The built-in five-grade scale from excellent down to not satisfactory."""
    return GradeScale((
        ("A", GreyNumber(0.85, 1.0)),
        ("B", GreyNumber(0.75, 0.84)),
        ("C", GreyNumber(0.6, 0.74)),
        ("D", GreyNumber(0.5, 0.59)),
        ("F", GreyNumber(0.0, 0.49)),
    ))
