"""Grade scales: ordered mappings from qualitative labels to unit-interval grey numbers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from .grey import GreyNumber


class UnknownGradeError(KeyError):
    """A grade label that the scale does not define."""

    def __init__(self, label: str, known: Tuple[str, ...]):
        super().__init__(label)
        self.label = label
        self.known = tuple(known)

    def __str__(self) -> str:
        return f"unknown grade {self.label!r}; the scale defines {', '.join(self.known)}"


class ScaleValidationError(ValueError):
    """A grade scale that breaks one or more structural rules."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("invalid grade scale: " + "; ".join(self.violations))


@dataclass(frozen=True)
class GradeScale:
    """Ordered (label, interval) entries, best grade first.

    Construction only checks shape; :meth:`validate` reports the semantic
    rules (unit-interval containment, pairwise disjointness, strictly
    descending lower endpoints, unique labels) so that a faulty
    user-supplied scale can be diagnosed in full rather than rejected at
    the first problem.
    """

    entries: Tuple[Tuple[str, GreyNumber], ...]

    def __post_init__(self) -> None:
        entries = tuple(tuple(entry) for entry in self.entries)
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

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(label for label, _ in self.entries)

    def __iter__(self) -> Iterator[Tuple[str, GreyNumber]]:
        return iter(self.entries)

    def __contains__(self, label: str) -> bool:
        return any(label == known for known, _ in self.entries)

    def __getitem__(self, label: str) -> GreyNumber:
        for known, interval in self.entries:
            if known == label:
                return interval
        raise UnknownGradeError(label, self.labels)

    def validate(self) -> List[str]:
        """Return every violated rule, or an empty list when the scale is sound."""
        violations = []
        labels = self.labels
        seen = set()
        for label in labels:
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
        for index, (label_a, a) in enumerate(self.entries):
            for label_b, b in self.entries[index + 1:]:
                if a.lower <= b.upper and b.lower <= a.upper:
                    violations.append(f"grades {label_a!r} and {label_b!r} overlap")
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
