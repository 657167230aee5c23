"""The three row-aggregation methods over decision tables, plus ranking criteria.

A decision table holds one row per candidate and one cell per parameter.
The binary method counts a row's 1-cells. The grey method adds the midpoint
of the row's accumulated intervals (grades are first mapped through a
scale) to the count of its 1-cells. The neutrosophic method averages the
row's triplets after embedding 0 as certainly-absent (0, 0, 1) and 1 as
certainly-present (1, 0, 0). Grade cells are deliberately rejected by the
neutrosophic method: there is no principled label-to-triplet conversion,
so callers must supply triplets themselves or run the grey method.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from ._checks import checked_real
from .grades import GradeScale, ScaleValidationError, default_scale
from .grey import GreyNumber
from .neutrosophic import Triplet, mean
from .softset import _checked_grid


@dataclass(frozen=True)
class BinCell:
    value: int

    def __post_init__(self) -> None:
        if isinstance(self.value, bool) or self.value not in (0, 1):
            raise ValueError(f"binary cells hold 0 or 1, got {self.value!r}")


@dataclass(frozen=True)
class GradeCell:
    label: str

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise ValueError(f"grade cells hold a non-empty label, got {self.label!r}")


@dataclass(frozen=True)
class GreyCell:
    interval: GreyNumber

    def __post_init__(self) -> None:
        if not isinstance(self.interval, GreyNumber):
            raise TypeError(f"grey cells hold a GreyNumber, got {type(self.interval).__name__}")


@dataclass(frozen=True)
class NeutroCell:
    triplet: Triplet

    def __post_init__(self) -> None:
        if not isinstance(self.triplet, Triplet):
            raise TypeError(f"neutrosophic cells hold a Triplet, got {type(self.triplet).__name__}")


Cell = Union[BinCell, GradeCell, GreyCell, NeutroCell]
Score = Union[int, float, Triplet]

_CELL_TYPES = (BinCell, GradeCell, GreyCell, NeutroCell)


def _describe(cell: Cell) -> str:
    if isinstance(cell, BinCell):
        return f"binary {cell.value}"
    if isinstance(cell, GradeCell):
        return f"grade {cell.label!r}"
    if isinstance(cell, GreyCell):
        return f"interval {cell.interval}"
    return f"triplet {cell.triplet}"


class CellMismatchError(ValueError):
    """A method met a cell variant it does not accept."""

    def __init__(self, method: str, candidate: str, parameter: str, found: str, hint: str):
        self.method = method
        self.candidate = candidate
        self.parameter = parameter
        self.found = found
        self.hint = hint
        super().__init__(
            f"method '{method}' cannot use cell ({candidate}, {parameter}): "
            f"found {found}; {hint}"
        )


class Method(enum.Enum):
    BINARY = "binary"
    GREY = "grey"
    NEUTROSOPHIC = "neutrosophic"


class Criterion(enum.Enum):
    OPTIMISTIC = "optimistic"
    CONSERVATIVE = "conservative"
    COMBINED = "combined"


def _check_cell(candidate: str, cell: Any) -> None:
    if not isinstance(cell, _CELL_TYPES):
        raise TypeError(f"row {candidate!r} holds a non-cell value {cell!r}")


@dataclass(frozen=True)
class DecisionTable:
    """Candidates by parameters cell matrix; at least one of each, all unique."""

    candidates: tuple
    parameters: tuple
    cells: tuple

    def __post_init__(self) -> None:
        candidates, parameters, cells = _checked_grid(
            self.candidates, self.parameters, self.cells, ("candidate", "parameter"),
            _check_cell, table="a decision table",
        )
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "cells", cells)

    def cell(self, candidate: str, parameter: str) -> Cell:
        return self.cells[self.candidates.index(candidate)][self.parameters.index(parameter)]


@dataclass(frozen=True)
class DecisionReport:
    """Outcome of one method run: scores, winners and any commentary."""

    method: Method
    scores: Mapping[str, Score]
    winners: tuple
    criterion: Optional[Criterion] = None
    risk_notes: Mapping[str, str] = field(default_factory=dict)
    notes: tuple = ()


_VALUE = attrgetter("value")
# The (triplet, multiplicity) entries that a 1-cell and a 0-cell add to a neutrosophic mean.
_PRESENT = (Triplet(1.0, 0.0, 0.0), 1)
_ABSENT = (Triplet(0.0, 0.0, 1.0), 1)


def _fold_rows(
    table: DecisionTable, method: Method, contributions: Tuple[Tuple[type, Callable], ...],
    finish: Callable[[str, list], Score], hint: str,
) -> Dict[str, Score]:
    """Score each row of the table, the one procedure behind every method.

    ``contributions`` pairs each cell type the method accepts with the
    function that turns such a cell into a part; ``finish(candidate, parts)``
    turns a row's parts, in column order, into its score. A cell of any
    other type is a mismatch, reported with ``hint``.
    """
    scores: Dict[str, Score] = {}
    for candidate, row in zip(table.candidates, table.cells):
        parts: list = []
        for parameter, cell in zip(table.parameters, row):
            for kind, contribute in contributions:
                if isinstance(cell, kind):
                    parts.append(contribute(cell))
                    break
            else:
                raise CellMismatchError(method.value, candidate, parameter, _describe(cell), hint)
        scores[candidate] = finish(candidate, parts)
    return scores


def choice_values_binary(table: DecisionTable) -> Dict[str, int]:
    """Row sums of an all-binary table."""
    return _fold_rows(
        table, Method.BINARY, ((BinCell, _VALUE),),
        lambda candidate, parts: sum(parts), "only 0/1 cells are allowed",
    )


def _grey_score(candidate: str, parts: list) -> float:
    ones, lower, upper = 0, 0.0, 0.0
    for part in parts:
        if isinstance(part, GreyNumber):
            lower += part.lower
            upper += part.upper
        else:
            ones += part
    return checked_real(ones + (lower + upper) / 2.0, f"grey score of candidate {candidate!r}")


def choice_values_grey(table: DecisionTable, scale: GradeScale) -> Dict[str, float]:
    """Row sums of binary cells plus the midpoint of the row's accumulated intervals.

    Grade cells go through the scale first; interval cells are used as
    given. Interval endpoints are accumulated left to right, and the
    midpoint is taken once at the end; a score beyond the float range is
    rejected.
    """
    contributions = (
        (BinCell, _VALUE),
        (GradeCell, lambda cell: scale[cell.label]),
        (GreyCell, attrgetter("interval")),
    )
    return _fold_rows(
        table, Method.GREY, contributions, _grey_score,
        "only 0/1, grade and interval cells are allowed",
    )


def choice_values_neutrosophic(table: DecisionTable) -> Dict[str, Triplet]:
    """Mean triplet of each row, with 0 read as (0, 0, 1) and 1 as (1, 0, 0)."""
    contributions = (
        (BinCell, lambda cell: _PRESENT if cell.value else _ABSENT),
        (NeutroCell, lambda cell: (cell.triplet, 1)),
    )
    return _fold_rows(
        table, Method.NEUTROSOPHIC, contributions, lambda candidate, parts: mean(parts),
        "supply triplets for this cell (grades and intervals have no "
        "automatic triplet translation) or run the grey method",
    )


def _ranked(
    scores: Mapping[str, Triplet], key: Callable[[Triplet], float], epsilon: float
) -> List[str]:
    """Candidates tied (within epsilon) for the greatest ``key`` of their score."""
    if not scores:
        raise ValueError("ranking requires at least one scored candidate")
    epsilon = checked_real(epsilon, "epsilon", low=0.0, strict=True)
    return _argmax_within({candidate: key(score) for candidate, score in scores.items()}, epsilon)


def rank_optimistic(scores: Mapping[str, Triplet], epsilon: float = 1e-9) -> List[str]:
    """Candidates tied (within epsilon) for the greatest truth degree."""
    return _ranked(scores, attrgetter("truth"), epsilon)


def rank_conservative(scores: Mapping[str, Triplet], epsilon: float = 1e-9) -> List[str]:
    """Candidates tied (within epsilon) for the least falsity degree."""
    return _ranked(scores, lambda score: -score.falsity, epsilon)


def rank_combined(scores: Mapping[str, Triplet], epsilon: float = 1e-9) -> List[str]:
    """Candidates winning both the optimistic and the conservative reading.

    When no candidate wins both, fall back to the greatest truth minus
    falsity, break remaining ties toward the lowest indeterminacy, and
    finally toward the earliest candidate. The fallback is a convention of
    this tool, not part of the underlying criteria.
    """
    optimistic = rank_optimistic(scores, epsilon)  # validates scores and epsilon
    conservative = rank_conservative(scores, epsilon)
    return _combine(scores, optimistic, conservative, epsilon)[0]


def _combine(
    scores: Mapping[str, Triplet], optimistic: List[str], conservative: List[str], epsilon: float
) -> Tuple[List[str], bool]:
    """The combined winners from both rankings, and whether the fallback chose them."""
    in_conservative = set(conservative)
    both = [candidate for candidate in optimistic if candidate in in_conservative]
    if both:
        return both, False
    net = {candidate: score.truth - score.falsity for candidate, score in scores.items()}
    leaders = _argmax_within(net, epsilon)
    doubt = {candidate: -scores[candidate].indeterminacy for candidate in leaders}
    return _argmax_within(doubt, epsilon)[:1], True


_COMBINED_NOTE = (
    "combined criterion: candidates winning both the greatest-truth and the "
    "least-falsity readings; when the two winner sets share no candidate, the "
    "tool falls back to the greatest truth minus falsity (ties broken toward "
    "lower indeterminacy, then table order)"
)
_FALLBACK_NOTE = (
    "combined fallback applied: the greatest-truth and least-falsity winner "
    "sets share no candidate"
)


def _short(value: float) -> str:
    return format(value, ".12g")


def _risk_notes(
    scores: Mapping[str, Triplet],
    winners: List[str],
    contenders: List[str],
    epsilon: float,
) -> Dict[str, str]:
    notes: Dict[str, str] = {}
    shown = {other: _short(scores[other].indeterminacy) for other in contenders}
    for winner in winners:
        doubt = scores[winner].indeterminacy
        clauses = []
        for other in contenders:
            if other == winner:
                continue
            other_doubt = scores[other].indeterminacy
            if doubt > other_doubt + epsilon:
                clauses.append(f"exceeds {other}'s {shown[other]}")
            elif doubt < other_doubt - epsilon:
                clauses.append(f"is below {other}'s {shown[other]}")
            else:
                clauses.append(f"matches {other}'s {shown[other]}")
        note = f"indeterminacy {_short(doubt)}"
        if clauses:
            note += " " + "; ".join(clauses)
        notes[winner] = note
    return notes


def _argmax_within(scores: Mapping[str, float], epsilon: float) -> List[str]:
    """Candidates whose value is within epsilon of the greatest; the one tie rule."""
    best = max(scores.values())
    return [candidate for candidate, value in scores.items() if value >= best - epsilon]


def decide(
    table: DecisionTable,
    method: Union[Method, str],
    *,
    scale: Optional[GradeScale] = None,
    criterion: Optional[Union[Criterion, str]] = None,
    epsilon: float = 1e-9,
) -> DecisionReport:
    """Run one method over a table and package scores, winners and commentary.

    ``scale`` applies only to the grey method (the built-in scale is used
    when omitted) and ``criterion`` only to the neutrosophic one (combined
    when omitted); supplying either anywhere else is rejected. ``epsilon``
    is the tie tolerance for winner detection.
    """
    method = Method(method)
    epsilon = checked_real(epsilon, "epsilon", low=0.0, strict=True)
    if scale is not None and method is not Method.GREY:
        raise ValueError(f"a grade scale does not apply to the {method.value} method")
    if criterion is not None and method is not Method.NEUTROSOPHIC:
        raise ValueError(f"a ranking criterion does not apply to the {method.value} method")

    if method is not Method.NEUTROSOPHIC:
        if method is Method.BINARY:
            scores = choice_values_binary(table)
        else:
            scale = default_scale() if scale is None else scale
            violations = scale.validate()
            if violations:
                raise ScaleValidationError(violations)
            scores = choice_values_grey(table, scale)
        return DecisionReport(method, scores, tuple(_argmax_within(scores, epsilon)))

    criterion = Criterion.COMBINED if criterion is None else Criterion(criterion)
    triplet_scores = choice_values_neutrosophic(table)
    optimistic = rank_optimistic(triplet_scores, epsilon)
    conservative = rank_conservative(triplet_scores, epsilon)
    notes: List[str] = []
    if criterion is Criterion.OPTIMISTIC:
        winners = optimistic
    elif criterion is Criterion.CONSERVATIVE:
        winners = conservative
    else:
        winners, fallback = _combine(triplet_scores, optimistic, conservative, epsilon)
        notes.append(_COMBINED_NOTE)
        if fallback:
            notes.append(_FALLBACK_NOTE)
    contender_set = set(optimistic) | set(conservative)
    contenders = [candidate for candidate in triplet_scores if candidate in contender_set]
    return DecisionReport(
        method=method,
        scores=triplet_scores,
        winners=tuple(winners),
        criterion=criterion,
        risk_notes=_risk_notes(triplet_scores, winners, contenders, epsilon),
        notes=tuple(notes),
    )
