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
import math
from bisect import bisect_left, bisect_right
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Set, Tuple, Union

from ._checks import EPSILON, Frozen, checked_ids, checked_real
from .grades import GradeScale, UnknownGradeError, default_scale
from .grey import GreyNumber
from .neutrosophic import Triplet, mean


class BinCell(Frozen):
    """A crisp membership, 0 or 1; its table token is ``0`` or ``1``."""

    __slots__ = __match_args__ = ("value",)
    value: int

    def __init__(self, value: int) -> None:
        if isinstance(value, bool) or value not in (0, 1):
            raise ValueError(f"binary cells hold 0 or 1, got {value!r}")
        object.__setattr__(self, "value", value)


BINARY_CELLS = (BinCell(0), BinCell(1))  # cells are frozen, so every parsed or tabulated 0 or 1 shares one


class GradeCell(Frozen):
    """A grade label to map through a scale; its table token is the label, e.g. ``A``."""

    __slots__ = __match_args__ = ("label",)
    label: str

    def __init__(self, label: str) -> None:
        if not isinstance(label, str) or not label:
            raise ValueError(f"grade cells hold a non-empty label, got {label!r}")
        object.__setattr__(self, "label", label)


class GreyCell(Frozen):
    """An interval of membership; its table token is ``[lower;upper]``."""

    __slots__ = __match_args__ = ("interval",)
    interval: GreyNumber

    def __init__(self, interval: GreyNumber) -> None:
        if not isinstance(interval, GreyNumber):
            raise TypeError(f"grey cells hold a GreyNumber, got {type(interval).__name__}")
        _set_interval(self, interval)


class NeutroCell(Frozen):
    """A triplet of degrees; its table token is ``(truth;indeterminacy;falsity)``."""

    __slots__ = __match_args__ = ("triplet",)
    triplet: Triplet

    def __init__(self, triplet: Triplet) -> None:
        if not isinstance(triplet, Triplet):
            raise TypeError(f"neutrosophic cells hold a Triplet, got {type(triplet).__name__}")
        _set_triplet(self, triplet)


_set_interval, _set_triplet = GreyCell.interval.__set__, NeutroCell.triplet.__set__

Cell = Union[BinCell, GradeCell, GreyCell, NeutroCell]
Score = Union[int, float, Triplet]

# The classes a cell may have, and how a mismatch message describes each one.
_DESCRIBE: Dict[type, Callable[[Any], str]] = {
    BinCell: lambda cell: f"binary {cell.value}",
    GradeCell: lambda cell: f"grade {cell.label!r}",
    GreyCell: lambda cell: f"interval {cell.interval}",
    NeutroCell: lambda cell: f"triplet {cell.triplet}",
}


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


class DecisionTable(Frozen):
    """Candidates by parameters cell matrix; at least one of each, all unique.

    Every cell is exactly one of the four cell classes; a soft set's tabular
    form is the case where every cell is a BinCell.
    """

    __slots__ = __match_args__ = ("candidates", "parameters", "cells")
    candidates: tuple
    parameters: tuple
    cells: tuple

    def __init__(self, candidates: tuple, parameters: tuple, cells: tuple) -> None:
        candidates = checked_ids(candidates, "candidate")
        parameters = checked_ids(parameters, "parameter")
        for kind, ids in (("candidate", candidates), ("parameter", parameters)):
            if not ids:
                raise ValueError(f"a decision table needs at least one {kind}")
        cells = tuple(tuple(row) for row in cells)
        if len(cells) != len(candidates):
            raise ValueError(f"expected {len(candidates)} cell rows, got {len(cells)}")
        for candidate, row in zip(candidates, cells):
            if len(row) != len(parameters):
                raise ValueError(f"row {candidate!r} has {len(row)} cells, expected {len(parameters)}")
            for cell in row:
                if type(cell) not in _DESCRIBE:
                    raise TypeError(f"row {candidate!r} holds a non-cell value {cell!r}")
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "cells", cells)

    def cell(self, candidate: str, parameter: str) -> Cell:
        if candidate not in self.candidates:
            raise ValueError(f"unknown candidate {candidate!r}")
        if parameter not in self.parameters:
            raise ValueError(f"unknown parameter {parameter!r}")
        return self.cells[self.candidates.index(candidate)][self.parameters.index(parameter)]


class DecisionReport(Frozen):
    """Outcome of one method run: scores, winners and any commentary."""

    __slots__ = __match_args__ = ("method", "scores", "winners", "criterion", "risk_notes", "notes")
    method: Method
    scores: Mapping[str, Score]
    winners: tuple
    criterion: Optional[Criterion]
    risk_notes: Mapping[str, str]
    notes: tuple

    def __init__(
        self,
        method: Method,
        scores: Mapping[str, Score],
        winners: tuple,
        criterion: Optional[Criterion] = None,
        risk_notes: Optional[Mapping[str, str]] = None,  # None: a new, empty dict
        notes: tuple = (),
    ) -> None:
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "winners", winners)
        object.__setattr__(self, "criterion", criterion)
        object.__setattr__(self, "risk_notes", {} if risk_notes is None else risk_notes)
        object.__setattr__(self, "notes", notes)


_VALUE = attrgetter("value")
# The (triplet, multiplicity) entries that a 1-cell and a 0-cell add to a neutrosophic mean.
_PRESENT = (Triplet(1.0, 0.0, 0.0), 1)
_ABSENT = (Triplet(0.0, 0.0, 1.0), 1)


def _fold_rows(
    table: DecisionTable, method: Method, contributions: Mapping[type, Callable], hint: str,
) -> Iterator[Tuple[str, list]]:
    """Yield each candidate with its row's parts, the one walk behind every method.

    ``contributions`` maps each cell class the method accepts to the
    function that turns such a cell into a part; the parts come in column
    order, one lookup and one call per cell. A cell of any other class is a
    mismatch, reported with ``hint``. A row that raises ``KeyError`` (such a
    cell or an unknown grade) is walked again to name its first offender.
    """
    for candidate, row in zip(table.candidates, table.cells):
        try:
            parts = [contributions[type(cell)](cell) for cell in row]
        except KeyError:
            for parameter, cell in zip(table.parameters, row):
                if type(cell) not in contributions:
                    found = _DESCRIBE[type(cell)](cell)
                    raise CellMismatchError(method.value, candidate, parameter, found, hint) from None
                try:
                    contributions[type(cell)](cell)
                except UnknownGradeError as exc:  # the scale lookup cannot name the cell
                    exc.cell = (candidate, parameter)
                    raise
            raise
        yield candidate, parts


def choice_values_binary(table: DecisionTable) -> Dict[str, int]:
    """Row sums of an all-binary table."""
    rows = _fold_rows(table, Method.BINARY, {BinCell: _VALUE}, "only 0/1 cells are allowed")
    return {candidate: sum(parts) for candidate, parts in rows}


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
    contributions = {
        BinCell: _VALUE,
        GradeCell: lambda cell: scale[cell.label],
        GreyCell: attrgetter("interval"),
    }
    rows = _fold_rows(table, Method.GREY, contributions, "only 0/1, grade and interval cells are allowed")
    return {candidate: _grey_score(candidate, parts) for candidate, parts in rows}


def choice_values_neutrosophic(table: DecisionTable) -> Dict[str, Triplet]:
    """Mean triplet of each row, with 0 read as (0, 0, 1) and 1 as (1, 0, 0)."""
    contributions = {
        BinCell: lambda cell: _PRESENT if cell.value else _ABSENT,
        NeutroCell: lambda cell: (cell.triplet, 1),
    }
    rows = _fold_rows(
        table, Method.NEUTROSOPHIC, contributions,
        "supply triplets for this cell (grades and intervals have no "
        "automatic triplet translation) or run the grey method",
    )
    return {candidate: mean(parts) for candidate, parts in rows}


def _ranked(
    scores: Mapping[str, Triplet], key: Callable[[Triplet], float], epsilon: float
) -> List[str]:
    """Candidates tied (within epsilon) for the greatest ``key`` of their score."""
    if not scores:
        raise ValueError("ranking requires at least one scored candidate")
    epsilon = checked_real(epsilon, "epsilon", low=0.0, strict=True)
    return _argmax_within({candidate: key(score) for candidate, score in scores.items()}, epsilon)


def rank_optimistic(scores: Mapping[str, Triplet], epsilon: float = EPSILON) -> List[str]:
    """Candidates tied (within epsilon) for the greatest truth degree."""
    return _ranked(scores, attrgetter("truth"), epsilon)


def rank_conservative(scores: Mapping[str, Triplet], epsilon: float = EPSILON) -> List[str]:
    """Candidates tied (within epsilon) for the least falsity degree."""
    return _ranked(scores, lambda score: -score.falsity, epsilon)


def rank_combined(scores: Mapping[str, Triplet], epsilon: float = EPSILON) -> List[str]:
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


_NAMED_CONTENDERS = 5


def _short(value: float) -> str:
    return format(value, ".12g")


def _risk_notes(
    scores: Mapping[str, Triplet],
    winners: List[str],
    contenders: Set[str],
    epsilon: float,
) -> Dict[str, str]:
    """Name each winner's nearest contenders in indeterminacy (ties to table order).

    One sort serves every winner: the walk outwards from the winner's value
    slices at most ``_NAMED_CONTENDERS + 1`` entries from each group of
    equal values, so no group is scanned whole.
    """
    ranked = sorted(
        (score.indeterminacy, index, other)
        for index, (other, score) in enumerate(scores.items()) if other in contenders
    )
    values = [entry[0] for entry in ranked]
    notes: Dict[str, str] = {}
    for winner in winners:
        doubt = scores[winner].indeterminacy
        picked: list = []
        low = high = bisect_left(values, doubt)
        bound = math.inf
        while low or high < len(values):
            left = doubt - values[low - 1] if low else math.inf
            right = values[high] - doubt if high < len(values) else math.inf
            nearest = min(left, right)
            if nearest > bound:
                break
            if left <= right:
                start = bisect_left(values, values[low - 1], 0, low)
                group, low = ranked[start:min(low, start + _NAMED_CONTENDERS + 1)], start
            else:
                end = bisect_right(values, values[high], high)
                group, high = ranked[high:min(end, high + _NAMED_CONTENDERS + 1)], end
            picked += [entry for entry in group if entry[2] != winner]
            if len(picked) >= _NAMED_CONTENDERS:
                bound = nearest
        picked.sort(key=lambda entry: (abs(entry[0] - doubt), entry[1]))
        clauses = []
        for other_doubt, _, other in sorted(picked[:_NAMED_CONTENDERS], key=itemgetter(1)):
            if doubt > other_doubt + epsilon:
                clauses.append(f"exceeds {other}'s {_short(other_doubt)}")
            elif doubt < other_doubt - epsilon:
                clauses.append(f"is below {other}'s {_short(other_doubt)}")
            else:
                clauses.append(f"matches {other}'s {_short(other_doubt)}")
        more = len(ranked) - (winner in contenders) - len(clauses)
        if more:
            clauses.append(f"and {more} more")
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
    epsilon: float = EPSILON,
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
            scores = choice_values_grey(table, default_scale() if scale is None else scale)
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
    contenders = set(optimistic) | set(conservative)
    return DecisionReport(
        method=method,
        scores=triplet_scores,
        winners=tuple(winners),
        criterion=criterion,
        risk_notes=_risk_notes(triplet_scores, winners, contenders, epsilon),
        notes=tuple(notes),
    )
