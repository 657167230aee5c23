"""Soft sets: parameter-indexed families of subsets of a finite universe."""

from __future__ import annotations

from typing import Mapping, Sequence

from ._checks import Frozen, checked_ids, checked_real
from .engine import BinCell, DecisionTable

_BINARY = (BinCell(0), BinCell(1))  # cells are frozen, so every tabulated 0 or 1 shares one


class SoftSet(Frozen):
    """Maps each parameter to the subset of the universe that satisfies it.

    Universe and parameter lists are ordered so the tabular form is
    deterministic. A parameter missing from ``value_sets`` gets the empty
    set; a key naming no known parameter is rejected. The tabular form is a
    DecisionTable of 0/1 cells, so every method scores a soft set directly:
    ``decide(soft.tabulate(), "binary")`` gives its choice values.
    """

    __slots__ = __match_args__ = ("universe", "parameters", "value_sets")
    universe: tuple
    parameters: tuple
    value_sets: Mapping[str, frozenset]

    def __init__(self, universe: tuple, parameters: tuple, value_sets: Mapping[str, frozenset]) -> None:
        universe = checked_ids(universe, "universe")
        parameters = checked_ids(parameters, "parameter")
        members = set(universe)
        raw = dict(value_sets)
        unknown = sorted(map(str, set(raw).difference(parameters)))
        if unknown:
            raise ValueError(f"value sets given for unknown parameters: {', '.join(unknown)}")
        value_sets = {}
        for parameter in parameters:
            subset = frozenset(raw.get(parameter, ()))
            for element in subset:
                if element not in members:
                    raise ValueError(
                        f"value set of {parameter!r} contains {element!r}, "
                        f"which is not in the universe"
                    )
            value_sets[parameter] = subset
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "value_sets", value_sets)

    def tabulate(self) -> DecisionTable:
        """Tabular form: cell (x, e) is 1 exactly when x satisfies e; ValueError if either list is empty."""
        rows = tuple(
            tuple(_BINARY[element in self.value_sets[parameter]] for parameter in self.parameters)
            for element in self.universe
        )
        return DecisionTable(self.universe, self.parameters, rows)

    @classmethod
    def from_table(cls, table: DecisionTable) -> "SoftSet":
        """Inverse of :meth:`tabulate`; ValueError for a cell that is not a BinCell."""
        for candidate, row in zip(table.candidates, table.cells):
            for cell in row:
                if type(cell) is not BinCell:
                    raise ValueError(f"row {candidate!r} holds non-binary cell {cell!r}")
        value_sets = {
            parameter: frozenset(
                candidate for candidate, row in zip(table.candidates, table.cells) if row[index].value
            )
            for index, parameter in enumerate(table.parameters)
        }
        return cls(table.candidates, table.parameters, value_sets)

    @classmethod
    def from_fuzzy(cls, membership: Mapping[str, float], alphas: Sequence[float]) -> "SoftSet":
        """Build a soft set from a membership map via closed level cuts.

        Each alpha becomes a parameter (named by its repr) whose value set
        keeps the elements with membership >= alpha. Lower alphas therefore
        yield supersets of higher ones.
        """
        degrees = {
            element: checked_real(degree, f"membership of {element!r}", low=0.0, high=1.0)
            for element, degree in membership.items()
        }
        levels = [checked_real(alpha, "cut level", low=0.0, high=1.0) for alpha in alphas]
        if len(set(levels)) != len(levels):
            raise ValueError("cut levels must be distinct")
        value_sets = {
            repr(alpha): frozenset(
                element for element, degree in degrees.items() if degree >= alpha
            )
            for alpha in levels
        }
        return cls(tuple(degrees), tuple(repr(alpha) for alpha in levels), value_sets)
