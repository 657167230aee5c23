"""Soft sets: parameter-indexed families of subsets of a finite universe."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Tuple

from ._checks import checked_real


def _checked_ids(ids: Iterable[str], kind: str) -> tuple:
    out = tuple(ids)
    for value in out:
        if not isinstance(value, str) or not value:
            raise ValueError(f"{kind} identifiers must be non-empty strings, got {value!r}")
    if len(set(out)) != len(out):
        seen, dupes = set(), []
        for value in out:
            if value in seen and value not in dupes:
                dupes.append(value)
            seen.add(value)
        raise ValueError(f"duplicate {kind} identifiers: {', '.join(dupes)}")
    return out


def _checked_grid(
    row_ids: Iterable[str], col_ids: Iterable[str], cells: Iterable[Iterable[Any]],
    kinds: Tuple[str, str], check_cell: Callable[[str, Any], None], table: Optional[str] = None,
) -> Tuple[tuple, tuple, tuple]:
    """Validated (row ids, column ids, cell rows) of a rectangular table.

    ``kinds`` name the row and column ids; a named ``table`` needs at least one
    of each. ``check_cell(row_id, value)`` raises on a cell the table rejects.
    """
    rows = _checked_ids(row_ids, kinds[0])
    cols = _checked_ids(col_ids, kinds[1])
    if table is not None:
        for kind, ids in zip(kinds, (rows, cols)):
            if not ids:
                raise ValueError(f"{table} needs at least one {kind}")
    grid = tuple(tuple(row) for row in cells)
    if len(grid) != len(rows):
        raise ValueError(f"expected {len(rows)} cell rows, got {len(grid)}")
    for row_id, row in zip(rows, grid):
        if len(row) != len(cols):
            raise ValueError(f"row {row_id!r} has {len(row)} cells, expected {len(cols)}")
        for value in row:
            check_cell(row_id, value)
    return rows, cols, grid


def _check_binary(row_id: str, value: Any) -> None:
    if isinstance(value, bool) or value not in (0, 1):
        raise ValueError(f"row {row_id!r} holds non-binary cell {value!r}")


@dataclass(frozen=True)
class BinaryTable:
    """0/1 matrix whose rows are universe elements and columns are parameters."""

    row_ids: tuple
    col_ids: tuple
    cells: tuple

    def __post_init__(self) -> None:
        rows, cols, cells = _checked_grid(
            self.row_ids, self.col_ids, self.cells, ("row", "column"), _check_binary
        )
        object.__setattr__(self, "row_ids", rows)
        object.__setattr__(self, "col_ids", cols)
        object.__setattr__(self, "cells", cells)


@dataclass(frozen=True)
class SoftSet:
    """Maps each parameter to the subset of the universe that satisfies it.

    Universe and parameter lists are ordered so the tabular form is
    deterministic. A parameter missing from ``value_sets`` gets the empty
    set; a key naming no known parameter is rejected.
    """

    universe: tuple
    parameters: tuple
    value_sets: Mapping[str, frozenset]

    def __post_init__(self) -> None:
        universe = _checked_ids(self.universe, "universe")
        parameters = _checked_ids(self.parameters, "parameter")
        members = set(universe)
        raw = dict(self.value_sets)
        unknown = [key for key in raw if key not in parameters]
        if unknown:
            raise ValueError(f"value sets given for unknown parameters: {', '.join(sorted(unknown))}")
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

    def tabulate(self) -> BinaryTable:
        """Binary matrix form: cell (x, e) is 1 exactly when x satisfies e."""
        rows = tuple(
            tuple(1 if element in self.value_sets[parameter] else 0 for parameter in self.parameters)
            for element in self.universe
        )
        return BinaryTable(self.universe, self.parameters, rows)

    @classmethod
    def from_table(cls, table: BinaryTable) -> "SoftSet":
        """Inverse of :meth:`tabulate`."""
        value_sets = {
            parameter: frozenset(
                row_id for row_id, row in zip(table.row_ids, table.cells) if row[index]
            )
            for index, parameter in enumerate(table.col_ids)
        }
        return cls(table.row_ids, table.col_ids, value_sets)

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
