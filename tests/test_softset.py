import time

import pytest

from softchoice.engine import BinCell, DecisionTable, GradeCell, decide
from softchoice.softset import SoftSet

from conftest import BINARY_SCORES, PLAYERS_SOFT_SET

# Three houses judged cheap / beautiful / expensive.
HOUSES = ("H1", "H2", "H3")
HOUSE_PARAMS = ("cheap", "beautiful", "expensive")
HOUSE_VALUE_SETS = {
    "cheap": frozenset({"H1", "H2"}),
    "beautiful": frozenset({"H2", "H3"}),
    "expensive": frozenset({"H3"}),
}
HOUSE_ROWS = ((1, 0, 0), (1, 1, 0), (0, 1, 1))


def binary_table(row_ids, col_ids, rows):
    """The DecisionTable of a 0/1 matrix given as rows of ints."""
    return DecisionTable(row_ids, col_ids, tuple(tuple(map(BinCell, row)) for row in rows))


def binary_rows(table):
    """The cells of an all-BinCell table as rows of ints."""
    return tuple(tuple(cell.value for cell in row) for row in table.cells)


class TestConstruction:
    def test_value_set_outside_universe_rejected(self):
        with pytest.raises(ValueError, match="not in the universe"):
            SoftSet(("a",), ("e1",), {"e1": {"b"}})

    def test_unknown_parameter_key_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            SoftSet(("a",), ("e1",), {"e2": {"a"}})

    @pytest.mark.parametrize("keys, named", [((1,), "1"), ((1, "x"), "1, x")])
    def test_unknown_key_of_any_type_is_named(self, keys, named):
        with pytest.raises(ValueError) as raised:
            SoftSet(("a",), ("e",), {key: {"a"} for key in keys})
        assert str(raised.value) == f"value sets given for unknown parameters: {named}"

    def test_missing_parameter_defaults_to_empty_value_set(self):
        soft = SoftSet(("a", "b"), ("e1", "e2"), {"e1": {"a"}})
        assert soft.value_sets["e2"] == frozenset()

    def test_duplicate_identifiers_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SoftSet(("a", "a"), ("e1",), {})
        with pytest.raises(ValueError, match="duplicate"):
            binary_table(("a",), ("e1", "e1"), ((0, 0),))

    def test_duplicate_check_is_linear(self):
        ids = tuple(f"x{i}" for i in range(20_000)) * 2
        started = time.perf_counter()
        with pytest.raises(ValueError, match="duplicate universe identifiers: x0, x1, "):
            SoftSet(ids, ("e1",), {})
        assert time.perf_counter() - started < 1.0

    def test_value_set_key_check_is_linear(self):
        parameters = tuple(f"e{j}" for j in range(20_000))
        started = time.perf_counter()
        soft = SoftSet(("a",), parameters, {parameter: {"a"} for parameter in parameters})
        assert time.perf_counter() - started < 1.0
        assert binary_rows(soft.tabulate()) == ((1,) * 20_000,)

    def test_non_binary_cells_rejected(self):
        with pytest.raises(ValueError, match="non-binary"):
            SoftSet.from_table(DecisionTable(("a",), ("e1",), ((GradeCell("x"),),)))

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(ValueError):
            binary_table(("a", "b"), ("e1",), ((0,),))
        with pytest.raises(ValueError):
            binary_table(("a",), ("e1",), ((0, 1),))


class TestTabulate:
    def test_empty_value_sets_give_a_zero_matrix(self):
        soft = SoftSet(("a", "b"), ("e1", "e2"), {})
        assert binary_rows(soft.tabulate()) == ((0, 0), (0, 0))

    def test_players_example(self):
        assert binary_rows(PLAYERS_SOFT_SET.tabulate()) == (
            (1, 0, 0, 0),
            (1, 1, 0, 0),
            (0, 1, 1, 0),
            (0, 0, 0, 1),
            (0, 1, 1, 0),
            (1, 1, 0, 0),
        )

    def test_players_are_scored_by_the_binary_method_directly(self):
        report = decide(PLAYERS_SOFT_SET.tabulate(), "binary")
        assert report.scores == BINARY_SCORES
        assert report.winners == ("P2", "P3", "P5", "P6")


class TestFromTable:
    def test_houses_table_inverts_to_the_soft_set(self):
        table = binary_table(HOUSES, HOUSE_PARAMS, HOUSE_ROWS)
        soft = SoftSet.from_table(table)
        assert soft == SoftSet(HOUSES, HOUSE_PARAMS, HOUSE_VALUE_SETS)

    def test_zero_matrix_gives_empty_value_sets(self):
        soft = SoftSet.from_table(binary_table(("a", "b"), ("e1", "e2"), ((0, 0), (0, 0))))
        assert all(not members for members in soft.value_sets.values())


class TestFromFuzzy:
    def test_single_cut_keeps_high_membership_elements(self):
        soft = SoftSet.from_fuzzy({"x1": 0.2, "x2": 0.5, "x3": 0.9}, [0.5])
        assert soft.parameters == ("0.5",)
        assert soft.value_sets["0.5"] == frozenset({"x2", "x3"})

    def test_zero_cut_keeps_the_whole_universe(self):
        soft = SoftSet.from_fuzzy({"x1": 0.0, "x2": 0.7}, [0.0])
        assert soft.value_sets["0.0"] == frozenset({"x1", "x2"})

    def test_membership_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="membership"):
            SoftSet.from_fuzzy({"x1": 1.3}, [0.5])

    def test_cut_level_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="cut level"):
            SoftSet.from_fuzzy({"x1": 0.5}, [1.5])

    def test_duplicate_cut_levels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            SoftSet.from_fuzzy({"x1": 0.5}, [0.5, 0.5])
