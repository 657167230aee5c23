import dataclasses
import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from softchoice.engine import (
    BinCell,
    CellMismatchError,
    DecisionTable,
    GradeCell,
    GreyCell,
    NeutroCell,
    _risk_notes,
    choice_values_binary,
    choice_values_grey,
    choice_values_neutrosophic,
    decide,
    rank_combined,
    rank_conservative,
    rank_optimistic,
)
from softchoice.grades import UnknownGradeError, default_scale
from softchoice.grey import GreyNumber
from softchoice.neutrosophic import Triplet, TripletAccumulator
from softchoice.tableio import render_report_json, render_report_text


class TestBinaryMethod:
    def test_single_zero_cell(self):
        table = DecisionTable(("c",), ("e",), ((BinCell(0),),))
        assert choice_values_binary(table) == {"c": 0}


class TestGreyMethod:
    def test_triplet_cell_rejected(self, graded_table):
        cells = list(list(row) for row in graded_table.cells)
        cells[2][1] = NeutroCell(1, 0, 0)
        table = DecisionTable(graded_table.candidates, graded_table.parameters, cells)
        with pytest.raises(CellMismatchError) as excinfo:
            choice_values_grey(table, default_scale())
        assert (excinfo.value.candidate, excinfo.value.parameter) == ("P3", "e2")

    def test_unknown_grade_names_its_cell(self):
        table = DecisionTable(
            ("c0", "c1"), ("e0", "e1"),
            ((BinCell(1), GradeCell("A")), (GradeCell("B"), GradeCell("E"))),
        )
        with pytest.raises(UnknownGradeError) as excinfo:
            choice_values_grey(table, default_scale())
        error = excinfo.value
        assert (error.label, error.known, error.cell) == ("E", ("A", "B", "C", "D", "F"), ("c1", "e1"))
        assert str(error) == "unknown grade 'E' in cell (c1, e1); the scale defines A, B, C, D, F"


class TestRanking:
    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            rank_optimistic({})


class TestDecide:
    def test_fallback_is_flagged_when_used(self):
        table = DecisionTable(
            ("first", "second"), ("e1",),
            ((NeutroCell(0.9, 0.0, 0.5),), (NeutroCell(0.6, 0.0, 0.1),)),
        )
        report = decide(table, "neutrosophic", criterion="combined")
        assert report.winners == ("second",)
        assert any("fallback applied" in text for text in report.notes)

    def test_scale_option_rejected_outside_grey(self, binary_table):
        with pytest.raises(ValueError, match="scale"):
            decide(binary_table, "binary", scale=default_scale())

    def test_criterion_option_rejected_outside_neutrosophic(self, graded_table):
        with pytest.raises(ValueError, match="criterion"):
            decide(graded_table, "grey", criterion="combined")

    def test_bad_epsilon_rejected(self, binary_table):
        with pytest.raises(ValueError, match="epsilon"):
            decide(binary_table, "binary", epsilon=0.0)



class TestTableConstruction:
    def test_empty_tables_rejected(self):
        with pytest.raises(ValueError, match="at least one candidate"):
            DecisionTable((), ("e1",), ())
        with pytest.raises(ValueError, match="at least one parameter"):
            DecisionTable(("c",), (), ((),))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="expected 2"):
            DecisionTable(("c",), ("e1", "e2"), ((BinCell(0),),))

    def test_duplicates_are_named_in_order_of_their_second_occurrence(self):
        cells = tuple((BinCell(1),) for _ in range(5))
        with pytest.raises(ValueError) as excinfo:
            DecisionTable(("a", "b", "b", "a", "b"), ("e1",), cells)
        assert str(excinfo.value) == "duplicate candidate identifiers: b, a"

    def test_non_cell_values_rejected(self):
        with pytest.raises(TypeError, match="non-cell"):
            DecisionTable(("c",), ("e1",), ((1,),))

    def test_a_cell_subclass_is_not_a_cell(self):
        # A table holds exactly the four cell classes, so it never holds a
        # cell that write_table could not spell, nor a bare value.
        class OwnBin(BinCell):
            pass

        for value in (OwnBin(1), GreyNumber(0.6, 0.74), Triplet(0, 0, 1), TripletAccumulator(0, 0, 1)):
            with pytest.raises(TypeError, match="^row 'c' holds a non-cell value " + re.escape(repr(value))):
                DecisionTable(("c",), ("e1",), ((value,),))
        # A grey or triplet cell is a subclass of its value, yet never equal to it.
        assert GreyCell(0.6, 0.74) != GreyNumber(0.6, 0.74)
        assert NeutroCell(0.5, 0.1, 1) != Triplet(0.5, 0.1, 1)
        assert [field.name for field in dataclasses.fields(GreyCell)] == ["lower", "upper"]
        with pytest.raises(ValueError, match=r"^invalid interval: lower 0\.3 > upper 0\.2$"):
            dataclasses.replace(GreyCell(0.1, 0.2), lower=0.3)

    def test_cell_lookup_by_identifiers(self, graded_table):
        assert graded_table.cell("P4", "e1") == GradeCell("D")

    def test_cell_lookup_names_an_unknown_candidate(self, graded_table):
        with pytest.raises(ValueError, match=r"^unknown candidate 'zz'$"):
            graded_table.cell("zz", "e1")

    def test_cell_lookup_names_an_unknown_parameter(self, graded_table):
        with pytest.raises(ValueError, match=r"^unknown parameter 'zz'$"):
            graded_table.cell("P4", "zz")


# Scores drawn often from a few dyadic values, so that exact ties and
# boundary cases come up, and epsilons from subnormal to huge.
_degrees = st.one_of(
    st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
    st.floats(min_value=0.0, max_value=1.0),
)
_score_maps = st.lists(
    st.builds(Triplet, _degrees, _degrees, _degrees), min_size=1, max_size=8
).map(lambda triplets: {f"c{i}": t for i, t in enumerate(triplets, start=1)})
_epsilons = st.one_of(
    st.sampled_from((1e-9, 0.25, 0.5)),
    st.floats(min_value=5e-324, max_value=1e300),
)


def _oracle_optimistic(scores, eps):
    max_truth = max(score.truth for score in scores.values())
    return [c for c in scores if scores[c].truth >= max_truth - eps]


def _oracle_conservative(scores, eps):
    min_falsity = min(score.falsity for score in scores.values())
    return [c for c in scores if scores[c].falsity <= min_falsity + eps]


def _oracle_combined(scores, eps):
    conservative = _oracle_conservative(scores, eps)
    both = [c for c in _oracle_optimistic(scores, eps) if c in conservative]
    if both:
        return both
    net = {c: score.truth - score.falsity for c, score in scores.items()}
    max_net = max(net.values())
    leaders = [c for c in scores if net[c] >= max_net - eps]
    min_doubt = min(scores[c].indeterminacy for c in leaders)
    return [c for c in leaders if scores[c].indeterminacy <= min_doubt + eps][:1]


class TestRankingOracles:
    @settings(max_examples=300, deadline=None)
    @given(_score_maps, _epsilons)
    def test_optimistic(self, scores, eps):
        assert rank_optimistic(scores, eps) == _oracle_optimistic(scores, eps)

    @settings(max_examples=300, deadline=None)
    @given(_score_maps, _epsilons)
    def test_conservative(self, scores, eps):
        assert rank_conservative(scores, eps) == _oracle_conservative(scores, eps)

    @settings(max_examples=300, deadline=None)
    @given(_score_maps, _epsilons)
    def test_combined(self, scores, eps):
        assert rank_combined(scores, eps) == _oracle_combined(scores, eps)


_unit_intervals = st.tuples(_degrees, _degrees).map(lambda ends: GreyCell(min(ends), max(ends)))
_bin_cells = st.sampled_from((BinCell(0), BinCell(1)))
_cells = {
    "binary": _bin_cells,
    "grey": st.one_of(_bin_cells, st.sampled_from("ABCDF").map(GradeCell), _unit_intervals),
    "neutrosophic": st.one_of(_bin_cells, st.builds(NeutroCell, _degrees, _degrees, _degrees)),
}


def _beaten_by_more_than(eps, score, other):
    """Whether ``other`` beats ``score`` by more than ``eps`` under every reading that ranks."""
    if not isinstance(score, Triplet):
        return other > score + eps
    return (
        other.truth > score.truth + eps
        and other.falsity < score.falsity - eps
        and other.truth - other.falsity > score.truth - score.falsity + eps
    )


@st.composite
def _tables_with_one_more_row(draw):
    method = draw(st.sampled_from(sorted(_cells)))
    criterion = None  # the default: combined for neutrosophic, none elsewhere
    if method == "neutrosophic":
        criterion = draw(st.sampled_from([None, "optimistic", "conservative"]))
    cols = draw(st.integers(min_value=1, max_value=4))
    row = st.tuples(*[_cells[method]] * cols)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    extra = draw(row)
    position = draw(st.integers(min_value=0, max_value=len(rows)))
    names = [f"c{i}" for i in range(len(rows))]
    params = tuple(f"e{j}" for j in range(cols))
    eps = draw(st.sampled_from((1e-9, 0.0625, 0.25)))
    table = DecisionTable(tuple(names), params, tuple(rows))
    names.insert(position, "x")
    rows.insert(position, extra)
    return method, criterion, eps, table, DecisionTable(tuple(names), params, tuple(rows))


@settings(max_examples=300, deadline=None)
@given(_tables_with_one_more_row())
def test_a_beaten_candidate_changes_no_outcome(case):
    # A row that another row beats by more than epsilon under every reading
    # neither wins nor contends, wherever it is inserted.
    method, criterion, eps, table, grown = case
    after = decide(grown, method, criterion=criterion, epsilon=eps)
    assume(any(_beaten_by_more_than(eps, after.scores["x"], score) for score in after.scores.values()))
    before = decide(table, method, criterion=criterion, epsilon=eps)
    assert (after.winners, after.risk_notes, after.notes) == (before.winners, before.risk_notes, before.notes)


def _one_column_table(rows):
    """A neutrosophic table of one parameter; ``rows`` maps candidate to triplet."""
    return DecisionTable(
        tuple(rows), ("e1",), tuple((NeutroCell(*row),) for row in rows.values())
    )


def _oracle_note(scores, winner, contenders, epsilon):
    """The risk note spelled out from a sort of all the other contenders, taken in table order."""
    order = list(scores).index
    doubt = scores[winner].indeterminacy
    others = [name for name in scores if name in contenders and name != winner]
    named = sorted(others, key=lambda name: (abs(scores[name].indeterminacy - doubt), order(name)))
    clauses = []
    for name in sorted(named[:5], key=order):
        other = scores[name].indeterminacy
        if doubt > other + epsilon:
            verb = "exceeds"
        elif doubt < other - epsilon:
            verb = "is below"
        else:
            verb = "matches"
        clauses.append(f"{verb} {name}'s {format(other, '.12g')}")
    if len(others) > 5:
        clauses.append(f"and {len(others) - 5} more")
    note = f"indeterminacy {format(doubt, '.12g')}"
    return note + " " + "; ".join(clauses) if clauses else note


# Indeterminacies drawn from a few levels per case, so that long runs of
# equal values and equal distances on both sides come up; the tiny levels
# lie closer together than a float step at 1, so their distances from 1
# round to the same float.
_risk_levels = st.lists(
    st.one_of(
        st.sampled_from((0.0, 5e-324, 1e-17, 2e-17, 0.1, 0.2, 0.25, 0.3, 0.5, 0.75, 1.0)),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=1, max_size=4,
)


@st.composite
def _risk_cases(draw):
    names = [f"c{i}" for i in range(draw(st.integers(min_value=1, max_value=16)))]
    levels = draw(_risk_levels)
    scores = {name: Triplet(0.5, draw(st.sampled_from(levels)), 0.5) for name in names}
    contenders = {name for name in names if draw(st.booleans())}
    winners = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    return scores, winners, contenders, draw(_epsilons)


class TestRiskNotes:
    @settings(max_examples=500, deadline=None)
    @given(_risk_cases())
    def test_notes_name_the_nearest_contenders(self, case):
        scores, winners, contenders, epsilon = case
        notes = _risk_notes(scores, winners, contenders, epsilon)
        assert list(notes) == winners
        for winner, note in notes.items():
            assert note == _oracle_note(scores, winner, contenders, epsilon)
            assert f" {winner}'s " not in note
            unnamed = len(contenders - {winner}) - 5
            if unnamed > 0:
                assert note.endswith(f"; and {unnamed} more")
            else:
                assert " more" not in note

    def test_six_contenders_are_all_named(self):
        table = _one_column_table({
            "a": (0.5, 0.3, 0.1), "b": (0.5, 0.1, 0.1), "c": (0.5, 0.3, 0.1),
            "d": (0.5, 0.2, 0.1), "e": (0.5, 0.4, 0.1), "f": (0.5, 0.05, 0.1),
        })
        report = decide(table, "neutrosophic", criterion="optimistic")
        assert report.winners == ("a", "b", "c", "d", "e", "f")
        assert report.risk_notes["a"] == (
            "indeterminacy 0.3 exceeds b's 0.1; matches c's 0.3; exceeds d's 0.2; "
            "is below e's 0.4; exceeds f's 0.05"
        )

    def test_a_seventh_contender_is_counted(self):
        table = _one_column_table({
            "a": (0.5, 0.3, 0.1), "b": (0.5, 0.1, 0.1), "c": (0.5, 0.3, 0.1),
            "d": (0.5, 0.2, 0.1), "e": (0.5, 0.4, 0.1), "f": (0.5, 0.05, 0.1),
            "g": (0.5, 0.9, 0.1),
        })
        notes = decide(table, "neutrosophic", criterion="optimistic").risk_notes
        assert notes["a"] == (
            "indeterminacy 0.3 exceeds b's 0.1; matches c's 0.3; exceeds d's 0.2; "
            "is below e's 0.4; exceeds f's 0.05; and 1 more"
        )
        assert notes["g"] == (
            "indeterminacy 0.9 exceeds a's 0.3; exceeds b's 0.1; exceeds c's 0.3; "
            "exceeds d's 0.2; exceeds e's 0.4; and 1 more"
        )

    def test_equal_distances_on_both_sides_go_to_table_order(self):
        table = _one_column_table({
            "a": (0.5, 0.75, 0.1), "b": (0.5, 0.75, 0.1), "c": (0.5, 0.75, 0.1),
            "d": (0.5, 0.5, 0.1), "e": (0.5, 0.25, 0.1), "f": (0.5, 0.25, 0.1),
            "g": (0.5, 0.25, 0.1),
        })
        notes = decide(table, "neutrosophic", criterion="optimistic").risk_notes
        assert notes["d"] == (
            "indeterminacy 0.5 is below a's 0.75; is below b's 0.75; is below c's 0.75; "
            "exceeds e's 0.25; exceeds f's 0.25; and 1 more"
        )

    def test_a_fallback_winner_outside_the_contenders(self):
        table = _one_column_table({"A": (0.9, 0.0, 0.8), "B": (0.2, 0.3, 0.1), "C": (0.8, 0.1, 0.2)})
        report = decide(table, "neutrosophic", criterion="combined")
        assert report.winners == ("C",)
        assert report.risk_notes == {"C": "indeterminacy 0.1 exceeds A's 0; is below B's 0.3"}

    @pytest.mark.parametrize("render", [render_report_text, render_report_json])
    def test_report_size_is_linear_in_tied_rows(self, render):
        def bytes_per_row(rows):
            table = _one_column_table({f"c{i:04d}": (0.25, 0.5, 0.125) for i in range(rows)})
            report = decide(table, "neutrosophic")
            assert len(report.winners) == rows
            return len(render(report).encode()) / rows

        small, large = bytes_per_row(500), bytes_per_row(2000)
        assert abs(large - small) <= 0.1 * small


class TestTieBoundaries:
    """A value exactly epsilon from the best ties; one float step further does not."""

    def test_binary_winners(self):
        table = DecisionTable(("a", "b"), ("e1", "e2"), (
            (BinCell(1), BinCell(0)),
            (BinCell(0), BinCell(0)),
        ))
        assert decide(table, "binary", epsilon=1.0).winners == ("a", "b")
        assert decide(table, "binary", epsilon=math.nextafter(1.0, 0.0)).winners == ("a",)

    def test_grey_winners(self):
        def table(b):
            return DecisionTable(("a", "b"), ("e",), (
                (GreyCell(0.75, 0.75),),
                (GreyCell(b, b),),
            ))

        assert decide(table(0.5), "grey", epsilon=0.25).winners == ("a", "b")
        assert decide(table(math.nextafter(0.5, 0.0)), "grey", epsilon=0.25).winners == ("a",)

    def test_optimistic(self):
        def scores(truth):
            return {"a": Triplet(0.75, 0.0, 0.0), "b": Triplet(truth, 0.0, 0.0)}

        assert rank_optimistic(scores(0.5), 0.25) == ["a", "b"]
        assert rank_optimistic(scores(math.nextafter(0.5, 0.0)), 0.25) == ["a"]

    def test_conservative(self):
        def scores(falsity):
            return {"a": Triplet(0.0, 0.0, 0.25), "b": Triplet(0.0, 0.0, falsity)}

        assert rank_conservative(scores(0.5), 0.25) == ["a", "b"]
        assert rank_conservative(scores(math.nextafter(0.5, 1.0)), 0.25) == ["a"]

    def test_combined_fallback_net_score(self):
        eps = 0.0625

        def scores(falsity):
            # optimistic -> hi, conservative -> lo; nets 0.25 and 0.5 - falsity
            return {"hi": Triplet(0.75, 0.5, 0.5), "lo": Triplet(0.5, 0.0, falsity)}

        assert rank_combined(scores(0.3125), eps) == ["lo"]
        assert rank_combined(scores(math.nextafter(0.3125, 1.0)), eps) == ["hi"]

    def test_combined_fallback_indeterminacy(self):
        eps = 0.0625

        def scores(doubt):
            # disjoint criteria, both nets 0.25; lo's indeterminacy is the least
            return {"hi": Triplet(0.75, doubt, 0.5), "lo": Triplet(0.5, 0.25, 0.25)}

        assert rank_combined(scores(0.3125), eps) == ["hi"]
        assert rank_combined(scores(math.nextafter(0.3125, 1.0)), eps) == ["lo"]


_NEUTROSOPHIC_HINT = (
    "supply triplets for this cell (grades and intervals have no "
    "automatic triplet translation) or run the grey method"
)


class TestMismatchMessages:
    @pytest.mark.parametrize("method, cell, found, hint", [
        ("binary", GradeCell("C"), "grade 'C'", "only 0/1 cells are allowed"),
        ("binary", GreyCell(0.6, 0.74), "interval [0.6;0.74]",
         "only 0/1 cells are allowed"),
        ("binary", NeutroCell(0.5, 0.1, 1), "triplet (0.5;0.1;1.0)",
         "only 0/1 cells are allowed"),
        ("grey", NeutroCell(0.5, 0.1, 1), "triplet (0.5;0.1;1.0)",
         "only 0/1, grade and interval cells are allowed"),
        ("neutrosophic", GradeCell("C"), "grade 'C'", _NEUTROSOPHIC_HINT),
        ("neutrosophic", GreyCell(0.6, 0.74), "interval [0.6;0.74]",
         _NEUTROSOPHIC_HINT),
    ])
    def test_every_rejected_cell_kind(self, method, cell, found, hint):
        table = DecisionTable(("c",), ("e",), ((cell,),))
        with pytest.raises(CellMismatchError) as excinfo:
            decide(table, method)
        assert str(excinfo.value) == (
            f"method '{method}' cannot use cell (c, e): found {found}; {hint}"
        )


# A cell of each kind, with the way a mismatch message describes it; "Z" is on no scale.
_FOLD_CELLS = (
    (BinCell(0), "binary 0"), (BinCell(1), "binary 1"), (GradeCell("A"), "grade 'A'"),
    (GradeCell("Z"), "grade 'Z'"), (GreyCell(0.6, 0.74), "interval [0.6;0.74]"),
    (NeutroCell(0.5, 0.1, 1), "triplet (0.5;0.1;1.0)"),
)
_FOLDS = {  # method -> (its scorer, the cell classes it accepts, its mismatch hint)
    "binary": (choice_values_binary, {BinCell}, "only 0/1 cells are allowed"),
    "grey": (lambda table: choice_values_grey(table, default_scale()), {BinCell, GradeCell, GreyCell},
             "only 0/1, grade and interval cells are allowed"),
    "neutrosophic": (choice_values_neutrosophic, {BinCell, NeutroCell}, _NEUTROSOPHIC_HINT),
}


def _first_offence(method, candidates, parameters, grid):
    """The oracle: (error class, cell, message) of the first offending cell in row-major order."""
    _, accepted, hint = _FOLDS[method]
    for candidate, row in zip(candidates, grid):
        for parameter, (cell, found) in zip(parameters, row):
            if type(cell) not in accepted:
                return (CellMismatchError, (candidate, parameter),
                        f"method '{method}' cannot use cell ({candidate}, {parameter}): found {found}; {hint}")
            if cell == GradeCell("Z"):
                return (UnknownGradeError, (candidate, parameter), f"unknown grade 'Z' in cell "
                        f"({candidate}, {parameter}); the scale defines A, B, C, D, F")
    return None


@settings(max_examples=300, deadline=None)
@given(method=st.sampled_from(sorted(_FOLDS)), data=st.data())
def test_a_failed_fold_names_its_first_offending_cell_in_row_major_order(method, data):
    rows = data.draw(st.integers(1, 4), label="rows")
    cols = data.draw(st.integers(1, 4), label="cols")
    grid = data.draw(st.lists(st.lists(st.sampled_from(_FOLD_CELLS), min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows), label="grid")
    candidates, parameters = tuple(f"c{i}" for i in range(rows)), tuple(f"e{j}" for j in range(cols))
    table = DecisionTable(candidates, parameters, [[cell for cell, _ in row] for row in grid])
    score = _FOLDS[method][0]
    expected = _first_offence(method, candidates, parameters, grid)
    if expected is None:
        assert set(score(table)) == set(candidates)
        return
    with pytest.raises((CellMismatchError, UnknownGradeError)) as excinfo:
        score(table)
    error = excinfo.value
    where = error.cell if isinstance(error, UnknownGradeError) else (error.candidate, error.parameter)
    assert (type(error), where, str(error)) == expected
