import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softchoice.engine import (
    BinCell,
    CellMismatchError,
    Criterion,
    DecisionTable,
    GradeCell,
    GreyCell,
    Method,
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
from softchoice.neutrosophic import Triplet
from softchoice.tableio import render_report_json, render_report_text

from conftest import BINARY_SCORES, GREY_SCORES, TRIPLET_SCORES, random_triplet


def assert_triplet_close(actual, expected, abs_tol=1e-9):
    assert actual.truth == pytest.approx(expected[0], abs=abs_tol)
    assert actual.indeterminacy == pytest.approx(expected[1], abs=abs_tol)
    assert actual.falsity == pytest.approx(expected[2], abs=abs_tol)


class TestBinaryMethod:
    def test_players_example(self, binary_table):
        assert choice_values_binary(binary_table) == BINARY_SCORES

    def test_single_zero_cell(self):
        table = DecisionTable(("c",), ("e",), ((BinCell(0),),))
        assert choice_values_binary(table) == {"c": 0}

    def test_grade_cell_rejected_with_location(self, graded_table):
        with pytest.raises(CellMismatchError) as excinfo:
            choice_values_binary(graded_table)
        assert excinfo.value.candidate == "P1"
        assert excinfo.value.parameter == "e4"
        assert "grade 'C'" in str(excinfo.value)


class TestGreyMethod:
    def test_players_example(self, graded_table):
        scores = choice_values_grey(graded_table, default_scale())
        assert set(scores) == set(GREY_SCORES)
        for candidate, expected in GREY_SCORES.items():
            assert scores[candidate] == pytest.approx(expected, abs=1e-9)

    def test_all_binary_table_matches_binary_method(self, binary_table):
        assert choice_values_grey(binary_table, default_scale()) == choice_values_binary(binary_table)

    def test_triplet_cell_rejected(self, graded_table):
        cells = list(list(row) for row in graded_table.cells)
        cells[2][1] = NeutroCell(Triplet(1, 0, 0))
        table = DecisionTable(graded_table.candidates, graded_table.parameters, cells)
        with pytest.raises(CellMismatchError) as excinfo:
            choice_values_grey(table, default_scale())
        assert (excinfo.value.candidate, excinfo.value.parameter) == ("P3", "e2")

    def test_unknown_grade_propagates(self):
        table = DecisionTable(("c",), ("e",), ((GradeCell("E"),),))
        with pytest.raises(UnknownGradeError, match="'E'"):
            choice_values_grey(table, default_scale())

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


class TestNeutrosophicMethod:
    def test_players_example(self, triplet_table):
        scores = choice_values_neutrosophic(triplet_table)
        for candidate, expected in TRIPLET_SCORES.items():
            assert_triplet_close(scores[candidate], expected)

    def test_all_binary_row_embeds_to_count_fractions(self):
        table = DecisionTable(
            ("c1", "c2"), ("e1", "e2", "e3", "e4"),
            (
                tuple(BinCell(v) for v in (1, 0, 1, 1)),
                tuple(BinCell(v) for v in (0, 0, 0, 0)),
            ),
        )
        scores = choice_values_neutrosophic(table)
        assert_triplet_close(scores["c1"], (3 / 4, 0.0, 1 / 4), abs_tol=1e-12)
        assert_triplet_close(scores["c2"], (0.0, 0.0, 1.0), abs_tol=1e-12)

    def test_grade_cell_rejected_with_guidance(self, graded_table):
        with pytest.raises(CellMismatchError) as excinfo:
            choice_values_neutrosophic(graded_table)
        assert (excinfo.value.candidate, excinfo.value.parameter) == ("P1", "e4")
        assert "triplet" in excinfo.value.hint
        assert "grey method" in excinfo.value.hint


class TestRanking:
    @pytest.fixture
    def player_scores(self, triplet_table):
        return choice_values_neutrosophic(triplet_table)

    def test_optimistic_keeps_both_top_truth_candidates(self, player_scores):
        assert rank_optimistic(player_scores) == ["P3", "P5"]

    def test_conservative_keeps_the_least_falsity_candidate(self, player_scores):
        assert rank_conservative(player_scores) == ["P3"]

    def test_combined_intersects_the_two(self, player_scores):
        assert rank_combined(player_scores) == ["P3"]

    def test_distinct_truths_give_a_singleton_argmax(self):
        rng = random.Random(303)
        for _ in range(50):
            scores = {f"c{i}": random_triplet(rng) for i in range(1, 6)}
            winners = rank_optimistic(scores)
            # exhaustive-comparison oracle
            expected = [
                candidate for candidate, score in scores.items()
                if all(score.truth >= other.truth - 1e-9 for other in scores.values())
            ]
            assert winners == expected

    def test_conservative_matches_exhaustive_argmin(self):
        rng = random.Random(404)
        for _ in range(50):
            scores = {f"c{i}": random_triplet(rng) for i in range(1, 6)}
            expected = [
                candidate for candidate, score in scores.items()
                if all(score.falsity <= other.falsity + 1e-9 for other in scores.values())
            ]
            assert rank_conservative(scores) == expected

    def test_combined_fallback_uses_net_score(self):
        scores = {"first": Triplet(0.9, 0.0, 0.5), "second": Triplet(0.6, 0.0, 0.1)}
        # intersection empty; net scores 0.4 vs 0.5
        assert rank_combined(scores) == ["second"]

    def test_combined_fallback_breaks_net_ties_toward_lower_indeterminacy(self):
        scores = {
            "doubtful": Triplet(0.8, 0.4, 0.2),
            "confident": Triplet(0.7, 0.05, 0.1),
        }
        # optimistic -> doubtful, conservative -> confident, net tied at 0.6
        assert rank_combined(scores) == ["confident"]

    def test_combined_fallback_full_tie_takes_the_earliest(self):
        scores = {
            "left": Triplet(0.8, 0.2, 0.2),
            "right": Triplet(0.7, 0.2, 0.1),
        }
        # disjoint criteria, equal net 0.6, equal indeterminacy
        assert rank_combined(scores) == ["left"]

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            rank_optimistic({})


class TestDecide:
    def test_binary_report(self, binary_table):
        report = decide(binary_table, "binary")
        assert report.method is Method.BINARY
        assert report.scores == BINARY_SCORES
        assert report.winners == ("P2", "P3", "P5", "P6")
        assert report.criterion is None
        assert report.risk_notes == {}

    def test_grey_report_defaults_to_the_builtin_scale(self, graded_table):
        report = decide(graded_table, "grey")
        assert report.winners == ("P3",)
        assert report.scores["P3"] == pytest.approx(3.34, abs=1e-9)

    def test_neutrosophic_combined_report(self, triplet_table):
        report = decide(triplet_table, "neutrosophic")
        assert report.criterion is Criterion.COMBINED
        assert report.winners == ("P3",)
        note = report.risk_notes["P3"]
        assert "0.15" in note and "0.1" in note
        assert "exceeds P5's" in note
        assert any("combined criterion" in text for text in report.notes)
        assert not any("fallback applied" in text for text in report.notes)

    def test_neutrosophic_optimistic_report(self, triplet_table):
        report = decide(triplet_table, "neutrosophic", criterion="optimistic")
        assert report.winners == ("P3", "P5")
        assert "is below P3's" in report.risk_notes["P5"]

    def test_fallback_is_flagged_when_used(self):
        table = DecisionTable(
            ("first", "second"), ("e1",),
            ((NeutroCell(Triplet(0.9, 0.0, 0.5)),), (NeutroCell(Triplet(0.6, 0.0, 0.1)),)),
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

    def test_mismatch_propagates(self, graded_table):
        with pytest.raises(CellMismatchError):
            decide(graded_table, "neutrosophic")

    def test_reports_are_deterministic(self, triplet_table):
        assert decide(triplet_table, "neutrosophic") == decide(triplet_table, "neutrosophic")


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
        # cell that write_table could not spell.
        class OwnBin(BinCell):
            pass

        with pytest.raises(TypeError, match=r"row 'c' holds a non-cell value .*OwnBin\(value=1\)"):
            DecisionTable(("c",), ("e1",), ((OwnBin(1),),))

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


def _one_column_table(rows):
    """A neutrosophic table of one parameter; ``rows`` maps candidate to triplet."""
    return DecisionTable(
        tuple(rows), ("e1",), tuple((NeutroCell(Triplet(*row)),) for row in rows.values())
    )


def _oracle_note(scores, winner, contenders, epsilon):
    """The risk note spelled out from a sort of all the other contenders."""
    order = list(scores).index
    doubt = scores[winner].indeterminacy
    others = [name for name in contenders if name != winner]
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
    contenders = [name for name in names if draw(st.booleans())]
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
            unnamed = len(set(contenders) - {winner}) - 5
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
                (GreyCell(GreyNumber(0.75, 0.75)),),
                (GreyCell(GreyNumber(b, b)),),
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
        ("binary", GreyCell(GreyNumber(0.6, 0.74)), "interval [0.6;0.74]",
         "only 0/1 cells are allowed"),
        ("binary", NeutroCell(Triplet(0.5, 0.1, 1)), "triplet (0.5;0.1;1.0)",
         "only 0/1 cells are allowed"),
        ("grey", NeutroCell(Triplet(0.5, 0.1, 1)), "triplet (0.5;0.1;1.0)",
         "only 0/1, grade and interval cells are allowed"),
        ("neutrosophic", GradeCell("C"), "grade 'C'", _NEUTROSOPHIC_HINT),
        ("neutrosophic", GreyCell(GreyNumber(0.6, 0.74)), "interval [0.6;0.74]",
         _NEUTROSOPHIC_HINT),
    ])
    def test_every_rejected_cell_kind(self, method, cell, found, hint):
        table = DecisionTable(("c",), ("e",), ((cell,),))
        with pytest.raises(CellMismatchError) as excinfo:
            decide(table, method)
        assert str(excinfo.value) == (
            f"method '{method}' cannot use cell (c, e): found {found}; {hint}"
        )
