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

from conftest import BINARY_SCORES, GREY_SCORES, TRIPLET_SCORES


def random_bin_table(rng, max_rows=12, max_cols=8):
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    return DecisionTable(
        tuple(f"c{i}" for i in range(1, rows + 1)),
        tuple(f"e{j}" for j in range(1, cols + 1)),
        tuple(tuple(BinCell(rng.randint(0, 1)) for _ in range(cols)) for _ in range(rows)),
    )


def random_grey_cell(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return BinCell(rng.randint(0, 1))
    if kind == 1:
        return GradeCell(rng.choice("ABCDF"))
    a, b = sorted((rng.random(), rng.random()))
    return GreyCell(GreyNumber(a, b))


def random_grey_table(rng, max_rows=8, max_cols=6):
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    return DecisionTable(
        tuple(f"c{i}" for i in range(1, rows + 1)),
        tuple(f"e{j}" for j in range(1, cols + 1)),
        tuple(tuple(random_grey_cell(rng) for _ in range(cols)) for _ in range(rows)),
    )


def random_triplet(rng):
    return Triplet(rng.random(), rng.random(), rng.random())


def random_neutro_table(rng, max_rows=8, max_cols=6):
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    return DecisionTable(
        tuple(f"c{i}" for i in range(1, rows + 1)),
        tuple(f"e{j}" for j in range(1, cols + 1)),
        tuple(
            tuple(
                BinCell(rng.randint(0, 1)) if rng.random() < 0.4 else NeutroCell(random_triplet(rng))
                for _ in range(cols)
            )
            for _ in range(rows)
        ),
    )


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

    def test_matches_row_sum_oracle(self):
        rng = random.Random(101)
        for _ in range(50):
            table = random_bin_table(rng, max_rows=6, max_cols=4)
            expected = {
                candidate: sum(cell.value for cell in row)
                for candidate, row in zip(table.candidates, table.cells)
            }
            assert choice_values_binary(table) == expected

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

    def test_matches_direct_midpoint_oracle(self):
        rng = random.Random(202)
        scale = default_scale()
        for _ in range(50):
            table = random_grey_table(rng, max_rows=5, max_cols=4)
            scores = choice_values_grey(table, scale)
            for candidate, row in zip(table.candidates, table.cells):
                ones = sum(cell.value for cell in row if isinstance(cell, BinCell))
                intervals = [
                    scale[cell.label] if isinstance(cell, GradeCell) else cell.interval
                    for cell in row
                    if not isinstance(cell, BinCell)
                ]
                expected = ones + (
                    (sum(i.lower for i in intervals) + sum(i.upper for i in intervals)) / 2.0
                    if intervals else 0.0
                )
                assert scores[candidate] == pytest.approx(expected, abs=1e-12)

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

    def test_single_candidate_wins_everything(self):
        scores = {"only": Triplet(0.5, 0.5, 0.5)}
        assert rank_optimistic(scores) == ["only"]
        assert rank_conservative(scores) == ["only"]
        assert rank_combined(scores) == ["only"]

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


class TestStructuralProperties:
    def test_candidate_permutation_permutes_scores(self, graded_table):
        order = [3, 0, 5, 1, 4, 2]
        permuted = DecisionTable(
            tuple(graded_table.candidates[i] for i in order),
            graded_table.parameters,
            tuple(graded_table.cells[i] for i in order),
        )
        original = choice_values_grey(graded_table, default_scale())
        shuffled = choice_values_grey(permuted, default_scale())
        assert shuffled == original
        assert list(shuffled) == [graded_table.candidates[i] for i in order]

    def test_parameter_permutation_leaves_scores_unchanged(self, triplet_table):
        order = [2, 0, 3, 1]
        permuted = DecisionTable(
            triplet_table.candidates,
            tuple(triplet_table.parameters[j] for j in order),
            tuple(tuple(row[j] for j in order) for row in triplet_table.cells),
        )
        original = choice_values_neutrosophic(triplet_table)
        shuffled = choice_values_neutrosophic(permuted)
        for candidate in original:
            assert_triplet_close(
                shuffled[candidate],
                (
                    original[candidate].truth,
                    original[candidate].indeterminacy,
                    original[candidate].falsity,
                ),
                abs_tol=1e-12,
            )

    def test_grey_scores_bounded_by_parameter_count(self):
        rng = random.Random(505)
        scale = default_scale()
        for _ in range(30):
            table = random_grey_table(rng)
            for value in choice_values_grey(table, scale).values():
                assert 0.0 <= value <= len(table.parameters) + 1e-12

    def test_neutrosophic_scores_stay_in_the_box(self):
        rng = random.Random(606)
        for _ in range(30):
            table = random_neutro_table(rng)
            for score in choice_values_neutrosophic(table).values():
                for component in (score.truth, score.indeterminacy, score.falsity):
                    assert 0.0 <= component <= 1.0


class TestTableConstruction:
    def test_empty_tables_rejected(self):
        with pytest.raises(ValueError, match="at least one candidate"):
            DecisionTable((), ("e1",), ())
        with pytest.raises(ValueError, match="at least one parameter"):
            DecisionTable(("c",), (), ((),))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="expected 2"):
            DecisionTable(("c",), ("e1", "e2"), ((BinCell(0),),))

    def test_non_cell_values_rejected(self):
        with pytest.raises(TypeError, match="non-cell"):
            DecisionTable(("c",), ("e1",), ((1,),))

    def test_cell_lookup_by_identifiers(self, graded_table):
        assert graded_table.cell("P4", "e1") == GradeCell("D")


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


class TestMismatchMessages:
    def test_interval_cell(self):
        table = DecisionTable(("c",), ("e",), ((GreyCell(GreyNumber(0.6, 0.74)),),))
        with pytest.raises(CellMismatchError) as excinfo:
            choice_values_binary(table)
        assert str(excinfo.value) == (
            "method 'binary' cannot use cell (c, e): found interval [0.6;0.74]; "
            "only 0/1 cells are allowed"
        )

    def test_triplet_cell(self):
        table = DecisionTable(("c",), ("e",), ((NeutroCell(Triplet(0.5, 0.1, 1)),),))
        with pytest.raises(CellMismatchError) as excinfo:
            choice_values_grey(table, default_scale())
        assert str(excinfo.value) == (
            "method 'grey' cannot use cell (c, e): found triplet (0.5;0.1;1.0); "
            "only 0/1, grade and interval cells are allowed"
        )
