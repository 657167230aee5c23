"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS
lines on passing runs; failures surface as normal assertion errors).
"""

import json
import random

import pytest

from softchoice.cli import run_cli
from softchoice.engine import (
    BinCell,
    DecisionTable,
    choice_values_binary,
    choice_values_grey,
    choice_values_neutrosophic,
    decide,
    rank_combined,
    rank_conservative,
    rank_optimistic,
)
from softchoice.grades import default_scale
from softchoice.neutrosophic import Triplet, mean
from softchoice.softset import SoftSet
from softchoice.tableio import parse_table, write_table

from conftest import (
    BINARY_DOC,
    BINARY_SCORES,
    GRADED_DOC,
    GREY_SCORES,
    TRIPLET_DOC,
    TRIPLET_SCORES,
    random_interval,
    random_table,
    random_triplet,
)

COMPONENTS = ("truth", "indeterminacy", "falsity")


def _passed(number, label):
    print(f"acceptance {number} ({label}): PASS")


def _scores(method, table):
    if method == "binary":
        return choice_values_binary(table)
    if method == "grey":
        return choice_values_grey(table, default_scale())
    return choice_values_neutrosophic(table)


def _score_close(method, a, b, abs_tol):
    if method == "binary":
        return a == b
    if method == "grey":
        return abs(a - b) <= abs_tol
    return all(abs(getattr(a, name) - getattr(b, name)) <= abs_tol for name in COMPONENTS)


def test_c1_binary_worked_example(binary_table):
    scores = choice_values_binary(binary_table)
    assert scores == BINARY_SCORES
    assert all(isinstance(value, int) for value in scores.values())
    report = decide(binary_table, "binary")
    assert report.winners == ("P2", "P3", "P5", "P6")
    _passed(1, "binary worked example")


def test_c2_grey_worked_example(graded_table):
    scores = choice_values_grey(graded_table, default_scale())
    assert set(scores) == set(GREY_SCORES)
    for candidate, expected in GREY_SCORES.items():
        assert scores[candidate] == pytest.approx(expected, abs=1e-9)
    assert decide(graded_table, "grey").winners == ("P3",)
    _passed(2, "grey worked example")


def test_c3_neutrosophic_worked_example(triplet_table):
    # P2's middle component comes out 0.05 by the mean definition
    # ((0 + 0 + 0 + 0.2) / 4); the 0.005 sometimes seen in transcriptions
    # of this example contradicts the definition and is not reproduced.
    scores = choice_values_neutrosophic(triplet_table)
    for candidate, expected in TRIPLET_SCORES.items():
        for name, value in zip(COMPONENTS, expected):
            assert getattr(scores[candidate], name) == pytest.approx(value, abs=1e-9)
    _passed(3, "neutrosophic worked example")


def test_c4_ranking_criteria_and_risk_note(triplet_table):
    scores = choice_values_neutrosophic(triplet_table)
    assert rank_optimistic(scores) == ["P3", "P5"]
    assert rank_conservative(scores) == ["P3"]
    assert rank_combined(scores) == ["P3"]
    report = decide(triplet_table, "neutrosophic", criterion="combined")
    assert report.winners == ("P3",)
    note = report.risk_notes["P3"]
    assert "0.15" in note and "exceeds P5's 0.1" in note
    _passed(4, "ranking criteria and risk note")


def test_c5_algebra_property_suite():
    rng = random.Random(51)
    for _ in range(1000):  # grey addition laws, midpoint homomorphisms and width scaling
        a = random_interval(rng)
        b = random_interval(rng)
        c = random_interval(rng)
        k = rng.uniform(1e-3, 10.0)
        assert a + b == b + a
        left, right = (a + b) + c, a + (b + c)
        assert abs(left.lower - right.lower) <= 1e-12
        assert abs(left.upper - right.upper) <= 1e-12
        assert abs((a + b).midpoint() - (a.midpoint() + b.midpoint())) <= 1e-12
        assert abs(a.scale(k).midpoint() - k * a.midpoint()) <= 1e-12
        assert abs(a.scale(k).width() - k * a.width()) <= 1e-12
    for _ in range(1000):  # triplet mean laws
        items = [
            (random_triplet(rng), rng.randint(1, 10))
            for _ in range(rng.randint(1, 6))
        ]
        value = mean(items)
        for name in COMPONENTS:
            degrees = [getattr(triplet, name) for triplet, _ in items]
            assert min(degrees) <= getattr(value, name) <= max(degrees)

        same = random_triplet(rng)
        copies = [(same, rng.randint(1, 10)) for _ in range(rng.randint(1, 4))]
        assert mean(copies) == same  # idempotence on identical inputs

        split = []
        for triplet, count in items:
            if count > 1:
                cut = rng.randint(1, count - 1)
                split.extend([(triplet, cut), (triplet, count - cut)])
            else:
                split.append((triplet, count))
        assert mean(split) == value
    _passed(5, "algebra property suite, 1000 cases per law")


def test_c6_embedding_consistency_suite():
    rng = random.Random(62)
    scale = default_scale()
    for _ in range(200):
        table = random_table(rng, "binary")
        binary = choice_values_binary(table)
        assert choice_values_grey(table, scale) == binary
        cols = len(table.parameters)
        triplets = choice_values_neutrosophic(table)
        for candidate, ones in binary.items():
            score = triplets[candidate]
            assert abs(score.truth - ones / cols) <= 1e-12
            assert score.indeterminacy == 0.0
            assert abs(score.falsity - (cols - ones) / cols) <= 1e-12
        top = max(binary.values())
        binary_argmax = [candidate for candidate, value in binary.items() if value == top]
        assert rank_optimistic(triplets) == binary_argmax
    _passed(6, "embedding consistency suite, 200 random 0/1 tables")


def test_c7_equivariance_suite():
    rng = random.Random(73)
    tolerances = {"binary": 0.0, "grey": 1e-12, "neutrosophic": 0.0}
    for index in range(200):
        method = ("binary", "grey", "neutrosophic")[index % 3]
        table = random_table(rng, method)
        scores = _scores(method, table)

        row_order = rng.sample(range(len(table.candidates)), len(table.candidates))
        by_rows = DecisionTable(
            tuple(table.candidates[i] for i in row_order),
            table.parameters,
            tuple(table.cells[i] for i in row_order),
        )
        permuted = _scores(method, by_rows)
        assert list(permuted) == [table.candidates[i] for i in row_order]
        assert permuted == scores  # same candidate-to-score mapping

        col_order = rng.sample(range(len(table.parameters)), len(table.parameters))
        by_cols = DecisionTable(
            table.candidates,
            tuple(table.parameters[j] for j in col_order),
            tuple(tuple(row[j] for j in col_order) for row in table.cells),
        )
        reordered = _scores(method, by_cols)
        for candidate in scores:
            assert _score_close(method, reordered[candidate], scores[candidate], tolerances[method])
    _passed(7, "equivariance suite, 200 random tables")


def test_c8_soft_set_suite():
    houses = SoftSet(
        ("H1", "H2", "H3"),
        ("cheap", "beautiful", "expensive"),
        {
            "cheap": {"H1", "H2"},
            "beautiful": {"H2", "H3"},
            "expensive": {"H3"},
        },
    )
    one, zero = BinCell(1), BinCell(0)
    assert houses.tabulate().cells == ((one, zero, zero), (one, one, zero), (zero, one, one))

    rng = random.Random(84)
    for _ in range(200):
        universe = tuple(f"x{i}" for i in range(1, rng.randint(1, 8) + 1))
        parameters = tuple(f"e{j}" for j in range(1, rng.randint(1, 6) + 1))
        soft = SoftSet(
            universe, parameters,
            {
                parameter: frozenset(x for x in universe if rng.random() < 0.5)
                for parameter in parameters
            },
        )
        assert SoftSet.from_table(soft.tabulate()) == soft
        rows = tuple(tuple(BinCell(rng.randint(0, 1)) for _ in parameters) for _ in universe)
        matrix = DecisionTable(universe, parameters, rows)
        assert SoftSet.from_table(matrix).tabulate() == matrix

    for _ in range(200):
        membership = {f"x{i}": rng.random() for i in range(1, rng.randint(1, 8) + 1)}
        levels = sorted({round(rng.random(), 3) for _ in range(rng.randint(1, 5))})
        soft = SoftSet.from_fuzzy(membership, levels)
        cuts = [soft.value_sets[parameter] for parameter in soft.parameters]
        for lower_cut, higher_cut in zip(cuts, cuts[1:]):
            assert higher_cut <= lower_cut  # higher level keeps fewer elements
        for level, cut in zip(levels, cuts):
            assert cut == frozenset(x for x, m in membership.items() if m >= level)
    _passed(8, "soft-set suite, 200 round-trips and 200 membership maps")


def test_c9_io_and_cli_suite(tmp_path, capsys, docs):
    # parse and byte-stable round-trip of the three worked documents
    for doc in (BINARY_DOC, GRADED_DOC, TRIPLET_DOC):
        table = parse_table(doc)
        once = write_table(table)
        assert parse_table(once) == table
        assert write_table(parse_table(once)) == once

    # end-to-end winners of the worked examples
    assert run_cli(["decide", "--input", docs["binary"], "--method", "binary"]) == 0
    assert "winners: P2 P3 P5 P6" in capsys.readouterr().out
    assert run_cli(["decide", "--input", docs["graded"], "--method", "grey"]) == 0
    assert "winners: P3" in capsys.readouterr().out
    assert run_cli([
        "decide", "--input", docs["triplet"], "--method", "neutrosophic",
        "--criterion", "optimistic",
    ]) == 0
    assert "winners: P3 P5" in capsys.readouterr().out
    assert run_cli([
        "decide", "--input", docs["triplet"], "--method", "neutrosophic",
        "--criterion", "conservative",
    ]) == 0
    assert "winners: P3" in capsys.readouterr().out
    assert run_cli([
        "decide", "--input", docs["triplet"], "--method", "neutrosophic",
        "--format", "json",
    ]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["winners"] == ["P3"]
    assert "exceeds P5's 0.1" in document["risk_notes"]["P3"]

    # documented error paths and their exit codes
    assert run_cli(["decide", "--method", "binary"]) == 1  # usage
    assert run_cli([
        "decide", "--input", docs["binary"], "--method", "binary",
        "--criterion", "combined",
    ]) == 1
    capsys.readouterr()

    broken = tmp_path / "broken.csv"
    broken.write_text(",e1\nc1,(0.6;0.3)\n", encoding="utf-8")
    assert run_cli(["decide", "--input", str(broken), "--method", "neutrosophic"]) == 2
    assert run_cli(["decide", "--input", str(tmp_path / "missing.csv"), "--method", "binary"]) == 2
    capsys.readouterr()

    assert run_cli(["decide", "--input", docs["graded"], "--method", "neutrosophic"]) == 3
    err = capsys.readouterr().err
    assert "(P1, e4)" in err and "grade 'C'" in err
    _passed(9, "input/output and command-line suite")
