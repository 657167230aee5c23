"""Exact (==) oracles for the choice values on seeded random tables.

The grey oracle adds the interval endpoints as floats, left to right, and
takes the midpoint once; the neutrosophic oracle is the exact rational
mean rounded once per component. Scores must match to the last bit, not
to within a tolerance.
"""

import random
from fractions import Fraction

import pytest

from softchoice.cli import run_cli
from softchoice.engine import (
    BinCell,
    DecisionTable,
    GradeCell,
    GreyCell,
    NeutroCell,
    choice_values_binary,
    choice_values_grey,
    choice_values_neutrosophic,
    decide,
)
from softchoice.grades import default_scale
from softchoice.grey import GreyNumber
from softchoice.neutrosophic import Triplet

SEEDS = range(8)


def _real(rng):
    """A float with a full 53-bit mantissa at a random scale, so sums round."""
    return rng.random() * 10.0 ** rng.randint(-3, 3)


def _table(rng, make_cell):
    rows, cols = rng.randint(1, 12), rng.randint(1, 30)
    return DecisionTable(
        tuple(f"c{i}" for i in range(rows)),
        tuple(f"e{j}" for j in range(cols)),
        tuple(tuple(make_cell(rng) for _ in range(cols)) for _ in range(rows)),
    )


def _grey_cell(rng):
    draw = rng.random()
    if draw < 0.3:
        return BinCell(rng.randint(0, 1))
    if draw < 0.5:
        return GradeCell(rng.choice("ABCDF"))
    lower = _real(rng)
    return GreyCell(GreyNumber(lower, lower + _real(rng)))


def _neutro_cell(rng):
    if rng.random() < 0.3:
        return BinCell(rng.randint(0, 1))
    return NeutroCell(Triplet(rng.random(), rng.random(), rng.random()))


def _grey_oracle(row, scale):
    ones, lower, upper = 0, 0.0, 0.0
    for cell in row:
        if isinstance(cell, BinCell):
            ones += cell.value
            continue
        interval = scale[cell.label] if isinstance(cell, GradeCell) else cell.interval
        lower += interval.lower
        upper += interval.upper
    return ones + (lower + upper) / 2.0


def _neutro_oracle(row):
    components = []
    for cell in row:
        if isinstance(cell, BinCell):
            components.append((1.0, 0.0, 0.0) if cell.value else (0.0, 0.0, 1.0))
        else:
            triplet = cell.triplet
            components.append((triplet.truth, triplet.indeterminacy, triplet.falsity))
    return tuple(
        float(sum(Fraction(values[k]) for values in components) / len(components))
        for k in range(3)
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_binary_scores_are_exact_row_sums(seed):
    rng = random.Random(f"binary:{seed}")
    table = _table(rng, lambda rng: BinCell(rng.randint(0, 1)))
    scores = choice_values_binary(table)
    for candidate, row in zip(table.candidates, table.cells):
        assert scores[candidate] == sum(cell.value for cell in row)
        assert type(scores[candidate]) is int


@pytest.mark.parametrize("seed", SEEDS)
def test_grey_scores_equal_left_to_right_endpoint_sums(seed):
    rng = random.Random(f"grey:{seed}")
    scale = default_scale()
    for _ in range(10):
        table = _table(rng, _grey_cell)
        scores = choice_values_grey(table, scale)
        assert list(scores) == list(table.candidates)
        for candidate, row in zip(table.candidates, table.cells):
            assert scores[candidate] == _grey_oracle(row, scale)
            assert type(scores[candidate]) is float


@pytest.mark.parametrize("seed", SEEDS)
def test_neutrosophic_scores_equal_the_rational_mean_rounded_once(seed):
    rng = random.Random(f"neutrosophic:{seed}")
    for _ in range(10):
        table = _table(rng, _neutro_cell)
        scores = choice_values_neutrosophic(table)
        assert list(scores) == list(table.candidates)
        for candidate, row in zip(table.candidates, table.cells):
            score = scores[candidate]
            assert (score.truth, score.indeterminacy, score.falsity) == _neutro_oracle(row)


def _huge_grey_table(*intervals):
    cells = tuple(GreyCell(GreyNumber(lower, upper)) for lower, upper in intervals)
    return DecisionTable(
        ("safe", "huge"), tuple(f"e{j}" for j in range(len(cells))),
        (tuple(BinCell(1) for _ in cells), cells),
    )


@pytest.mark.parametrize("intervals", [
    ((1e308, 1.5e308), (1e308, 1.5e308)),  # the endpoint sums overflow
    ((1e308, 1.7e308),),  # the endpoints are finite, their midpoint sum is not
], ids=["endpoint-sum", "midpoint"])
def test_grey_score_beyond_float_range_names_the_candidate(tmp_path, capsys, intervals):
    table = _huge_grey_table(*intervals)
    with pytest.raises(ValueError, match="'huge'.*finite"):
        decide(table, "grey")

    cells = ",".join("[%r;%r]" % interval for interval in intervals)
    path = tmp_path / "huge.csv"
    path.write_text(
        "," + ",".join(table.parameters) + "\n"
        + "safe," + ",".join("1" for _ in intervals) + "\n"
        + "huge," + cells + "\n",
        encoding="utf-8",
    )
    assert run_cli(["decide", "--input", str(path), "--method", "grey"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err and "'huge'" in captured.err
    assert "Traceback" not in captured.err
