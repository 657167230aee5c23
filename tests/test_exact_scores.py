"""Exact (==) oracles for the choice values on seeded random tables.

The grey oracle adds the interval endpoints as floats, left to right, and
takes the midpoint once; the neutrosophic oracle is the exact rational
mean rounded once per component. Scores must match to the last bit, not
to within a tolerance. The hypothesis properties check the same oracles on
one row at a time: another spelling of a cell scores bit-identically, and a
better cell never scores lower.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# The properties score one row at a time, as each score depends on its own row only.
def _one_row(cells):
    return DecisionTable(("c",), tuple(f"e{j}" for j in range(len(cells))), (tuple(cells),))


def _bits(score):
    return tuple(part.hex() for part in (score.truth, score.indeterminacy, score.falsity))


_SPELLED = {0: Triplet(0, 0, 1), 1: Triplet(1, 0, 0)}  # what a 0/1 cell counts as in the mean
_degrees = st.floats(min_value=0.0, max_value=1.0)
_neutro_cells = st.one_of(
    st.sampled_from([BinCell(0), BinCell(1)]),
    st.builds(Triplet, _degrees, _degrees, _degrees).map(NeutroCell),
)
_neutro_rows = st.lists(_neutro_cells, min_size=1, max_size=12)


def _triplet_of(cell):
    return _SPELLED[cell.value] if isinstance(cell, BinCell) else cell.triplet


@settings(max_examples=300)
@given(_neutro_rows, st.data())
def test_a_zero_or_one_scores_as_its_triplet_spelling(row, data):
    """``1`` and ``(1;0;0)``, and ``0`` and ``(0;0;1)``, give bit-identical neutrosophic scores."""
    respelled = [
        NeutroCell(_triplet_of(cell)) if isinstance(cell, BinCell) and data.draw(st.booleans()) else cell
        for cell in row
    ]
    score, again = (choice_values_neutrosophic(_one_row(cells))["c"] for cells in (row, respelled))
    assert _bits(score) == _bits(again) == _bits(Triplet(*_neutro_oracle(respelled)))


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=30), st.data())
def test_a_binary_zero_raised_to_one_never_lowers_the_score(values, data):
    raised = list(values)
    raised[data.draw(st.integers(min_value=0, max_value=len(values) - 1))] = 1
    before, after = (choice_values_binary(_one_row([*map(BinCell, row)]))["c"] for row in (values, raised))
    assert (before, after) == (sum(values), sum(raised)) and after >= before


@settings(max_examples=300)
@given(_neutro_rows, st.data())
def test_more_truth_or_less_falsity_in_a_cell_never_worsens_the_mean(row, data):
    """Truth up or falsity down, in one cell, never lowers the mean's truth or raises its falsity."""
    j = data.draw(st.integers(min_value=0, max_value=len(row) - 1))
    old = _triplet_of(row[j])
    new = Triplet(
        data.draw(st.floats(min_value=old.truth, max_value=1.0)), old.indeterminacy,
        data.draw(st.floats(min_value=0.0, max_value=old.falsity)),
    )
    raised = [*row[:j], NeutroCell(new), *row[j + 1:]]
    before, after = (choice_values_neutrosophic(_one_row(cells))["c"] for cells in (row, raised))
    assert _bits(before) == _bits(Triplet(*_neutro_oracle(row)))
    assert _bits(after) == _bits(Triplet(*_neutro_oracle(raised)))
    assert after.truth >= before.truth and after.falsity <= before.falsity


_endpoints = st.floats(min_value=-1e3, max_value=1e3)
_grey_cells = st.one_of(
    st.sampled_from([BinCell(0), BinCell(1), *map(GradeCell, "ABCDF")]),
    st.tuples(_endpoints, _endpoints).map(lambda ends: GreyCell(GreyNumber(min(ends), max(ends)))),
)


@settings(max_examples=300)
@given(st.lists(_grey_cells, min_size=1, max_size=12), st.data())
def test_raising_a_grey_cell_within_its_kind_never_lowers_the_score(row, data):
    """0 to 1, a better grade of the built-in scale, or both endpoints of an interval up.

    A raise that changes a cell's kind, such as ``[0.9;0.95]`` to ``1``, moves the
    float fold, so it is not claimed.
    """
    scale = default_scale()
    j = data.draw(st.integers(min_value=0, max_value=len(row) - 1))
    cell = row[j]
    if isinstance(cell, BinCell):
        new = BinCell(1)
    elif isinstance(cell, GradeCell):  # the built-in scale's grades run best first
        new = GradeCell(data.draw(st.sampled_from(scale.labels[:scale.labels.index(cell.label) + 1])))
    else:
        lower = data.draw(st.floats(min_value=cell.interval.lower, max_value=2e3))
        upper = data.draw(st.floats(min_value=max(lower, cell.interval.upper), max_value=4e3))
        new = GreyCell(GreyNumber(lower, upper))
    raised = [*row[:j], new, *row[j + 1:]]
    before, after = (choice_values_grey(_one_row(cells), scale)["c"] for cells in (row, raised))
    assert (before, after) == (_grey_oracle(row, scale), _grey_oracle(raised, scale))
    assert after >= before


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
