import pytest

from softchoice.engine import BinCell, DecisionTable, GradeCell, GreyCell, NeutroCell
from softchoice.grey import GreyNumber
from softchoice.neutrosophic import Triplet
from softchoice.softset import SoftSet

CANDIDATES = ("P1", "P2", "P3", "P4", "P5", "P6")
PARAMETERS = ("e1", "e2", "e3", "e4")

# Player-selection worked example: six candidates judged on speed, age,
# height and experience. Three variants of the same table: pure 0/1,
# 0/1 with letter grades on the fuzzy criteria, and full triplets.
_BINARY_ROWS = (
    (1, 0, 0, 0),
    (1, 1, 0, 0),
    (0, 1, 1, 0),
    (0, 0, 0, 1),
    (0, 1, 1, 0),
    (1, 1, 0, 0),
)

# The same 0/1 table as a soft set: each parameter's set of players.
PLAYERS_SOFT_SET = SoftSet(
    CANDIDATES,
    PARAMETERS,
    {
        "e1": {"P1", "P2", "P6"},
        "e2": {"P2", "P3", "P5", "P6"},
        "e3": {"P3", "P5"},
        "e4": {"P4"},
    },
)

_GRADED_ROWS = (
    (1, 0, 0, "C"),
    (1, 1, 0, "F"),
    ("C", 1, 1, "C"),
    ("D", 0, 0, 1),
    ("D", 1, 1, "C"),
    (1, 1, 0, "D"),
)

_TRIPLET_ROWS = (
    ((1, 0, 0), (0, 0, 1), (0, 0, 1), (0.6, 0.3, 0.1)),
    ((1, 0, 0), (1, 0, 0), (0, 0, 1), (0.2, 0.2, 0.6)),
    ((0.5, 0.4, 0.1), (1, 0, 0), (1, 0, 0), (0.6, 0.2, 0.2)),
    ((0.5, 0.2, 0.3), (0, 0, 1), (0, 0, 1), (1, 0, 0)),
    ((0.5, 0.1, 0.4), (1, 0, 0), (1, 0, 0), (0.6, 0.3, 0.1)),
    ((1, 0, 0), (1, 0, 0), (0, 0, 1), (0.4, 0.4, 0.2)),
)

BINARY_SCORES = {"P1": 1, "P2": 2, "P3": 2, "P4": 1, "P5": 2, "P6": 2}

GREY_SCORES = {
    "P1": 1.67,
    "P2": 2.245,
    "P3": 3.34,
    "P4": 1.545,
    "P5": 3.215,
    "P6": 2.545,
}

# P2's middle component is (0 + 0 + 0 + 0.2) / 4 = 0.05 by the mean
# definition; a common transcription of this example shows 0.005, which
# the definition contradicts.
TRIPLET_SCORES = {
    "P1": (0.4, 0.075, 0.525),
    "P2": (0.55, 0.05, 0.4),
    "P3": (0.775, 0.15, 0.075),
    "P4": (0.375, 0.05, 0.575),
    "P5": (0.775, 0.1, 0.125),
    "P6": (0.6, 0.1, 0.3),
}

BINARY_DOC = (
    ",e1,e2,e3,e4\n"
    "P1,1,0,0,0\n"
    "P2,1,1,0,0\n"
    "P3,0,1,1,0\n"
    "P4,0,0,0,1\n"
    "P5,0,1,1,0\n"
    "P6,1,1,0,0\n"
)

GRADED_DOC = (
    ",e1,e2,e3,e4\n"
    "P1,1,0,0,C\n"
    "P2,1,1,0,F\n"
    "P3,C,1,1,C\n"
    "P4,D,0,0,1\n"
    "P5,D,1,1,C\n"
    "P6,1,1,0,D\n"
)

TRIPLET_DOC = (
    ",e1,e2,e3,e4\n"
    "P1,(1;0;0),(0;0;1),(0;0;1),(0.6;0.3;0.1)\n"
    "P2,(1;0;0),(1;0;0),(0;0;1),(0.2;0.2;0.6)\n"
    "P3,(0.5;0.4;0.1),(1;0;0),(1;0;0),(0.6;0.2;0.2)\n"
    "P4,(0.5;0.2;0.3),(0;0;1),(0;0;1),(1;0;0)\n"
    "P5,(0.5;0.1;0.4),(1;0;0),(1;0;0),(0.6;0.3;0.1)\n"
    "P6,(1;0;0),(1;0;0),(0;0;1),(0.4;0.4;0.2)\n"
)

DEFAULT_SCALE_DOC = (
    "A=[0.85;1]\n"
    "B=[0.75;0.84]\n"
    "C=[0.6;0.74]\n"
    "D=[0.5;0.59]\n"
    "F=[0;0.49]\n"
)


def _cell(value):
    if isinstance(value, int):
        return BinCell(value)
    if isinstance(value, str):
        return GradeCell(value)
    return NeutroCell(Triplet(*value))


def _table(rows):
    return DecisionTable(
        CANDIDATES, PARAMETERS,
        tuple(tuple(_cell(value) for value in row) for row in rows),
    )


@pytest.fixture
def binary_table():
    return _table(_BINARY_ROWS)


@pytest.fixture
def graded_table():
    return _table(_GRADED_ROWS)


@pytest.fixture
def triplet_table():
    return _table(_TRIPLET_ROWS)


@pytest.fixture
def docs(tmp_path):
    """Paths of the three worked tables and the built-in scale, written under ``tmp_path``."""
    paths = {}
    for name, doc in (
        ("binary", BINARY_DOC), ("graded", GRADED_DOC),
        ("triplet", TRIPLET_DOC), ("scale", DEFAULT_SCALE_DOC),
    ):
        path = tmp_path / f"{name}.csv"
        path.write_text(doc, encoding="utf-8")
        paths[name] = str(path)
    return paths


def random_triplet(rng):
    return Triplet(rng.random(), rng.random(), rng.random())


def random_interval(rng):
    a, b = sorted((rng.random(), rng.random()))
    return GreyNumber(a, b)


def random_table(rng, method):
    """A random table of cells that ``method`` accepts."""
    rows = rng.randint(1, 12)
    cols = rng.randint(1, 8)

    def cell():
        if method == "binary":
            return BinCell(rng.randint(0, 1))
        if method == "grey":
            kind = rng.randrange(3)
            if kind == 0:
                return BinCell(rng.randint(0, 1))
            if kind == 1:
                return GradeCell(rng.choice("ABCDF"))
            return GreyCell(random_interval(rng))
        if rng.random() < 0.4:
            return BinCell(rng.randint(0, 1))
        return NeutroCell(random_triplet(rng))

    return DecisionTable(
        tuple(f"c{i}" for i in range(1, rows + 1)),
        tuple(f"e{j}" for j in range(1, cols + 1)),
        tuple(tuple(cell() for _ in range(cols)) for _ in range(rows)),
    )
