"""Seeded inputs for the benchmark's four workloads.

A workload is a set of input files plus a list of operations. Each
operation is one ``softchoice decide`` command line, described as a plain
dict so that the traced child can read it back from JSON:

    {"table": FILE, "method": ..., "criterion": ..., "scale": FILE|None,
     "format": "text"|"json", "output": FILE|None, "cells": N,
     "paper": None|"binary"|"grey"|"triplet"}

File names are relative to the run's work directory. The same seed always
gives the same files and the same operation order.
"""

from __future__ import annotations

import random

WORKLOADS = ("worked-cli", "tall-grey", "wide-neutrosophic", "tied-neutrosophic")

# Rows x columns of the bulk tables. "tiny" keeps the smoke test fast.
SIZES = {
    "full": {"tall-grey": (2_500, 20), "wide-neutrosophic": (300, 50),
             "tied-neutrosophic": (300, 3)},
    "tiny": {"tall-grey": (30, 5), "wide-neutrosophic": (12, 6),
             "tied-neutrosophic": (8, 3)},
}

# Which part of the reference task (see reference.py) each workload's
# timings are rescaled by: the one that does the same kind of work.
REFERENCE_PART = {"worked-cli": "startup", "tall-grey": "work",
                  "wide-neutrosophic": "work", "tied-neutrosophic": "work"}

# worked-cli runs every command line this many times at least, so that its
# p75 has at least ten samples beyond it.
MIN_PASSES = {"full": 4, "tiny": 2}

# The paper's player-selection example: six candidates, four criteria, in
# three variants (pure 0/1, 0/1 with letter grades, full triplets).
PAPER_CANDIDATES = ("P1", "P2", "P3", "P4", "P5", "P6")
PAPER_PARAMETERS = ("e1", "e2", "e3", "e4")
PAPER_ROWS = {
    "binary": (
        ("1", "0", "0", "0"),
        ("1", "1", "0", "0"),
        ("0", "1", "1", "0"),
        ("0", "0", "0", "1"),
        ("0", "1", "1", "0"),
        ("1", "1", "0", "0"),
    ),
    "grey": (
        ("1", "0", "0", "C"),
        ("1", "1", "0", "F"),
        ("C", "1", "1", "C"),
        ("D", "0", "0", "1"),
        ("D", "1", "1", "C"),
        ("1", "1", "0", "D"),
    ),
    "triplet": (
        ("(1;0;0)", "(0;0;1)", "(0;0;1)", "(0.6;0.3;0.1)"),
        ("(1;0;0)", "(1;0;0)", "(0;0;1)", "(0.2;0.2;0.6)"),
        ("(0.5;0.4;0.1)", "(1;0;0)", "(1;0;0)", "(0.6;0.2;0.2)"),
        ("(0.5;0.2;0.3)", "(0;0;1)", "(0;0;1)", "(1;0;0)"),
        ("(0.5;0.1;0.4)", "(1;0;0)", "(1;0;0)", "(0.6;0.3;0.1)"),
        ("(1;0;0)", "(1;0;0)", "(0;0;1)", "(0.4;0.4;0.2)"),
    ),
}
# Scores as printed in the paper's worked examples. P2's middle triplet
# component is 0.05 by the mean's definition (a common transcription shows
# 0.005, which the definition contradicts).
PAPER_SCORES = {
    "binary": {"P1": 1, "P2": 2, "P3": 2, "P4": 1, "P5": 2, "P6": 2},
    "grey": {"P1": 1.67, "P2": 2.245, "P3": 3.34, "P4": 1.545, "P5": 3.215, "P6": 2.545},
    "triplet": {
        "P1": (0.4, 0.075, 0.525),
        "P2": (0.55, 0.05, 0.4),
        "P3": (0.775, 0.15, 0.075),
        "P4": (0.375, 0.05, 0.575),
        "P5": (0.775, 0.1, 0.125),
        "P6": (0.6, 0.1, 0.3),
    },
}
# The built-in scale, written out so one command line passes --scale.
SCALE_DOC = "A=[0.85;1]\nB=[0.75;0.84]\nC=[0.6;0.74]\nD=[0.5;0.59]\nF=[0;0.49]\n"


def _op(table, method, cells, *, criterion=None, scale=None, fmt="text", output=None,
        paper=None):
    return {"table": table, "method": method, "criterion": criterion, "scale": scale,
            "format": fmt, "output": output, "cells": cells, "paper": paper}


def command_args(op: dict, workdir: str) -> list:
    """The ``decide`` argument list for one operation, with files under workdir."""
    args = ["decide", "--input", f"{workdir}/{op['table']}", "--method", op["method"]]
    if op["criterion"] is not None:
        args += ["--criterion", op["criterion"]]
    if op["scale"] is not None:
        args += ["--scale", f"{workdir}/{op['scale']}"]
    if op["format"] != "text":
        args += ["--format", op["format"]]
    if op["output"] is not None:
        args += ["--output", f"{workdir}/{op['output']}"]
    return args


def _document(parameters, candidates, rows) -> str:
    lines = ["," + ",".join(parameters)]
    lines += [candidate + "," + ",".join(row) for candidate, row in zip(candidates, rows)]
    return "\n".join(lines) + "\n"


def _decimal(rng, low=0, high=1000) -> str:
    """A three-decimal number in [low/1000, high/1000], as the table dialect writes it."""
    return "%d.%03d" % divmod(rng.randint(low, high), 1000)


def _candidate_ids(rng, count):
    """Unique identifiers in seeded order, so winners are not always the first rows."""
    numbers = rng.sample(range(10 * count), count)
    return [f"c{number:07d}" for number in numbers]


def _worked_cli(rng):
    # Shuffle rows and columns of the paper's tables: scores per candidate
    # stay the paper's, while winner order and column order vary by seed.
    order = list(range(len(PAPER_CANDIDATES)))
    columns = list(range(len(PAPER_PARAMETERS)))
    rng.shuffle(order)
    rng.shuffle(columns)
    files = {"scale.txt": SCALE_DOC}
    for kind, rows in PAPER_ROWS.items():
        files[f"{kind}.csv"] = _document(
            [PAPER_PARAMETERS[c] for c in columns],
            [PAPER_CANDIDATES[r] for r in order],
            [[rows[r][c] for c in columns] for r in order],
        )
    cells = len(PAPER_CANDIDATES) * len(PAPER_PARAMETERS)
    ops = [
        _op("binary.csv", "binary", cells, paper="binary"),
        _op("binary.csv", "binary", cells, fmt="json", paper="binary"),
        _op("grey.csv", "grey", cells, paper="grey"),
        _op("grey.csv", "grey", cells, fmt="json", paper="grey"),
        _op("grey.csv", "grey", cells, scale="scale.txt", paper="grey"),
        _op("binary.csv", "grey", cells, output="report.txt", paper="binary"),
        _op("triplet.csv", "neutrosophic", cells, paper="triplet"),
        _op("triplet.csv", "neutrosophic", cells, criterion="optimistic", paper="triplet"),
        _op("triplet.csv", "neutrosophic", cells, criterion="conservative", paper="triplet"),
        _op("triplet.csv", "neutrosophic", cells, criterion="combined", fmt="json",
            paper="triplet"),
        _op("triplet.csv", "neutrosophic", cells, criterion="optimistic", fmt="json",
            paper="triplet"),
        _op("binary.csv", "neutrosophic", cells, criterion="conservative"),
    ]
    rng.shuffle(ops)
    return files, ops


def _tall_grey(rng, rows, cols):
    # Mixed 0/1, grade labels and intervals: every cell kind the grey method
    # accepts, so parsing exercises each token path.
    def cell():
        draw = rng.random()
        if draw < 0.4:
            return "1" if draw < 0.2 else "0"
        if draw < 0.7:
            return rng.choice("ABCDF")
        low = rng.randint(0, 900)
        return "[%s;%s]" % (_decimal(rng, low, low), _decimal(rng, low, low + 100))

    candidates = _candidate_ids(rng, rows)
    parameters = [f"e{j}" for j in range(1, cols + 1)]
    body = [[cell() for _ in range(cols)] for _ in range(rows)]
    files = {"tall.csv": _document(parameters, candidates, body)}
    return files, [_op("tall.csv", "grey", rows * cols)]


def _triplet(rng) -> str:
    return "(%s;%s;%s)" % (_decimal(rng), _decimal(rng), _decimal(rng))


def _wide_neutrosophic(rng, rows, cols):
    def cell():
        draw = rng.random()
        if draw < 0.3:
            return "1" if draw < 0.15 else "0"
        return _triplet(rng)

    candidates = _candidate_ids(rng, rows)
    parameters = [f"e{j}" for j in range(1, cols + 1)]
    body = [[cell() for _ in range(cols)] for _ in range(rows)]
    files = {"wide.csv": _document(parameters, candidates, body)}
    ops = [
        _op("wide.csv", "neutrosophic", rows * cols, criterion=criterion)
        for criterion in ("optimistic", "conservative", "combined")
    ]
    return files, ops


def _tied_neutrosophic(rng, rows, cols):
    # Every cell is the same triplet, so every candidate ties under every
    # criterion and each one gets a risk note naming all the others. Each
    # component has three decimals, the last non-zero, so the mean prints
    # in the same five characters whatever the seed and the report size
    # does not depend on it.
    components = ["0.%03d" % rng.choice([k for k in range(1, 1000) if k % 10])
                  for _ in range(3)]
    row = ["(%s)" % ";".join(components)] * cols
    candidates = _candidate_ids(rng, rows)
    parameters = [f"e{j}" for j in range(1, cols + 1)]
    files = {"tied.csv": _document(parameters, candidates, [row] * rows)}
    ops = [
        _op("tied.csv", "neutrosophic", rows * cols),
        _op("tied.csv", "neutrosophic", rows * cols, fmt="json"),
    ]
    return files, ops


def build(name: str, seed: int, size: str = "full"):
    """Return (files, ops, min_ops) for one workload and seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "worked-cli":
        files, ops = _worked_cli(rng)
        return files, ops, MIN_PASSES[size] * len(ops)
    rows, cols = SIZES[size][name]
    builder = {
        "tall-grey": _tall_grey,
        "wide-neutrosophic": _wide_neutrosophic,
        "tied-neutrosophic": _tied_neutrosophic,
    }[name]
    files, ops = builder(rng, rows, cols)
    return files, ops, 2 * len(ops)  # two passes at least, so quartiles exist
