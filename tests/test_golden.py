"""Byte-for-byte reports on the paper's worked examples.

Each command line below covers one method, criterion or output route; its
report must equal the file of the same name under ``tests/golden/``. The
files were captured from softchoice 0.1.0. A mismatch means a default
report changed, which every refactoring must avoid.
"""

from pathlib import Path

import pytest

from softchoice.cli import run_cli

from conftest import BINARY_DOC, DEFAULT_SCALE_DOC, GRADED_DOC, TRIPLET_DOC

GOLDEN = Path(__file__).resolve().parent / "golden"

# (golden file name, table document, extra arguments); every line runs decide.
COMMAND_LINES = [
    ("binary.txt", "binary", ["--method", "binary"]),
    ("binary.json", "binary", ["--method", "binary", "--format", "json"]),
    ("grey.txt", "graded", ["--method", "grey"]),
    ("grey.json", "graded", ["--method", "grey", "--format", "json"]),
    ("grey-scale.txt", "graded", ["--method", "grey", "--scale", "scale"]),
    ("binary-grey-output.txt", "binary", ["--method", "grey", "--output", "report"]),
    ("neutrosophic.txt", "triplet", ["--method", "neutrosophic"]),
    ("optimistic.txt", "triplet", ["--method", "neutrosophic", "--criterion", "optimistic"]),
    ("conservative.txt", "triplet",
     ["--method", "neutrosophic", "--criterion", "conservative"]),
    ("combined.json", "triplet",
     ["--method", "neutrosophic", "--criterion", "combined", "--format", "json"]),
    ("optimistic.json", "triplet",
     ["--method", "neutrosophic", "--criterion", "optimistic", "--format", "json"]),
    ("binary-conservative.txt", "binary",
     ["--method", "neutrosophic", "--criterion", "conservative"]),
]

DOCS = {"binary": BINARY_DOC, "graded": GRADED_DOC, "triplet": TRIPLET_DOC,
        "scale": DEFAULT_SCALE_DOC}


def _report(tmp_path, capsys, table, extra):
    """The report of one command line, from standard output or from --output."""
    for name, doc in DOCS.items():
        (tmp_path / name).write_text(doc, encoding="utf-8")
    args = ["decide", "--input", str(tmp_path / table)]
    previous = None
    for arg in extra:
        args.append(str(tmp_path / arg) if previous in ("--scale", "--output") else arg)
        previous = arg
    assert run_cli(args) == 0
    out = capsys.readouterr().out
    if "--output" in extra:
        assert out == ""
        return (tmp_path / "report").read_bytes()
    return out.encode("utf-8")


@pytest.mark.parametrize("name,table,extra", COMMAND_LINES, ids=[line[0] for line in COMMAND_LINES])
def test_worked_example_report_is_byte_identical(tmp_path, capsys, name, table, extra):
    assert _report(tmp_path, capsys, table, extra) == (GOLDEN / name).read_bytes()
