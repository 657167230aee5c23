"""Byte-for-byte reports on the paper's worked examples.

Report bytes are pinned here, as error bytes (usage errors, exit 1, included) are
in ``test_cli._ERROR_GOLDENS``. Each line below must print the file of its name
under ``tests/golden/``, in-process and through the console script in a child; a
new output case goes in as one more line and file. The files were captured from
softchoice 0.1.0: a mismatch means a default report changed, which every
refactoring must avoid.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import softchoice
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


def _argv(tmp_path, table, extra):
    """The arguments of one command line, with its documents written under ``tmp_path``."""
    for name, doc in DOCS.items():
        (tmp_path / name).write_text(doc, encoding="utf-8")
    args = ["decide", "--input", str(tmp_path / table)]
    previous = None
    for arg in extra:
        args.append(str(tmp_path / arg) if previous in ("--scale", "--output") else arg)
        previous = arg
    return args


def _report(tmp_path, extra, out):
    """The report of one command line, from standard output or from --output."""
    if "--output" in extra:
        assert out == b""
        return (tmp_path / "report").read_bytes()
    return out


@pytest.mark.parametrize("name,table,extra", COMMAND_LINES, ids=[line[0] for line in COMMAND_LINES])
def test_worked_example_report_is_byte_identical(tmp_path, capsys, name, table, extra):
    assert run_cli(_argv(tmp_path, table, extra)) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert _report(tmp_path, extra, out) == (GOLDEN / name).read_bytes()


# The console script's entry point in a child. At exit, after main has raised
# SystemExit, the probe records whether the collector is enabled, whether the
# import-time heap is frozen and whether main loaded argparse, which a plain
# command line such as each of these does not need, into the file named by the
# first argument.
_ENTRY_POINT = """\
import atexit, gc, sys
path = sys.argv.pop(1)
bare = set(sys.modules)

def probe():
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"enabled={gc.isenabled()} frozen={gc.get_freeze_count() > 0} "
                     f"argparse={'argparse' in set(sys.modules) - bare}")

atexit.register(probe)
from softchoice.cli import main
main()
"""


@pytest.mark.parametrize("name,table,extra", COMMAND_LINES, ids=[line[0] for line in COMMAND_LINES])
def test_worked_example_report_through_the_entry_point(tmp_path, name, table, extra):
    probe = tmp_path / "probe"
    env = dict(os.environ, PYTHONPATH=str(Path(softchoice.__file__).parent.parent))
    child = subprocess.run(
        [sys.executable, "-c", _ENTRY_POINT, str(probe), *_argv(tmp_path, table, extra)],
        capture_output=True, env=env, timeout=60,
    )
    assert (child.returncode, child.stderr) == (0, b"")
    assert _report(tmp_path, extra, child.stdout) == (GOLDEN / name).read_bytes()
    assert probe.read_text(encoding="utf-8") == "enabled=False frozen=True argparse=False"
