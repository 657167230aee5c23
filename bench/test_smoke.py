"""Smoke test of the benchmark harness at tiny table sizes.

Run from the repository root: python3 -m pytest -q bench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in wanted}
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_same_seed_same_inputs():
    assert workloads.build("wide-neutrosophic", 3, "tiny") == workloads.build(
        "wide-neutrosophic", 3, "tiny")
    assert workloads.build("wide-neutrosophic", 3, "tiny") != workloads.build(
        "wide-neutrosophic", 4, "tiny")


def _report(tmp_path, op):
    """A report from the program itself, for the oracle to judge."""
    sys.path.insert(0, str(ROOT / "src"))
    from softchoice.cli import run_cli

    out = tmp_path / "report.out"
    args = workloads.command_args({**op, "output": "report.out"}, str(tmp_path))
    assert run_cli(args) == 0
    return out.read_text(encoding="utf-8")


def _one_ulp_up(token):
    """The score token with its first number moved up by one unit in the last place."""
    if token.startswith("("):
        first, rest = token[1:].split(";", 1)
        return "(" + repr(math.nextafter(float(first), math.inf)) + ";" + rest
    return repr(math.nextafter(float(token), math.inf))


@pytest.mark.parametrize("paper", ["grey", "triplet"])
def test_oracle_rejects_a_score_off_by_one_ulp(tmp_path, paper):
    files, ops, _ = workloads.build("worked-cli", 1, "tiny")
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    op = next(op for op in ops if op["paper"] == paper and op["format"] == "text"
              and op["output"] is None)
    oracle = Oracle(str(tmp_path))
    report = _report(tmp_path, op)
    assert oracle.check(op, 0, report, "") is None
    line = next(line for line in report.splitlines() if line.startswith("  P3 "))
    token = line.split()[1]
    tampered = report.replace(line, f"  P3 {_one_ulp_up(token)}")
    assert oracle.check(op, 0, tampered, "") is not None
    assert oracle.check(op, 0, report, "warning\n") is not None
    assert oracle.check(op, 1, report, "") is not None


def test_oracle_rejects_a_stale_output_file(tmp_path):
    files, ops, _ = workloads.build("worked-cli", 1, "tiny")
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    op = next(op for op in ops if op["output"] is not None)
    oracle = Oracle(str(tmp_path))
    # An earlier run's correct report passes; once prepare() clears it, a
    # run that writes no file must fail rather than pass on the old one.
    (tmp_path / op["output"]).write_text(_report(tmp_path, op), encoding="utf-8")
    assert oracle.check(op, 0, "", "") is None
    oracle.prepare(op)
    assert oracle.check(op, 0, "", "") is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "worked-cli", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
