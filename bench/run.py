"""Seeded benchmark of the softchoice CLI, end to end or traced by layer.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 times ``softchoice decide`` as a child process, one at a time
(a closed loop with one client), and reports the end-to-end metrics. A
fixed reference task (reference.py) runs between every two timed children,
and each timing is rescaled by it, because the host's speed drifts.
--trace 1 runs the same operations in-process in a separate child with
span wrappers at each layer boundary, and reports the per-layer metrics.
Every report is checked against an independent oracle either way. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {NAME: {"value", "unit"}}}

See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads
from oracle import Oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".benchwork"

# The CLI's entry point (softchoice.cli:main) with src first on the path.
# Going through main, not ``-m softchoice.cli``, keeps runpy's warning out
# of stderr, which the oracle requires to be empty.
LAUNCH_CLI = "import sys; sys.path.insert(0, sys.argv.pop(1)); from softchoice.cli import main; main()"
LAUNCH_IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import softchoice"
SETUP_SPAWNS = 5  # up front; one more per pass follows
CHILD_LIMIT_S = 120.0
# The reference task's start-up and work times, in seconds, that rescaled
# timings are expressed against: about their medians on the 2-vCPU VM
# where the benchmark was built.
NOMINAL_STARTUP_S = 0.070
NOMINAL_WORK_S = 0.085


def _spawn(argv, out_path, err_path):
    """Run one child to completion: (exit code, wall seconds, peak RSS in KiB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_LIMIT_S, child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, seconds, usage.ru_maxrss


def _read(path):
    with open(path, encoding="utf-8", errors="replace", newline="") as handle:
        return handle.read()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _setup_once(workdir):
    """Wall time from a fresh interpreter spawn until ``import softchoice`` returns."""
    argv = [sys.executable, "-c", LAUNCH_IMPORT, str(SRC)]
    code, seconds, _ = _spawn(argv, workdir / "setup.out", workdir / "setup.err")
    if code != 0:
        raise RuntimeError(f"import softchoice failed: {_read(workdir / 'setup.err')[-500:]}")
    return seconds


def _reference_once(workdir):
    """Start-up and work seconds of one reference child; see reference.py."""
    argv = [sys.executable, str(BENCH / "reference.py"), str(workdir / "reference.json")]
    code, seconds, _ = _spawn(argv, workdir / "reference.out", workdir / "reference.err")
    if code != 0:
        raise RuntimeError(f"reference task failed: {_read(workdir / 'reference.err')[-500:]}")
    work = float(_read(workdir / "reference.out"))
    return {"startup": seconds - work, "work": work}


def run_end_to_end(ops, min_ops, seconds, workdir, reference_part):
    """Time each op as a child, rescaled by the reference task run around it.

    The host's speed drifts within seconds, so the reference task (see
    reference.py) runs between every two timed children. Each child's wall
    time is multiplied by the nominal time of the reference's matching part
    over the mean of the two runs around it: set-up and start-up-bound
    workloads by the start-up part, the rest by the work part. The medians
    as measured go to stderr.
    """
    nominal = {"startup": NOMINAL_STARTUP_S, "work": NOMINAL_WORK_S}
    before = _reference_once(workdir)

    def bracketed(child, part):
        nonlocal before
        result = child()
        after = _reference_once(workdir)
        scale = 2.0 * nominal[part] / (before[part] + after[part])
        before = after
        return result, scale

    def setup_sample():
        raw, scale = bracketed(lambda: _setup_once(workdir), "startup")
        raw_setup.append(raw)
        return raw * scale

    _setup_once(workdir)  # also writes the bytecode caches; not counted
    raw_setup, raw_times = [], []
    setup = [setup_sample() for _ in range(SETUP_SPAWNS)]
    oracle = Oracle(workdir)
    for op in ops:
        oracle.expect(op)
    out, err = workdir / "op.out", workdir / "op.err"
    times = [[] for _ in ops]  # rescaled seconds, per command line
    rss, sizes = [], {}
    failed = 0
    start = time.perf_counter()
    index = 0
    # Whole passes over the command lines, so every workload's mix is even.
    while index < min_ops or index % len(ops) or time.perf_counter() - start < seconds:
        if index % len(ops) == 0:
            # One more set-up sample per pass: the median then spans the
            # whole run, not only its first second.
            setup.append(setup_sample())
        op = ops[index % len(ops)]
        argv = [sys.executable, "-c", LAUNCH_CLI, str(SRC)] + workloads.command_args(op, workdir)
        oracle.prepare(op)
        (code, wall, peak_kib), scale = bracketed(lambda: _spawn(argv, out, err), reference_part)
        failure = oracle.check(op, code, _read(out), _read(err))
        if failure is not None:
            failed += 1
            print(f"op {index} failed: {failure}", file=sys.stderr)
        report = workdir / op["output"] if op["output"] else out
        sizes.setdefault(index % len(ops), report.stat().st_size if report.exists() else 0)
        raw_times.append(wall)
        times[index % len(ops)].append(wall * scale)
        rss.append(peak_kib / 1024.0)
        index += 1
    print(f"as measured: setup_s {statistics.median(raw_setup):.4f}, "
          f"op_p50_ms {statistics.median(raw_times) * 1000:.1f}", file=sys.stderr)
    # Quantiles per command line, then averaged over them: pooled, the
    # median of a workload whose command lines differ in cost would fall in
    # the gap between them and jump with the noise.
    p50 = [statistics.median(samples) for samples in times]
    p75 = [statistics.quantiles(samples, n=4)[2] for samples in times]
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "op_p50_ms": _metric(statistics.fmean(p50) * 1000.0, "ms"),
        "op_p75_ms": _metric(statistics.fmean(p75) * 1000.0, "ms"),
        "cells_per_s": _metric(sum(op["cells"] for op in ops) / sum(p50), "1/s"),
        "peak_rss_mb": _metric(statistics.median(rss), "MiB"),
        "output_bytes": _metric(statistics.fmean(sizes.values()), "bytes"),
        "success_ratio": _metric((index - failed) / index, "ratio"),
    }
    return metrics, index, failed


def _self_times(spans):
    """Per span: its duration minus the union of its direct children's intervals."""
    children = {}
    for index, (_, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    self_times = []
    for index, (_, start, end, _, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child in sorted(children.get(index, ()), key=lambda k: spans[k][1]):
            low, high = max(spans[child][1], reach), min(spans[child][2], end)
            if high > low:
                covered += high - low
                reach = high
        self_times.append(end - start - covered)
    return self_times


def run_traced(ops, min_ops, seconds, workdir):
    plan = {"src": str(SRC), "workdir": str(workdir), "ops": ops,
            "min_ops": min_ops, "seconds": seconds}
    plan_path, result_path = workdir / "plan.json", workdir / "trace.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    out, err = workdir / "traced.out", workdir / "traced.err"
    argv = [sys.executable, str(BENCH / "traced.py"), str(plan_path), str(result_path)]
    code, _, _ = _spawn(argv, out, err)
    if code != 0:
        raise RuntimeError(f"traced child exited {code}: {_read(err)[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    spans, rounds = result["spans"], result["rounds"]

    totals, calls, sizes = {}, {}, {}
    for span, self_time in zip(spans, _self_times(spans)):
        name = span[0]
        totals[name] = totals.get(name, 0.0) + self_time
        calls[name] = calls.get(name, 0) + 1
        sizes[name] = sizes.get(name, 0) + span[5]
    n = len(rounds)
    cells = {kind: sum(r["cells"][kind] for r in rounds) for kind in rounds[0]["cells"]}
    all_cells = sum(cells.values())
    mean_entries = sizes.get("neutrosophic.mean", 0)

    def per_op(name):
        return totals.get(name, 0.0) / n

    metrics = {
        "cli.import_ms": _metric(result["import_ms"], "ms"),
        "cli.self_s": _metric(per_op("cli.run_cli"), "s"),
        "tableio.parse_table_s": _metric(per_op("tableio.parse_table"), "s"),
        "tableio.parse_us_per_cell": _metric(
            totals.get("tableio.parse_table", 0.0) / all_cells * 1e6 if all_cells else 0.0, "us"),
        "engine.table_validate_s": _metric(per_op("engine.table_validate"), "s"),
        "engine.score_s": _metric(per_op("engine.score"), "s"),
        "neutrosophic.mean_s": _metric(per_op("neutrosophic.mean"), "s"),
        "neutrosophic.mean_calls": _metric(calls.get("neutrosophic.mean", 0) / n, "count"),
        "neutrosophic.mean_ns_per_entry": _metric(
            totals.get("neutrosophic.mean", 0.0) / mean_entries * 1e9 if mean_entries else 0.0,
            "ns"),
        "engine.rank_s": _metric(per_op("engine.rank"), "s"),
        "engine.rank_calls": _metric(calls.get("engine.rank", 0) / n, "count"),
        "engine.decide_self_s": _metric(per_op("engine.decide"), "s"),
        "engine.risk_note_bytes": _metric(
            statistics.fmean(r["risk_note_bytes"] for r in rounds), "bytes"),
        "tableio.render_s": _metric(per_op("tableio.render"), "s"),
    }
    for kind, count in cells.items():
        metrics[f"tableio.cells.{kind}"] = _metric(count / n, "count")
    metrics["trace.overhead_ratio"] = _metric(
        sum(r["traced_s"] for r in rounds) / sum(r["untraced_s"] for r in rounds), "ratio")
    failed = 0
    for r in rounds:
        for failure in r["failures"]:
            print(f"op {r['op']} failed: {failure}", file=sys.stderr)
        failed += len(r["failures"])
    return metrics, 2 * n, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES),
                        help="table sizes; 'tiny' is for the harness smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "softchoice" / "cli.py").is_file():
        print(f"error: no softchoice sources under {SRC}", file=sys.stderr)
        return 2
    files, ops, min_ops = workloads.build(args.workload, args.seed, args.size)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        for name, text in files.items():
            (workdir / name).write_text(text, encoding="utf-8", newline="")
        if args.trace:
            metrics, attempted, failed = run_traced(ops, min_ops, args.seconds, workdir)
        else:
            metrics, attempted, failed = run_end_to_end(
                ops, min_ops, args.seconds, workdir, workloads.REFERENCE_PART[args.workload])
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still has its directory there
            pass
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
