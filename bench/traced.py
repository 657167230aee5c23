"""Traced child: runs a workload's operations in-process with span wrappers.

Usage: python3 traced.py PLAN_JSON RESULT_JSON

The plan names the source directory, the work directory, the operations,
the minimum operation count and how long to run. Each round runs one
operation twice, once with the span wrappers installed and once without,
alternating which goes first, and the oracle checks both reports. Spans
are kept in memory and written, with each round's timings and counts, to
RESULT_JSON at the end.

Spans wrap the public functions where their callers look them up, so the
program's own files are not touched. An attribute that the program no
longer has is skipped, and its layer then reads zero.
"""

from __future__ import annotations

import io
import json
import sys
import time
import traceback

# (span name, module, attribute) at each layer boundary.
BOUNDARIES = (
    ("tableio.parse_table", "softchoice.tableio", "parse_table"),
    ("engine.table_validate", "softchoice.tableio", "DecisionTable"),
    ("engine.decide", "softchoice.cli", "decide"),
    ("engine.score", "softchoice.engine", "choice_values_binary"),
    ("engine.score", "softchoice.engine", "choice_values_grey"),
    ("engine.score", "softchoice.engine", "choice_values_neutrosophic"),
    ("neutrosophic.mean", "softchoice.engine", "mean"),
    ("engine.rank", "softchoice.engine", "rank_optimistic"),
    ("engine.rank", "softchoice.engine", "rank_conservative"),
    ("engine.rank", "softchoice.engine", "rank_combined"),
    ("tableio.render", "softchoice.tableio", "render_report_text"),
    ("tableio.render", "softchoice.tableio", "render_report_json"),
)


class Tracer:
    """Records spans as (name, start, end, parent index, op, size) tuples.

    ``size`` is the length of the call's first argument when it has one
    (for ``neutrosophic.mean``, the number of entries averaged), else 0.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.last = {}  # span name -> result of its latest call
        self._originals = []

    def wrap(self, name, function):
        spans, stack, last = self.spans, self.stack, self.last

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                size = len(args[0]) if args and hasattr(args[0], "__len__") else 0
                spans[index] = (name, start, end, parent, self.op, size)
            last[name] = result
            return result

        return traced

    def install(self):
        for name, module_name, attribute in BOUNDARIES:
            module = sys.modules[module_name]
            original = getattr(module, attribute, None)
            if original is None:
                continue
            self._originals.append((module, attribute, original))
            setattr(module, attribute, self.wrap(name, original))

    def uninstall(self):
        for module, attribute, original in reversed(self._originals):
            setattr(module, attribute, original)
        self._originals.clear()


def _run(run_cli, args):
    """One in-process CLI run: (exit code, stdout, stderr)."""
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err = io.StringIO(), io.StringIO()
    try:
        code = run_cli(args)
    except Exception:  # a traceback is a failed operation, not a dead benchmark
        code = 1
        err.write(traceback.format_exc())
    finally:
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def _cell_counts(table, engine):
    kinds = (("binary", engine.BinCell), ("grade", engine.GradeCell),
             ("interval", engine.GreyCell), ("triplet", engine.NeutroCell))
    counts = {kind: 0 for kind, _ in kinds}
    for row in getattr(table, "cells", ()):
        for cell in row:
            for kind, cls in kinds:
                if isinstance(cell, cls):
                    counts[kind] += 1
                    break
    return counts


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    start = time.perf_counter()
    import softchoice.cli  # timed first, before anything else imports its dependencies
    import_ms = (time.perf_counter() - start) * 1000.0
    import softchoice.engine as engine
    from oracle import Oracle
    from workloads import command_args

    workdir, ops = plan["workdir"], plan["ops"]
    oracle = Oracle(workdir)
    for op in ops:
        oracle.expect(op)
    tracer = Tracer()
    run_cli = softchoice.cli.run_cli
    traced_run_cli = tracer.wrap("cli.run_cli", run_cli)
    rounds = []
    deadline = time.perf_counter() + plan["seconds"]
    index = 0
    # Whole passes over the command lines, as in the end-to-end run.
    while index < plan["min_ops"] or index % len(ops) or time.perf_counter() < deadline:
        op = ops[index % len(ops)]
        args = command_args(op, workdir)
        entry = {"op": index, "failures": []}
        for traced in ((True, False) if index % 2 else (False, True)):
            oracle.prepare(op)
            if traced:
                tracer.op = index
                tracer.install()
            t0 = time.perf_counter()
            try:
                code, out, err = _run(traced_run_cli if traced else run_cli, args)
            finally:
                seconds = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            entry["traced_s" if traced else "untraced_s"] = seconds
            failure = oracle.check(op, code, out, err)
            if failure is not None:
                entry["failures"].append(failure)
        entry["cells"] = _cell_counts(tracer.last.pop("tableio.parse_table", None), engine)
        report = tracer.last.pop("engine.decide", None)
        notes = getattr(report, "risk_notes", {}) or {}
        entry["risk_note_bytes"] = sum(len(note.encode("utf-8")) for note in notes.values())
        tracer.last.clear()
        rounds.append(entry)
        index += 1

    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"import_ms": import_ms, "spans": tracer.spans, "rounds": rounds}, handle)


if __name__ == "__main__":
    main(*sys.argv[1:])
