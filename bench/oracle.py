"""Independent score oracle for the benchmark's reports.

The oracle reads the same table documents the program reads and computes
what each report must say, without importing softchoice:

- binary: exact integer row sums;
- grey: 1-cells counted, intervals summed left to right in floats, plus
  the midpoint of the sum;
- neutrosophic: the exact Fraction mean of each row's triplets (0 read as
  (0, 0, 1), 1 as (1, 0, 0)), rounded to float once;
- winners under each method and criterion, within the CLI's default
  epsilon;
- one risk note per neutrosophic winner, naming its indeterminacy.

On the paper's worked examples it also checks the paper's printed scores.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from workloads import PAPER_SCORES

EPSILON = 1e-9  # the CLI's default tie tolerance
PAPER_TOLERANCE = 1e-9


def _read_table(text):
    lines = [line for line in text.split("\n") if line.strip()]
    rows = [line.split(",") for line in lines[1:]]
    return [row[0] for row in rows], [row[1:] for row in rows]


def _read_scale(text):
    scale = {}
    for entry in text.split():
        label, interval = entry.split("=")
        low, high = interval[1:-1].split(";")
        scale[label] = (float(low), float(high))
    return scale


DEFAULT_SCALE = _read_scale("A=[0.85;1] B=[0.75;0.84] C=[0.6;0.74] D=[0.5;0.59] F=[0;0.49]")


def _binary_scores(rows):
    return [sum(int(token) for token in row) for row in rows]


def _grey_scores(rows, scale):
    scores = []
    for row in rows:
        ones = 0
        low = high = None
        for token in row:
            if token in ("0", "1"):
                ones += int(token)
                continue
            if token.startswith("["):
                a, b = token[1:-1].split(";")
                interval = (float(a), float(b))
            else:
                interval = scale[token]
            if low is None:
                low, high = interval
            else:
                low, high = low + interval[0], high + interval[1]
        scores.append(float(ones) if low is None else ones + (low + high) / 2.0)
    return scores


_EMBED = {"1": (1.0, 0.0, 0.0), "0": (0.0, 0.0, 1.0)}


def _triplet_token(token):
    if token in _EMBED:
        return _EMBED[token]
    return tuple(float(part) for part in token[1:-1].split(";"))


def _neutrosophic_scores(rows):
    scores = []
    for row in rows:
        sums = [Fraction(0)] * 3
        for token in row:
            for k, value in enumerate(_triplet_token(token)):
                sums[k] += Fraction(value)
        scores.append(tuple(float(total / len(row)) for total in sums))
    return scores


def _top(candidates, values, better):
    """Candidates within epsilon of the best value, in table order."""
    if better == "max":
        best = max(values)
        return [c for c, v in zip(candidates, values) if v >= best - EPSILON]
    best = min(values)
    return [c for c, v in zip(candidates, values) if v <= best + EPSILON]


def _neutrosophic_winners(candidates, scores, criterion):
    optimistic = _top(candidates, [s[0] for s in scores], "max")
    conservative = _top(candidates, [s[2] for s in scores], "min")
    if criterion == "optimistic":
        return optimistic
    if criterion == "conservative":
        return conservative
    both = [c for c in optimistic if c in set(conservative)]
    if both:
        return both
    # Combined fallback: greatest truth minus falsity, then least
    # indeterminacy, then table order.
    leaders = _top(candidates, [s[0] - s[2] for s in scores], "max")
    by_name = dict(zip(candidates, scores))
    least = min(by_name[c][1] for c in leaders)
    return [c for c in leaders if by_name[c][1] <= least + EPSILON][:1]


class Oracle:
    """Expected reports for one workload, computed once per distinct input."""

    def __init__(self, workdir):
        self.workdir = workdir
        self._cache = {}
        self._verified = {}  # command line -> a report that passed the full check

    def _text(self, name):
        with open(f"{self.workdir}/{name}", encoding="utf-8") as handle:
            return handle.read()

    def expect(self, op):
        key = (op["table"], op["method"], op["criterion"], op["scale"])
        if key not in self._cache:
            self._cache[key] = self._expect(op)
        return self._cache[key]

    def _expect(self, op):
        candidates, rows = _read_table(self._text(op["table"]))
        method = op["method"]
        expected = {"method": method, "criterion": None, "candidates": candidates,
                    "risk": None}
        if method == "binary":
            scores = _binary_scores(rows)
            winners = _top(candidates, scores, "max")
        elif method == "grey":
            scale = DEFAULT_SCALE if op["scale"] is None else _read_scale(self._text(op["scale"]))
            scores = _grey_scores(rows, scale)
            winners = _top(candidates, scores, "max")
        else:
            criterion = op["criterion"] or "combined"
            scores = _neutrosophic_scores(rows)
            winners = _neutrosophic_winners(candidates, scores, criterion)
            by_name = dict(zip(candidates, scores))
            expected["criterion"] = criterion
            expected["risk"] = {c: "indeterminacy " + format(by_name[c][1], ".12g")
                                for c in winners}
        expected["scores"] = scores
        expected["winners"] = winners
        return expected

    def prepare(self, op):
        """Remove the report file of an earlier run, so a run that writes none fails."""
        if op["output"] is not None:
            try:
                os.remove(f"{self.workdir}/{op['output']}")
            except FileNotFoundError:
                pass

    def check(self, op, code, stdout, stderr):
        """Return None when the run is right, else a one-line reason."""
        if code != 0:
            return f"exit code {code}"
        if stderr:
            return f"unexpected stderr: {stderr[:200]!r}"
        if op["output"] is not None:
            if stdout:
                return "report went to stdout despite --output"
            try:
                stdout = self._text(op["output"])
            except OSError as exc:
                return f"no report written to --output: {exc}"
        key = tuple(op.values())
        # A report identical to one that already passed is right too; this
        # keeps re-parsing a 26 MB report out of every repeat.
        if self._verified.get(key) == stdout:
            return None
        try:
            report = parse_report(stdout, op["format"], op["method"])
        except (ValueError, KeyError, IndexError) as exc:
            return f"unreadable report: {exc}"
        failure = compare(self.expect(op), report, op["paper"])
        if failure is None:
            self._verified[key] = stdout
        return failure


def _score_value(method, token):
    if method == "binary":
        return int(token)
    if method == "grey":
        return float(token)
    return tuple(float(part) for part in token[1:-1].split(";"))


def parse_report(text, fmt, method):
    """Report text or JSON -> dict of method, criterion, scores, winners, risk notes."""
    if fmt == "json":
        document = json.loads(text)
        scores = document["scores"]
        if method == "neutrosophic":
            scores = {c: _score_value(method, token) for c, token in scores.items()}
        return {"method": document["method"], "criterion": document.get("criterion"),
                "scores": scores, "winners": document["winners"],
                "risk": document.get("risk_notes")}
    report = {"method": None, "criterion": None, "scores": {}, "winners": None, "risk": None}
    section = None
    for line in text.split("\n"):
        if not line:
            continue
        if line.startswith("  "):
            name, _, rest = line[2:].partition(" ")
            if section == "scores":
                report["scores"][name] = _score_value(method, rest)
            elif section == "risk notes":
                report["risk"][name] = rest
            continue
        key, _, value = line.partition(":")
        section = key
        if key in ("method", "criterion"):
            report[key] = value.strip()
        elif key == "winners":
            report["winners"] = value.split()
        elif key == "risk notes":
            report["risk"] = {}
    return report


def compare(expected, report, paper):
    if report["method"] != expected["method"]:
        return f"method {report['method']!r}, expected {expected['method']!r}"
    if report["criterion"] != expected["criterion"]:
        return f"criterion {report['criterion']!r}, expected {expected['criterion']!r}"
    candidates = expected["candidates"]
    if list(report["scores"]) != candidates:
        return "scored candidates differ from the table's, or are out of order"
    for candidate, want in zip(candidates, expected["scores"]):
        got = report["scores"][candidate]
        if got != want or type(got) is not type(want):
            return f"score of {candidate} is {got!r}, expected {want!r}"
    if report["winners"] != expected["winners"]:
        return f"winners {report['winners'][:5]}..., expected {expected['winners'][:5]}..."
    if expected["risk"] is None:
        if report["risk"]:
            return "risk notes where none belong"
    else:
        notes = report["risk"] or {}
        if list(notes) != list(expected["risk"]):
            return "risk notes are not exactly one per winner"
        for candidate, prefix in expected["risk"].items():
            if not notes[candidate].startswith(prefix):
                return f"risk note of {candidate} does not start with {prefix!r}"
    if paper is not None:
        return _check_paper(report["scores"], paper)
    return None


def _check_paper(scores, paper):
    for candidate, want in PAPER_SCORES[paper].items():
        got = scores[candidate]
        pairs = zip(got, want) if isinstance(want, tuple) else [(got, want)]
        if any(abs(g - w) > PAPER_TOLERANCE for g, w in pairs):
            return f"{candidate} scores {got!r}; the paper prints {want!r}"
    return None
