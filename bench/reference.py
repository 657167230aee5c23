"""Fixed reference task that run.py times next to every operation.

Usage: python3 reference.py REPORT_PATH

The host's speed drifts by up to 1.8x within minutes, so raw wall times of
the same operation do not repeat from one run to the next. run.py spawns
this script between every two timed children and splits its wall time in
two:

- start-up: spawn to exit, minus the work below. This is the cost of a
  bare interpreter, the same kind of work that dominates `worked-cli`.
- work: the task below, timed in here and printed as the only line of
  standard output. It mixes what the bulk workloads do: stdlib imports,
  CSV-like splitting with per-token validation, a quadratic list scan,
  Fraction means, float interval sums, quadratic string building as in
  the risk notes, and writing a report of about half a megabyte to
  REPORT_PATH.

The task never changes with the program under test, so how long it takes
measures only the host's speed at that moment.
"""

import sys
import time

ROWS = 400
COLUMNS = 20
NOTE_ROWS = 150


def work(report_path):
    import json
    import re
    from fractions import Fraction

    tokens = ("0", "1", "B", "[0.125;0.250]", "(0.125;0.375;0.500)")
    lines = [",".join(["c%05d" % (row * 7 % 10007)]
                      + [tokens[(row + col) % len(tokens)] for col in range(COLUMNS)])
             for row in range(ROWS)]
    text = "\n".join(lines)

    token_re = re.compile(r"[01A-F]|\[\d\.\d+;\d\.\d+\]|\(\d\.\d+;\d\.\d+;\d\.\d+\)")
    seen, rows = [], []
    for line in text.split("\n"):
        fields = line.split(",")
        if fields[0] in seen:
            raise SystemExit("duplicate id")
        seen.append(fields[0])
        for token in fields[1:]:
            if token_re.fullmatch(token) is None:
                raise SystemExit("bad token")
        rows.append(fields[1:])

    report = []
    for name, row in zip(seen, rows):
        truth = indeterminacy = falsity = Fraction(0)
        low = high = 0.0
        for token in row:
            if token.startswith("("):
                t, i, f = token[1:-1].split(";")
                truth += Fraction(t)
                indeterminacy += Fraction(i)
                falsity += Fraction(f)
            elif token.startswith("["):
                a, b = token[1:-1].split(";")
                low += float(a)
                high += float(b)
        count = len(row)
        mean = (float(truth / count), float(indeterminacy / count), float(falsity / count))
        report.append("%s (%.4g;%.4g;%.4g) [%r;%r]" % (name, *mean, low, high))
    notes = {}
    for name in seen[:NOTE_ROWS]:
        clauses = [f"matches {other}'s {len(other) / 8:.3g}"
                   for other in seen[:NOTE_ROWS] if other != name]
        notes[name] = f"indeterminacy {len(name) / 8:.3g} " + "; ".join(clauses)
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump({"report": report, "notes": notes}, handle)


if __name__ == "__main__":
    start = time.perf_counter()
    work(sys.argv[1])
    print(repr(time.perf_counter() - start))
    sys.exit(0)
