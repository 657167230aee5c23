"""Parse, decide and render take time and bytes in proportion to the rows, on shapes built to be costly.

Each shape runs at N and 8N rows (one: N and 8N columns of a single row; one: a single cell whose
number has N and 8N digits), best of 3. Linear code takes about 8 times as long there, and quadratic
code about 64 times, so a ratio above 20 fails. A report, a scale's message or the long number's
message keeps its bytes per row (per digit) within 10%; any other error message, and the single
row's report, keeps its length, as identifiers are fixed-width.
"""

import math
import time

import pytest

from softchoice.engine import decide
from softchoice.tableio import parse_scale, parse_table, render_report_text

N = 1000
RATIO = 20


def _table(cell, last=None):
    """Rows -> a one-column table document whose row ``i`` holds ``cell(i)``, and the last row ``last``."""
    def document(rows):
        cells = [cell(i) for i in range(rows)]
        if last is not None:
            cells[-1] = last
        return ",p1\n" + "".join(f"c{i:05d},{token}\n" for i, token in enumerate(cells))
    return document


def _duplicate_last_row(rows):
    return _table(lambda i: 1)(rows) + "c00000,0\n"


def _spread_triplets(columns):
    """One candidate with ``columns`` triplets, the exponents of its components from 2**-1074 to 1.

    The truths and indeterminacies take the mean's band of two fsums. The falsities' exact mean is
    the tie 0.5 + 2**-54, which the band cannot decide, so that mean also takes the integer path.
    """
    cells = [f"({2.0 ** -(j % 1075)!r};{math.ldexp(0.75, -(7 * j % 1075))!r};0.5)" for j in range(columns)]
    cells[-1] = f"(1.0;0.0;{0.5 + columns * 2.0 ** -54!r})"
    return "," + ",".join(f"e{j}" for j in range(columns)) + "\nc," + ",".join(cells) + "\n"


def _long_number(digits):
    """One interval cell whose second number is ``digits`` digits and a letter, so no spelling matches."""
    return f",p1\nc,[0;{'1' * digits}x]\n"


def _overlapping_scale(rows):
    return " ".join(f"g{i:05d}=[0.{99999 - i:05d};1]" for i in range(rows))


# name -> (rows -> document, method or None for a scale, how the output opens, whether it grows with the rows)
_SHAPES = {
    "all-tied": (_table(lambda i: "(0.25;0.5;0.125)"), "neutrosophic", "method: ", True),
    "distinct-indeterminacy": (_table(lambda i: f"(0.5;0.{i:05d};0.5)"), "neutrosophic", "method: ", True),
    "pairs-of-equal-indeterminacy": (
        _table(lambda i: f"(0.5;0.{i // 2:05d};0.5)"), "neutrosophic", "method: ", True,
    ),
    "combined-fallback": (  # the optimistic half and the conservative half share no candidate
        _table(lambda i: f"(0.9;0.{i:05d};0.8)" if i % 2 else f"(0.2;0.{i:05d};0.1)"),
        "neutrosophic", "method: ", True,
    ),
    "columns-of-spread-triplets": (_spread_triplets, "neutrosophic", "method: ", False),
    "digits-of-a-malformed-number": (_long_number, "grey", "<table>:2 field 2: malformed number", True),
    "duplicate-identifier-in-the-last-row": (_duplicate_last_row, "binary", "<table>:", False),
    "unknown-grade-in-the-last-cell": (_table(lambda i: "A", last="Z"), "grey", "unknown grade 'Z'", False),
    "method-mismatch-in-the-last-cell": (
        _table(lambda i: 0, last="(1;0;0)"), "binary", "method 'binary' cannot use cell", False,
    ),
    "scale-of-overlapping-entries": (_overlapping_scale, None, "invalid grade scale: ", True),
}


def _timed(document, method):
    """The seconds that parse, decide and render took, and the text report or the error message."""
    started = time.perf_counter()
    try:
        if method is None:
            output = str(parse_scale(document))
        else:
            output = render_report_text(decide(parse_table(document), method))
    except (KeyError, ValueError) as exc:
        output = str(exc)
    return time.perf_counter() - started, output


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_cost_is_linear_in_the_rows(shape):
    make, method, opening, grows = _SHAPES[shape]
    small_document, large_document = make(N), make(8 * N)
    small_time, small = min(_timed(small_document, method) for _ in range(3))
    # The best of 3 large runs meets the bound once any one does, so linear code runs it once.
    for _ in range(3):
        large_time, large = _timed(large_document, method)
        if large_time <= RATIO * small_time:
            break
    assert large_time <= RATIO * small_time
    assert small.startswith(opening) and large.startswith(opening)
    small_bytes, large_bytes = len(small.encode()), len(large.encode())
    assert abs(large_bytes / (8 if grows else 1) - small_bytes) <= 0.1 * small_bytes
