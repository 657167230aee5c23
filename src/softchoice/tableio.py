"""Text formats for decision tables, grade scales and reports.

Table documents are comma-separated UTF-8 text. The header row starts with
a corner field (written empty, ignored on input) followed by the parameter
identifiers; every following row is a candidate identifier followed by one
cell token per parameter, so each row carries exactly 1 + parameter-count
fields. Identifiers are non-empty and contain no commas or whitespace.

Cell tokens:

    0 or 1                    binary cell
    C, good_2, ...            grade label  ([A-Za-z][A-Za-z0-9_]*)
    [0.6;0.74]                interval cell
    (0.5;0.4;0.1)             triplet cell

Numbers are nonnegative decimals in ASCII digits with an optional exponent
part; a leading minus sign is rejected, and tokens carry no internal
whitespace. Scale documents are whitespace-separated entries of the form
LABEL=[lower;upper], order-significant. Blank lines and one leading byte
order mark are ignored everywhere. Input accepts LF or CRLF line ends;
output always uses LF.
"""

from __future__ import annotations

import re
from typing import Optional

from .engine import (
    BINARY_CELLS,
    BinCell,
    Cell,
    DecisionReport,
    DecisionTable,
    GradeCell,
    GreyCell,
    Method,
    NeutroCell,
)
from .grades import GradeScale
from .grey import GreyNumber

# Each optional part is (?:X|), not (?:X)?: sre compiles ? on a group to a general repeat,
# which sets up a repeat context on every attempt. Both spellings match the same tokens and groups.
_NUMBER = r"([0-9]+(?:\.[0-9]+|)(?:[eE][+-]?[0-9]+|))"
_LABEL = r"[A-Za-z][A-Za-z0-9_]*"  # grade labels: in cells, in scale entries and in write_scale
_LABEL_RE = re.compile(_LABEL + r"\Z")
_IDENT_RE = re.compile(r"[^\s,]+\Z")
_SCALE_ENTRY_RE = re.compile(rf"({_LABEL})=(\[[^\]]*\])\Z")


class ParseError(ValueError):
    """Malformed or out-of-range input, with the offending location."""

    def __init__(
        self,
        message: str,
        *,
        source: str = "<input>",
        line: Optional[int] = None,
        field: Optional[int] = None,
    ):
        self.message = message
        self.source = source
        self.line = line
        self.field = field
        location = source
        if line is not None:
            location += f":{line}"
        if field is not None:
            location += f" field {field}"
        super().__init__(f"{location}: {message}")


_INTERVAL = re.compile(rf"\[{_NUMBER};{_NUMBER}\]\Z")  # the whole well-formed token, one group per number
_TRIPLET = re.compile(rf"\({_NUMBER};{_NUMBER};{_NUMBER}\)\Z")
# Opening bracket -> (closing bracket, token kind, whole-token pattern), for the error messages.
_BRACKETED = {"[": ("]", "interval", _INTERVAL), "(": (")", "triplet", _TRIPLET)}
_BINARY = dict(zip("01", BINARY_CELLS))  # token -> its shared cell
_SHARED_NUMBERS = 4096  # distinct number tokens one parse_table call shares a float for


class _Numbers(dict):
    """Number token -> float, each float built on the first lookup of its token."""

    def __missing__(self, token: str) -> float:
        return self.setdefault(token, float(token))


def _parse_cell(token: str, shared: dict, number=float) -> Cell:
    """The cell of a token that ``shared`` (0, 1, grades read so far) lacks; it keeps each new grade cell.

    A well-formed interval or triplet is one whole-token match, then its cell is built.
    """
    match = _INTERVAL.match(token)
    if match:
        return GreyCell(number(match[1]), number(match[2]))
    match = _TRIPLET.match(token)
    if match:
        return NeutroCell(number(match[1]), number(match[2]), number(match[3]))
    if _LABEL_RE.match(token):
        cell = shared[token] = GradeCell(token)
        return cell
    bracketed = _BRACKETED.get(token[:1])
    if bracketed is None:
        raise ValueError(f"malformed cell token {token!r}")
    close, kind, pattern = bracketed
    if not token.endswith(close):
        raise ValueError(f"malformed {kind} token {token!r}")
    parts = token[1:-1].split(";")
    if len(parts) != pattern.groups:
        raise ValueError(f"{kind} token {token!r} needs {pattern.groups} components, got {len(parts)}")
    # Some part is a malformed number, or the pattern would have matched.
    bad = next(part for part in parts if not re.fullmatch(_NUMBER, part))
    raise ValueError(f"malformed number {bad!r} (nonnegative decimal expected)")


def parse_cell(token: str) -> Cell:
    """Parse a single cell token."""
    try:
        return _BINARY.get(token) or _parse_cell(token, {})
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_cell(cell: Cell) -> str:
    """Canonical token for a cell, floats at full precision; ValueError if it reads back otherwise."""
    if isinstance(cell, BinCell):
        token = str(cell.value)
    elif isinstance(cell, GradeCell):
        token = cell.label
    else:
        token = str(cell)  # an interval or triplet cell prints as its token, as its value does
    try:
        if parse_cell(token) == cell:
            return token
    except ValueError:  # a ParseError
        pass
    raise ValueError(f"cell {cell!r} has no token that reads back as it (wrote {token!r})")


def _add_ident(text: str, kind: str, idents: dict, **where) -> None:
    """Add ``text`` to ``idents`` if well-formed and new; else a ParseError at ``where``."""
    if not _IDENT_RE.match(text):
        raise ParseError(
            f"{kind} identifier {text!r} must be non-empty and contain no commas or whitespace",
            **where,
        )
    if text in idents:
        raise ParseError(f"duplicate {kind} identifier {text!r}", **where)
    idents[text] = None


def _content_lines(text: str):
    """Numbered non-blank lines, one leading byte order mark dropped, sliced out one at a time."""
    start = 1 if text.startswith("\ufeff") else 0
    for line_number in range(1, text.count("\n", start) + 2):
        end = text.find("\n", start)
        line = text[start:end if end >= 0 else None].rstrip("\r")
        if line.strip():
            yield line_number, line
        start = end + 1


def parse_table(text: str, source: str = "<table>") -> DecisionTable:
    """Parse a table document into a decision table, one line at a time.

    Within one call, equal grade labels share one cell and equal number tokens one float,
    up to _SHARED_NUMBERS distinct numbers; nothing is kept from one call to the next.
    Each cell is one lookup in that dict (no cell is false), or one _parse_cell on a miss.
    A printable line without U+0020 is not stripped: all other whitespace is unprintable.
    """
    lines = _content_lines(text)
    header_line, line = next(lines, (None, None))
    if line is None:
        raise ParseError("empty document: a header row is required", source=source)
    header = [part.strip() for part in line.split(",")]
    if len(header) < 2:
        raise ParseError(
            "header must hold a corner field followed by at least one parameter",
            source=source, line=header_line,
        )
    parameters: dict = {}  # insertion-ordered, with constant-time duplicate lookups
    for index, name in enumerate(header[1:], start=2):
        _add_ident(name, "parameter", parameters, source=source, line=header_line, field=index)
    width = len(header)
    candidates: dict = {}
    cell_rows = []
    shared = dict(_BINARY)  # token -> cell, for 0, 1 and each grade label read so far
    numbers = _Numbers()  # until it holds _SHARED_NUMBERS tokens; later rows call float itself
    for line_number, line in lines:
        fields = line.split(",")
        if not line.isprintable() or " " in line:
            fields = [part.strip() for part in fields]
        if len(fields) != width:
            raise ParseError(f"expected {width} fields, got {len(fields)}", source=source, line=line_number)
        _add_ident(fields[0], "candidate", candidates, source=source, line=line_number, field=1)
        number = numbers.__getitem__ if len(numbers) < _SHARED_NUMBERS else float
        cells = []
        try:
            for token in fields[1:]:
                cells.append(shared.get(token) or _parse_cell(token, shared, number))
        except ValueError as exc:  # the failing token is the one after the cells read so far
            raise ParseError(str(exc), source=source, line=line_number, field=len(cells) + 2) from None
        cell_rows.append(tuple(cells))
    if not cell_rows:
        raise ParseError("at least one candidate row is required", source=source, line=header_line)
    return DecisionTable(tuple(candidates), tuple(parameters), tuple(cell_rows))


def write_table(table: DecisionTable) -> str:
    """Canonical table document that parse_table gives back exactly; else ValueError."""
    for ident in (*table.parameters, *table.candidates):
        if not _IDENT_RE.match(ident):
            raise ValueError(f"identifier {ident!r} must be non-empty and contain no commas or whitespace")
    lines = ["," + ",".join(table.parameters)]
    for candidate, row in zip(table.candidates, table.cells):
        lines.append(candidate + "," + ",".join(map(format_cell, row)))
    return "\n".join(lines) + "\n"


def parse_scale(text: str, source: str = "<scale>") -> GradeScale:
    """Parse a grade-scale document; GradeScale raises ScaleValidationError for a broken rule."""
    entries = []
    for line_number, line in _content_lines(text):
        for index, token in enumerate(line.split(), start=1):
            match = _SCALE_ENTRY_RE.match(token)
            if not match:
                raise ParseError(
                    f"malformed scale entry {token!r} (expected LABEL=[lower;upper])",
                    source=source, line=line_number, field=index,
                )
            label, interval_token = match.groups()
            try:
                interval = _parse_cell(interval_token, {})
                entries.append((label, GreyNumber(interval.lower, interval.upper)))
            except ValueError as exc:
                raise ParseError(str(exc), source=source, line=line_number, field=index) from None
    if not entries:
        raise ParseError("empty scale document", source=source)
    return GradeScale(tuple(entries))


def write_scale(scale: GradeScale) -> str:
    """Canonical scale document, one entry per line; ValueError for an entry that would not read back."""
    for label, _ in scale.entries:
        if not _LABEL_RE.match(label):
            raise ValueError(f"grade label {label!r} is not a letter followed by letters, digits or _")
    lines = [f"{label}={format_cell(GreyCell(value.lower, value.upper))}" for label, value in scale.entries]
    return "\n".join(lines) + "\n"


def _report_document(report: DecisionReport) -> dict:
    """The report's fields in order, without empty optional ones; both renderers use it."""
    document = {"method": report.method.value}
    if report.criterion is not None:
        document["criterion"] = report.criterion.value
    document["scores"] = (
        {candidate: str(score) for candidate, score in report.scores.items()}
        if report.method is Method.NEUTROSOPHIC else dict(report.scores)
    )
    document["winners"] = list(report.winners)
    if report.risk_notes:
        document["risk_notes"] = dict(report.risk_notes)
    if report.notes:
        document["notes"] = list(report.notes)
    return document


def render_report_text(report: DecisionReport) -> str:
    """Plain-text report; scores keep full precision and re-parse exactly."""
    lines = []
    for key, value in _report_document(report).items():
        title = key.replace("_", " ")
        if isinstance(value, str):
            lines.append(f"{title}: {value}")
        elif key == "winners":
            lines.append(f"{title}: " + " ".join(value))
        elif isinstance(value, dict):
            lines.append(f"{title}:")
            lines += [f"  {name} {entry}" for name, entry in value.items()]
        else:
            lines.append(f"{title}:")
            lines += [f"  {entry}" for entry in value]
    return "\n".join(lines) + "\n"


def render_report_json(report: DecisionReport) -> str:
    """JSON report mirroring the text rendering field for field."""
    import json  # here, so that a text report never loads it
    return json.dumps(_report_document(report), indent=2, ensure_ascii=False) + "\n"
