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

Numbers are nonnegative decimals with an optional exponent part; a leading
minus sign is rejected, and tokens carry no internal whitespace. Scale
documents are whitespace-separated entries of the form LABEL=[lower;upper],
order-significant. Blank lines are ignored everywhere. Input accepts LF or
CRLF line ends; output always uses LF.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from .engine import (
    BinCell,
    Cell,
    DecisionReport,
    DecisionTable,
    GradeCell,
    GreyCell,
    Method,
    NeutroCell,
)
from .grades import GradeScale, ScaleValidationError
from .grey import GreyNumber
from .neutrosophic import Triplet
from .softset import BinaryTable

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?\Z")
_LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_IDENT_RE = re.compile(r"[^\s,]+\Z")
_SCALE_ENTRY_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)=(\[.*\])\Z")


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


def _parse_number(text: str) -> float:
    if not _NUMBER_RE.match(text):
        raise ValueError(f"malformed number {text!r} (nonnegative decimal expected)")
    return float(text)


# Opening bracket -> (closing bracket, token kind, component count, cell builder).
_BRACKETED = {
    "[": ("]", "interval", 2, lambda lower, upper: GreyCell(GreyNumber(lower, upper))),
    "(": (")", "triplet", 3, lambda t, i, f: NeutroCell(Triplet(t, i, f))),
}


def _parse_cell(token: str) -> Cell:
    if token in ("0", "1"):
        return BinCell(int(token))
    bracketed = _BRACKETED.get(token[:1])
    if bracketed is not None:
        close, kind, count, build = bracketed
        if not token.endswith(close):
            raise ValueError(f"malformed {kind} token {token!r}")
        parts = token[1:-1].split(";")
        if len(parts) != count:
            raise ValueError(f"{kind} token {token!r} needs {count} components, got {len(parts)}")
        return build(*map(_parse_number, parts))
    if _LABEL_RE.match(token):
        return GradeCell(token)
    raise ValueError(f"malformed cell token {token!r}")


def _cell_at(token: str, **where) -> Cell:
    """Parse a cell token; a malformed one is a ParseError at ``where``."""
    try:
        return _parse_cell(token)
    except ValueError as exc:
        raise ParseError(str(exc), **where) from None


def parse_cell(token: str) -> Cell:
    """Parse a single cell token."""
    return _cell_at(token)


def format_cell(cell: Cell) -> str:
    """Canonical token for a cell; floats keep full round-trip precision."""
    if isinstance(cell, BinCell):
        return str(cell.value)
    if isinstance(cell, GradeCell):
        return cell.label
    return str(cell.interval if isinstance(cell, GreyCell) else cell.triplet)


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
    for line_number, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if line.strip():
            yield line_number, line


def parse_table(text: str, source: str = "<table>") -> DecisionTable:
    """Parse a table document into a decision table."""
    rows = [
        (line_number, [part.strip() for part in line.split(",")])
        for line_number, line in _content_lines(text)
    ]
    if not rows:
        raise ParseError("empty document: a header row is required", source=source)
    header_line, header = rows[0]
    if len(header) < 2:
        raise ParseError(
            "header must hold a corner field followed by at least one parameter",
            source=source, line=header_line,
        )
    parameters: dict = {}  # insertion-ordered, with constant-time duplicate lookups
    for index, name in enumerate(header[1:], start=2):
        _add_ident(name, "parameter", parameters, source=source, line=header_line, field=index)
    body = rows[1:]
    if not body:
        raise ParseError("at least one candidate row is required", source=source, line=header_line)
    width = len(header)
    candidates: dict = {}
    cell_rows = []
    for line_number, fields in body:
        if len(fields) != width:
            raise ParseError(
                f"expected {width} fields, got {len(fields)}",
                source=source, line=line_number,
            )
        _add_ident(fields[0], "candidate", candidates, source=source, line=line_number, field=1)
        cell_rows.append(tuple(
            _cell_at(token, source=source, line=line_number, field=index)
            for index, token in enumerate(fields[1:], start=2)
        ))
    return DecisionTable(tuple(candidates), tuple(parameters), tuple(cell_rows))


def _write_grid(col_ids, row_ids, cells, token) -> str:
    lines = ["," + ",".join(col_ids)]
    lines += [row_id + "," + ",".join(map(token, row)) for row_id, row in zip(row_ids, cells)]
    return "\n".join(lines) + "\n"


def write_table(table: DecisionTable) -> str:
    """Canonical table document; parse_table gives the table back exactly."""
    return _write_grid(table.parameters, table.candidates, table.cells, format_cell)


def write_binary_table(table: BinaryTable) -> str:
    """Serialize a 0/1 matrix in the same dialect; it re-parses as an all-binary table."""
    return _write_grid(table.col_ids, table.row_ids, table.cells, str)


def parse_scale(text: str, source: str = "<scale>") -> GradeScale:
    """Parse and validate a grade-scale document."""
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
            cell = _cell_at(interval_token, source=source, line=line_number, field=index)
            entries.append((label, cell.interval))
    if not entries:
        raise ParseError("empty scale document", source=source)
    scale = GradeScale(tuple(entries))
    violations = scale.validate()
    if violations:
        raise ScaleValidationError(violations)
    return scale


def write_scale(scale: GradeScale) -> str:
    """Canonical scale document, one entry per line."""
    lines = [f"{label}={interval}" for label, interval in scale.entries]
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
    return json.dumps(_report_document(report), indent=2, ensure_ascii=False) + "\n"
