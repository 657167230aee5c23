"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 parse/validation error (including
unreadable files, unknown grade labels and grey scores beyond the float
range), 3 method/cell mismatch.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Optional, Sequence

from . import tableio
from ._checks import checked_real
from .engine import CellMismatchError, decide
from .grades import ScaleValidationError, UnknownGradeError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_MISMATCH = 3


class _UsageError(Exception):
    pass


class _InvalidInput(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="softchoice",
        description="Score and rank the candidates of a decision table.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")
    decide_cmd = commands.add_parser(
        "decide",
        help="run one decision method over a table document",
        description=(
            "Score every candidate of the input table with the chosen method "
            "and report the winners."
        ),
    )
    decide_cmd.add_argument("--input", required=True, help="table document to score")
    decide_cmd.add_argument(
        "--method", required=True, choices=["binary", "grey", "neutrosophic"],
        help="aggregation method",
    )
    decide_cmd.add_argument(
        "--scale", default=None, metavar="PATH",
        help="grade-scale document (grey method only; built-in scale when omitted)",
    )
    decide_cmd.add_argument(
        "--criterion", default=None, choices=["optimistic", "conservative", "combined"],
        help="ranking criterion (neutrosophic method only; default: combined)",
    )
    decide_cmd.add_argument(
        "--epsilon", type=float, default=1e-9,
        help="tie tolerance for winner detection (default: 1e-9)",
    )
    decide_cmd.add_argument(
        "--format", default="text", choices=["text", "json"], dest="format_",
        metavar="{text,json}", help="report format (default: text)",
    )
    decide_cmd.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the report here instead of standard output",
    )
    return parser


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load(path: str, parse: Callable[..., Any]) -> Any:
    """Read and parse one input document; either failing is invalid input."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _InvalidInput(f"cannot read {path}: {exc}") from None
    try:
        return parse(text, source=path)
    except tableio.ParseError as exc:
        raise _InvalidInput(str(exc)) from None
    except ScaleValidationError as exc:
        raise _InvalidInput(f"{path}: {exc}") from None


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        options = parser.parse_args(argv)
    except _UsageError as exc:
        print(parser.format_usage(), end="", file=sys.stderr)
        return _fail(EXIT_USAGE, str(exc))
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    try:
        checked_real(options.epsilon, "--epsilon", low=0.0, strict=True)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    if options.scale is not None and options.method != "grey":
        return _fail(EXIT_USAGE, "--scale only applies to --method grey")
    if options.criterion is not None and options.method != "neutrosophic":
        return _fail(EXIT_USAGE, "--criterion only applies to --method neutrosophic")

    try:
        table = _load(options.input, tableio.parse_table)
        scale = None if options.scale is None else _load(options.scale, tableio.parse_scale)
    except _InvalidInput as exc:
        return _fail(EXIT_INVALID, str(exc))

    try:
        report = decide(
            table, options.method,
            scale=scale, criterion=options.criterion, epsilon=options.epsilon,
        )
    except CellMismatchError as exc:
        return _fail(EXIT_MISMATCH, f"{options.input}: {exc}")
    except (UnknownGradeError, ValueError) as exc:  # e.g. a grey score beyond the float range
        return _fail(EXIT_INVALID, f"{options.input}: {exc}")

    rendered = (
        tableio.render_report_text(report)
        if options.format_ == "text"
        else tableio.render_report_json(report)
    )
    if options.output is None:
        sys.stdout.write(rendered)
    else:
        try:
            with open(options.output, "w", encoding="utf-8", newline="") as handle:
                handle.write(rendered)
        except OSError as exc:
            return _fail(EXIT_INVALID, f"cannot write {options.output}: {exc}")
    return EXIT_OK


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
