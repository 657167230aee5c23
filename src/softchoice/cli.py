"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 parse/validation error (including
unreadable input files, unwritable or cut-short reports, unknown grade labels and
grey scores beyond the float range), 3 method/cell mismatch.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import stat
import sys
from typing import Any, Callable, Optional, Sequence

from . import tableio
from ._checks import checked_real
from .engine import CellMismatchError, Criterion, Method, decide
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

    def print_help(self, file=None):  # as a report: all of it reaches standard output, or OSError
        _write_stream(1, sys.stdout, self.format_help())


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
        usage=(  # as argparse wraps it at 80 columns before 3.13, so every version prints the same
            "%(prog)s [-h] --input INPUT --method\n"
            "                         {binary,grey,neutrosophic} [--scale PATH]\n"
            "                         [--criterion {optimistic,conservative,combined}]\n"
            "                         [--epsilon EPSILON] [--format {text,json}]\n"
            "                         [--output PATH]"
        ),
    )
    decide_cmd.add_argument("--input", required=True, help="table document to score")
    decide_cmd.add_argument(
        "--method", required=True, choices=[method.value for method in Method],
        help="aggregation method",
    )
    decide_cmd.add_argument(
        "--scale", default=None, metavar="PATH",
        help="grade-scale document (grey method only; built-in scale when omitted)",
    )
    decide_cmd.add_argument(
        "--criterion", default=None, choices=[criterion.value for criterion in Criterion],
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


def _fail(code: int, message: str, usage: str = "") -> int:
    """Write ``usage`` and the error line to standard error; the exit code holds if that fails."""
    try:
        _write_stream(2, sys.stderr, f"{usage}error: {message}\n")
    except OSError:  # the message is lost, not the code
        pass
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


def _write_stream(fd: int, stream: Any, text: str) -> None:
    """Write all of ``text`` to ``stream``, this process's descriptor ``fd``, as UTF-8.

    A lone surrogate, as in a path that is not UTF-8, is written as ``\\udcff``.
    """
    try:
        if stream is None:  # the process started with the descriptor closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        stream.flush()  # what the text layer holds goes first
        sink = getattr(stream, "buffer", stream)  # a StringIO takes the text itself
        data = text if sink is stream else memoryview(text.encode("utf-8", "backslashreplace"))
        while data:  # a raw binary layer may take part of a write
            if not (taken := sink.write(data)):  # None: a full non-blocking descriptor
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            data = data[taken:]
        stream.flush()
    except OSError:  # point the descriptor away, so the exit flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        if devnull != fd:
            os.dup2(devnull, fd)
            os.close(devnull)
        raise


def _write_report(path: str, text: str) -> None:
    """Write the whole report to ``path`` or leave what was there untouched.

    The text goes to a new file beside the target, with the mode of the file
    it replaces, and is renamed onto it; on any failure the new file is
    removed. A pipe or a device cannot be renamed onto, so it is written in
    place; this process's own standard output or error, through its stream.
    """
    if not path:  # as open("") fails, before anything is created beside the working directory
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    status = os.stat(path) if os.path.exists(path) else None  # through /dev/stdout to its pipe or file
    if status is not None and not stat.S_ISREG(status.st_mode):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return
    for fd, stream in ((1, sys.stdout), (2, sys.stderr)) if status is not None else ():
        try:
            same = os.path.samestat(status, os.fstat(fd))
        except OSError:  # a closed descriptor is no file
            continue
        if same:
            return _write_stream(fd, stream, text)
    target = os.path.realpath(path)
    temporary = os.path.join(os.path.dirname(target), f".{os.urandom(6).hex()}.tmp")
    descriptor = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(descriptor, "w", encoding="utf-8", newline="") as handle:
            if status is not None:
                os.fchmod(descriptor, stat.S_IMODE(status.st_mode))
            handle.write(text)
        os.replace(temporary, target)
    except BaseException:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        options = parser.parse_args(argv)
    except _UsageError as exc:
        return _fail(EXIT_USAGE, str(exc), usage=parser.format_usage())
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except OSError as exc:  # --help to an unwritable standard output
        return _fail(EXIT_INVALID, f"cannot write standard output: {exc.strerror or exc}")

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
    try:
        if options.output is None:
            _write_stream(1, sys.stdout, rendered)
        else:
            _write_report(options.output, rendered)
    except OSError as exc:  # its filename may be the temporary, which the user never named
        target = "standard output" if options.output is None else options.output
        return _fail(EXIT_INVALID, f"cannot write {target}: {exc.strerror or exc}")
    return EXIT_OK


def main() -> None:
    # One decision per process, all freed by reference counting: spare it the collector's walks.
    gc.disable()
    gc.freeze()
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
