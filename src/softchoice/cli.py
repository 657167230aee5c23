"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 parse/validation error (including
unreadable input files, unwritable or cut-short reports, unknown grade labels and
grey scores beyond the float range), 3 method/cell mismatch.

A plain ``decide`` command line, exact long flags each given once, skips argparse,
whose import and parser build cost more than a worked example's whole run. Help,
usage errors and every other spelling go through ``build_parser``, in its own words.
"""

from __future__ import annotations

import errno
import gc
import os
import stat
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from . import tableio
from ._checks import EPSILON, checked_real
from .engine import CellMismatchError, Criterion, Method, decide
from .grades import ScaleValidationError, UnknownGradeError

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_MISMATCH = 3


class _UsageError(Exception):
    pass


class _InvalidInput(Exception):
    pass


# The flags of ``decide``: each entry is one ``add_argument`` call's keyword arguments, the attribute
# is the flag without its dashes, and choices go in the order that help and usage errors list them.
_FLAGS = {
    "--input": dict(required=True, help="table document to score"),
    "--method": dict(required=True, choices=tuple(m.value for m in Method), help="aggregation method"),
    "--scale": dict(
        metavar="PATH", help="grade-scale document (grey method only; built-in scale when omitted)",
    ),
    "--criterion": dict(
        choices=tuple(c.value for c in Criterion),
        help="ranking criterion (neutrosophic method only; default: combined)",
    ),
    "--epsilon": dict(type=float, default=EPSILON, help="tie tolerance for winner detection (default: 1e-9)"),
    "--format": dict(default="text", choices=("text", "json"), help="report format (default: text)"),
    "--output": dict(metavar="PATH", help="write the report here instead of standard output"),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # here, so that a plain command line never loads it

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

        def print_help(self, file=None):  # as a report: all of it reaches standard output, or OSError
            _write_stream(1, sys.stdout, self.format_help())

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
    for flag, spec in _FLAGS.items():
        decide_cmd.add_argument(flag, **spec)
    return parser


def _plain_options(argv: Sequence[Any]) -> Optional[SimpleNamespace]:
    """``build_parser``'s reading of ``decide`` and exact long flags, each given once, or None."""
    if len(argv) % 2 == 0 or any(type(arg) is not str for arg in argv) or argv[0] != "decide":
        return None
    given = dict(zip(argv[1::2], argv[2::2]))
    required = {flag for flag, spec in _FLAGS.items() if spec.get("required")}
    if 2 * len(given) != len(argv) - 1 or not required <= given.keys() <= _FLAGS.keys():
        return None  # a repeat, an unknown or abbreviated flag, or a required one missing
    options = SimpleNamespace(command="decide")
    for flag, spec in _FLAGS.items():
        value = given.get(flag, spec.get("default"))
        if flag in given:
            try:
                value = spec.get("type", str)(value)
            except ValueError:
                return None
            if given[flag].startswith("-") or value not in spec.get("choices", (value,)):
                return None  # a value that argparse may read as a flag, or one that it rejects
        setattr(options, flag[2:], value)
    return options


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
    except (OSError, ValueError) as exc:  # a decoding error, or a path with a NUL or a lone surrogate
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
    options = _plain_options(argv)
    if options is None:
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
        report = decide(
            table, options.method,
            scale=scale, criterion=options.criterion, epsilon=options.epsilon,
        )
    except _InvalidInput as exc:
        return _fail(EXIT_INVALID, str(exc))
    except CellMismatchError as exc:
        return _fail(EXIT_MISMATCH, f"{options.input}: {exc}")
    except (UnknownGradeError, ValueError) as exc:  # e.g. a grey score beyond the float range
        return _fail(EXIT_INVALID, f"{options.input}: {exc}")

    render = tableio.render_report_text if options.format == "text" else tableio.render_report_json
    rendered = render(report)
    try:
        if options.output is None:
            _write_stream(1, sys.stdout, rendered)
        else:
            _write_report(options.output, rendered)
    except (OSError, ValueError) as exc:  # its filename may be the temporary, which the user never named
        target = "standard output" if options.output is None else options.output
        return _fail(EXIT_INVALID, f"cannot write {target}: {getattr(exc, 'strerror', None) or exc}")
    return EXIT_OK


def main() -> None:
    # One decision per process, all freed by reference counting: spare it the collector's walks.
    gc.disable()
    gc.freeze()
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
