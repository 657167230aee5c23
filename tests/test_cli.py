import errno
import gc
import inspect
import os
import re
import signal
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import softchoice

from softchoice import cli
from softchoice._checks import EPSILON
from softchoice.cli import run_cli
from softchoice.engine import decide, rank_combined, rank_conservative, rank_optimistic

from conftest import BINARY_DOC, DEFAULT_SCALE_DOC, GRADED_DOC, TRIPLET_DOC


class TestHappyPaths:
    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "decide" in capsys.readouterr().out

    def test_decide_help_is_byte_identical(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_cli(["decide", "--help"]) == 0
        assert capsys.readouterr().out == _DECIDE_HELP

    def test_every_default_epsilon_is_the_one_name(self):
        # The help spells it as a literal, since %(default)s would print 1e-09.
        assert float(re.search(r"--epsilon EPSILON .*\(default: (\S+)\)", _DECIDE_HELP)[1]) == EPSILON
        argv = ["decide", "--input", "table.csv", "--method", "binary"]
        defaults = [
            *(inspect.signature(f).parameters["epsilon"].default
              for f in (decide, rank_optimistic, rank_conservative, rank_combined)),
            cli.build_parser().parse_args(argv).epsilon,
            cli._plain_options(argv).epsilon,
        ]
        # is, not ==: a copied 1e-9 literal is an equal float but another object.
        assert all(default is EPSILON for default in defaults)


_DECIDE_HELP = """\
usage: softchoice decide [-h] --input INPUT --method
                         {binary,grey,neutrosophic} [--scale PATH]
                         [--criterion {optimistic,conservative,combined}]
                         [--epsilon EPSILON] [--format {text,json}]
                         [--output PATH]

Score every candidate of the input table with the chosen method and report the
winners.

options:
  -h, --help            show this help message and exit
  --input INPUT         table document to score
  --method {binary,grey,neutrosophic}
                        aggregation method
  --scale PATH          grade-scale document (grey method only; built-in scale
                        when omitted)
  --criterion {optimistic,conservative,combined}
                        ranking criterion (neutrosophic method only; default:
                        combined)
  --epsilon EPSILON     tie tolerance for winner detection (default: 1e-9)
  --format {text,json}  report format (default: text)
  --output PATH         write the report here instead of standard output
"""


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert run_cli(["decide", "--method", "binary"]) == 1
        assert "error" in capsys.readouterr().err

    def test_no_command(self, capsys):
        assert run_cli([]) == 1
        assert "error" in capsys.readouterr().err


class TestValidationErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        code = run_cli(["decide", "--input", str(tmp_path / "nope.csv"), "--method", "binary"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err and "nope.csv" in err


class TestMismatchErrors:
    def test_no_output_file_written_on_failure(self, docs, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code = run_cli([
            "decide", "--input", docs["graded"], "--method", "neutrosophic",
            "--output", str(target),
        ])
        assert code == 3
        assert not target.exists()
        capsys.readouterr()


# Error bytes, usage errors (exit 1) included, are pinned here as report bytes are in
# test_golden.COMMAND_LINES: each run's exact exit code and stderr, with {table} and
# {scale} for the paths given. A new error case goes in as one more entry.
_ERROR_GOLDENS = {
    "ragged-row": (
        ",e1,e2\nc1,1\n", None, ["--method", "binary"],
        2, "error: {table}:2: expected 3 fields, got 2\n",
    ),
    "duplicate-candidate": (
        ",e1\nc1,1\nc1,0\n", None, ["--method", "binary"],
        2, "error: {table}:3 field 1: duplicate candidate identifier 'c1'\n",
    ),
    "duplicate-parameter": (
        ",e1,e1\nc1,1,0\n", None, ["--method", "binary"],
        2, "error: {table}:1 field 3: duplicate parameter identifier 'e1'\n",
    ),
    "bad-last-column-after-blank-line": (
        ",e1,e2,e3\nc1,1,0,1\n\nc2,0,1,(0.5;0.5)\n", None, ["--method", "neutrosophic"],
        2, "error: {table}:4 field 4: triplet token '(0.5;0.5)' needs 3 components, got 2\n",
    ),
    "overflow-in-crlf-row": (
        ",e1,e2,e3\r\nc1,1,[1e400;1],0\r\n", None, ["--method", "grey"],
        2, "error: {table}:2 field 3: lower endpoint must be finite, got inf\n",
    ),
    "empty-document": (
        "\n\n", None, ["--method", "binary"],
        2, "error: {table}: empty document: a header row is required\n",
    ),
    "header-only": (
        ",e1,e2\n", None, ["--method", "binary"],
        2, "error: {table}:1: at least one candidate row is required\n",
    ),
    "malformed-scale-entry": (
        ",e1\nc1,A\n", "A=[0.9;1] B:[0;0.5]\n", ["--method", "grey"],
        2, "error: {scale}:1 field 2: malformed scale entry 'B:[0;0.5]' "
           "(expected LABEL=[lower;upper])\n",
    ),
    "entries-without-a-blank": (
        ",e1\nc1,A\n", "A=[0.9;1]x=[0;0.1]\n", ["--method", "grey"],
        2, "error: {scale}:1 field 1: malformed scale entry 'A=[0.9;1]x=[0;0.1]' "
           "(expected LABEL=[lower;upper])\n",
    ),
    "unknown-method": (
        ",e1\nc1,1\n", None, ["--method", "x"],
        1, "usage: softchoice [-h] command ...\n"
           "error: argument --method: invalid choice: 'x' "
           "(choose from 'binary', 'grey', 'neutrosophic')\n",
    ),
    "bad-scale-interval": (
        ",e1\nc1,A\n", "A=[0.9;1]\n\nB=[0.5;0.2]\n", ["--method", "grey"],
        2, "error: {scale}:3 field 1: invalid interval: lower 0.5 > upper 0.2\n",
    ),
    "unknown-grade": (
        ",e1\nc1,E\n", None, ["--method", "grey"],
        2, "error: {table}: unknown grade 'E' in cell (c1, e1); the scale defines A, B, C, D, F\n",
    ),
    # The scoring walk reports the first bad cell in row-major order, whatever its fault.
    "unknown-grade-before-a-triplet": (
        ",e1,e2\nc1,E,(0.1;0.2;0.3)\n", None, ["--method", "grey"],
        2, "error: {table}: unknown grade 'E' in cell (c1, e1); the scale defines A, B, C, D, F\n",
    ),
    "triplet-before-an-unknown-grade": (
        ",e1,e2\nc1,(0.1;0.2;0.3),E\n", None, ["--method", "grey"],
        3, "error: {table}: method 'grey' cannot use cell (c1, e1): found triplet (0.1;0.2;0.3); "
           "only 0/1, grade and interval cells are allowed\n",
    ),
    "unknown-grade-in-a-later-row": (
        ",e1,e2\nc1,1,0\nc2,E,(0.1;0.2;0.3)\n", None, ["--method", "grey"],
        2, "error: {table}: unknown grade 'E' in cell (c2, e1); the scale defines A, B, C, D, F\n",
    ),
    "header-without-parameters": (
        "e1\nc1\n", None, ["--method", "binary"],
        2, "error: {table}:1: header must hold a corner field followed by at least one parameter\n",
    ),
    "candidate-with-whitespace": (
        ",e1\na b,1\n", None, ["--method", "binary"],
        2, "error: {table}:2 field 1: candidate identifier 'a b' must be non-empty "
           "and contain no commas or whitespace\n",
    ),
    "criterion-outside-neutrosophic": (
        ",e1\nc1,A\n", None, ["--method", "grey", "--criterion", "combined"],
        1, "error: --criterion only applies to --method neutrosophic\n",
    ),
    "scale-outside-grey": (
        ",e1\nc1,1\n", DEFAULT_SCALE_DOC, ["--method", "binary"],
        1, "error: --scale only applies to --method grey\n",
    ),
    "non-positive-epsilon": (
        ",e1\nc1,1\n", None, ["--method", "binary", "--epsilon", "0"],
        1, "error: --epsilon must be positive, got 0.0\n",
    ),
    "overlapping-scale-grades": (
        ",e1\nc1,A\n", "A=[0.9;1] B=[0.85;0.95]", ["--method", "grey"],
        2, "error: {scale}: invalid grade scale: grades 'A' and 'B' overlap\n",
    ),
    "binary-on-a-graded-table": (
        ",e1\nc1,A\n", None, ["--method", "binary"],
        3, "error: {table}: method 'binary' cannot use cell (c1, e1): found grade 'A'; "
           "only 0/1 cells are allowed\n",
    ),
    # No file can have a path with a NUL byte; each is named as the flag gave it. open() words the
    # fault alike on every version, but 3.13 rewords the os.lstat of realpath, which --output meets first.
    "nul-in-input": (
        ",e1\nc1,1\n", None, ["--input", "a\x00b", "--method", "binary"],
        2, "error: cannot read a\x00b: embedded null byte\n",
    ),
    "nul-in-scale": (
        ",e1\nc1,A\n", None, ["--method", "grey", "--scale", "s\x00x"],
        2, "error: cannot read s\x00x: embedded null byte\n",
    ),
    "nul-in-output": (
        ",e1\nc1,1\n", None, ["--method", "binary", "--output", "o\x00p"],
        2, "error: cannot write o\x00p: " + (
            "lstat: embedded null character in path" if sys.version_info >= (3, 13) else "embedded null byte"
        ) + "\n",
    ),
}


@pytest.mark.parametrize("case", list(_ERROR_GOLDENS))
def test_error_report_is_byte_identical(tmp_path, capsys, case):
    table_doc, scale_doc, flags, expected_code, expected_err = _ERROR_GOLDENS[case]
    table, scale = tmp_path / "table.csv", tmp_path / "scale.txt"
    table.write_bytes(table_doc.encode())
    argv = ["decide", *(() if "--input" in flags else ("--input", str(table))), *flags]
    if scale_doc is not None:
        scale.write_bytes(scale_doc.encode())
        argv += ["--scale", str(scale)]
    code = run_cli(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (expected_code, "")
    assert captured.err == expected_err.format(table=table, scale=scale)


class TestOutputFile:
    def test_failed_write_keeps_the_old_report_and_leaves_no_temporary(
        self, docs, tmp_path, monkeypatch, capsys,
    ):
        directory = tmp_path / "reports"
        directory.mkdir()
        target = directory / "report.txt"
        target.write_bytes(b"an earlier report\r\n")
        real_open = open

        def open_failing_midway(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            if "w" in mode:
                def write(text):
                    handle.buffer.write(text[: len(text) // 2].encode("utf-8"))
                    handle.flush()
                    raise OSError(errno.ENOSPC, "No space left on device")
                handle.write = write
            return handle

        monkeypatch.setattr(cli, "open", open_failing_midway, raising=False)
        code = run_cli([
            "decide", "--input", docs["binary"], "--method", "binary",
            "--output", str(target),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot write" in err and str(target) in err
        assert target.read_bytes() == b"an earlier report\r\n"
        assert os.listdir(directory) == ["report.txt"]

    def test_existing_report_is_replaced_whole(self, docs, tmp_path, capsys):
        target = tmp_path / "report.txt"
        target.write_text("x" * 10_000, encoding="utf-8")
        argv = ["decide", "--input", docs["binary"], "--method", "binary"]
        assert run_cli(argv) == 0
        expected = capsys.readouterr().out
        assert run_cli([*argv, "--output", str(target)]) == 0
        assert target.read_text(encoding="utf-8") == expected
        assert [name for name in os.listdir(tmp_path) if name.endswith(".tmp")] == []

    def test_a_failed_write_names_the_given_path_not_the_temporary(self, docs, tmp_path, capsys):
        target = tmp_path / "absent" / "report.txt"
        code = run_cli([
            "decide", "--input", docs["binary"], "--method", "binary",
            "--output", str(target),
        ])
        assert (code, capsys.readouterr().err) == (
            2, f"error: cannot write {target}: No such file or directory\n",
        )

    def test_a_name_of_250_bytes_is_written(self, docs, tmp_path, capsys):
        """The temporary beside the target is named by random bytes, not after the target, so it fits."""
        if os.pathconf(tmp_path, "PC_NAME_MAX") < 255:
            pytest.skip("file names are shorter here")
        target = tmp_path / ("r" * 246 + ".txt")
        argv = ["decide", "--input", docs["binary"], "--method", "binary"]
        assert run_cli(argv) == 0
        expected = capsys.readouterr().out
        assert run_cli([*argv, "--output", str(target)]) == 0
        assert target.read_text(encoding="utf-8") == expected

    def test_a_path_with_a_lone_surrogate_leaves_its_directory_as_it_was(self, docs, tmp_path, capsys):
        before = sorted(os.listdir(tmp_path))
        target = f"{tmp_path}{os.sep}report\ud800.txt"  # no file system name encodes to it
        code = run_cli(["decide", "--input", docs["binary"], "--method", "binary", "--output", target])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot write {tmp_path}{os.sep}report\\ud800.txt: ")
        assert err.endswith(": surrogates not allowed\n")
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_device_target_is_written_in_place(self, docs, capsys):
        code = run_cli([
            "decide", "--input", docs["binary"], "--method", "binary",
            "--output", os.devnull,
        ])
        assert code == 0
        assert capsys.readouterr() == ("", "")

    def test_an_empty_path_fails_before_anything_is_created(self, docs, tmp_path, monkeypatch, capsys):
        """``realpath("")`` is the working directory; nothing may be created beside it."""
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        created = []
        real_open = os.open

        def spy(path, flags, *args, **kwargs):
            if flags & os.O_CREAT:
                created.append(path)
            return real_open(path, flags, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(os, "open", spy)
            code = run_cli(["decide", "--input", docs["binary"], "--method", "binary", "--output", ""])
        assert (code, capsys.readouterr().err) == (2, "error: cannot write : No such file or directory\n")
        assert created == []

    @pytest.mark.parametrize("through_link", [False, True], ids=["direct", "symlink"])
    def test_replaced_report_keeps_its_mode(self, docs, tmp_path, capsys, through_link):
        target = tmp_path / "report.txt"
        target.write_text("an earlier report\n", encoding="utf-8")
        os.chmod(target, 0o600)
        if stat.S_IMODE(os.stat(target).st_mode) != 0o600:
            pytest.skip("file modes cannot be set here")
        path = target
        if through_link:
            path = tmp_path / "link.txt"
            path.symlink_to(target)
        argv = ["decide", "--input", docs["binary"], "--method", "binary"]
        assert run_cli(argv) == 0
        expected = capsys.readouterr().out
        assert run_cli([*argv, "--output", str(path)]) == 0
        assert target.read_text(encoding="utf-8") == expected
        assert stat.S_IMODE(os.stat(target).st_mode) == 0o600


def _main_in_child(docs, stdout, *options, before="", stderr=subprocess.PIPE, **environ):
    """Run ``main`` on the binary table in a child that first executes ``before``."""
    env = dict(os.environ, PYTHONPATH=str(Path(softchoice.__file__).parent.parent), **environ)
    argv = ["decide", "--input", docs["binary"], "--method", "binary", *options]
    probe = f"{before}from softchoice.cli import main; main()"
    return subprocess.run(
        [sys.executable, "-c", probe, *argv],
        stdout=stdout, stderr=stderr, env=env, timeout=60,
    )


@pytest.mark.parametrize("state", ["closed", "full", "none"])
def test_an_unwritable_standard_error_keeps_the_exit_code(docs, tmp_path, state):
    """The error line is lost, but not the exit code, and nothing reaches standard output."""
    if state == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    before = {"closed": "import os; os.close(2); ", "none": "import sys; sys.stderr = None; "}
    cases = [  # input given as the binary table, extra options, exit code
        (str(tmp_path / "missing.csv"), (), 2),
        (docs["graded"], (), 3),
        (docs["binary"], ("--method", "x"), 1),
    ]
    with open("/dev/full" if state == "full" else os.devnull, "wb") as stderr:
        for table, options, code in cases:
            child = _main_in_child(
                {"binary": table}, subprocess.PIPE, *options, before=before.get(state, ""), stderr=stderr,
            )
            assert (child.returncode, child.stdout) == (code, b"")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
class TestOutputToOwnStdout:
    """``--output /dev/stdout`` in a child process whose standard output is a pipe or a file."""

    @staticmethod
    def _child(docs, stdout, output="/dev/stdout", before=""):
        """Run the CLI in a child that first executes ``before``, e.g. to close a descriptor."""
        return _main_in_child(docs, stdout, "--output", output, before=before)

    @pytest.fixture
    def report(self, docs, capsys):
        assert run_cli(["decide", "--input", docs["binary"], "--method", "binary"]) == 0
        return capsys.readouterr().out.encode("utf-8")

    def test_a_pipe_holds_exactly_the_report(self, docs, report):
        child = self._child(docs, subprocess.PIPE)
        assert (child.returncode, child.stdout, child.stderr) == (0, report, b"")

    def test_a_redirected_file_keeps_what_is_written_around_the_report(self, docs, report, tmp_path):
        log = tmp_path / "log.txt"
        with open(log, "wb", buffering=0) as handle:
            handle.write(b"header\n")
            child = self._child(docs, handle)
            handle.write(b"footer\n")
        assert (child.returncode, child.stderr) == (0, b"")
        assert log.read_bytes() == b"header\n" + report + b"footer\n"

    def test_a_closed_standard_error_matches_no_target(self, docs, report, tmp_path):
        target = tmp_path / "report.txt"
        target.write_bytes(b"an earlier report\n")
        child = self._child(docs, subprocess.PIPE, output=str(target), before="import os; os.close(2); ")
        assert (child.returncode, child.stdout) == (0, b"")
        assert target.read_bytes() == report

    def test_a_closed_standard_output_is_named_as_given(self, docs):
        child = self._child(docs, subprocess.PIPE, before="import os; os.close(1); ")
        assert (child.returncode, child.stderr) == (
            2, b"error: cannot write /dev/stdout: No such file or directory\n",
        )


class TestUnwritableStandardOutput:
    """A report that cannot reach standard output is invalid output: one line, exit 2."""

    @staticmethod
    def _expect(child, code):
        message = f"error: cannot write standard output: {os.strerror(code)}\n"
        assert (child.returncode, child.stderr) == (2, message.encode())

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_a_full_device(self, docs, unbuffered):
        """Buffered output fails only at the flush, unbuffered output at the write; help as a report."""
        for options in ((), ("--help",)):
            with open("/dev/full", "wb") as full:
                child = _main_in_child(docs, full, *options, PYTHONUNBUFFERED=unbuffered)
            self._expect(child, errno.ENOSPC)

    def test_a_pipe_whose_reader_has_gone(self, docs):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            self._expect(_main_in_child(docs, write_end), errno.EPIPE)
        finally:
            os.close(write_end)

    def test_a_descriptor_closed_before_main(self, docs):
        """Help, too, goes nowhere else, such as to standard error."""
        for options in ((), ("--help",)):
            child = _main_in_child(docs, subprocess.PIPE, *options, before="import os; os.close(1); ")
            self._expect(child, errno.EBADF)

    def test_no_standard_output_stream(self, docs):
        child = _main_in_child(docs, subprocess.PIPE, before="import sys; sys.stdout = None; ")
        self._expect(child, errno.EBADF)


class TestReportBytes:
    """A report on standard output is UTF-8 and arrives whole, or the exit is 2 with one line."""

    @pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
    def test_any_python_io_encoding_gets_utf_8(self, tmp_path, capsys, encoding):
        table = tmp_path / "table.csv"
        table.write_text(BINARY_DOC.replace("P1", "João"), encoding="utf-8")
        assert run_cli(["decide", "--input", str(table), "--method", "binary"]) == 0
        report = capsys.readouterr().out.encode("utf-8")
        child = _main_in_child({"binary": str(table)}, subprocess.PIPE, PYTHONIOENCODING=encoding)
        assert (child.returncode, child.stdout, child.stderr) == (0, report, b"")

    def test_text_the_caller_wrote_first_stays_first(self, docs, capsys):
        assert run_cli(["decide", "--input", docs["binary"], "--method", "binary"]) == 0
        report = capsys.readouterr().out.encode("utf-8")
        before = "import sys; sys.stdout.write('header\\n'); "  # held by the text layer when buffered
        child = _main_in_child(docs, subprocess.PIPE, before=before, PYTHONUNBUFFERED="")
        assert (child.returncode, child.stdout, child.stderr) == (0, b"header\n" + report, b"")

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file size limit")
    @pytest.mark.parametrize("output", [None, "/dev/stdout"], ids=["stdout", "output-dev-stdout"])
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_a_file_size_limit_cuts_the_report_short(self, docs, tmp_path, output, unbuffered):
        """A write takes the first 10 bytes only; the next one fails with ``EFBIG``."""
        if output is not None and not os.path.exists(output):
            pytest.skip(f"no {output}")
        limit = (
            "import softchoice.cli, resource, signal; signal.signal(signal.SIGXFSZ, signal.SIG_IGN); "
            "resource.setrlimit(resource.RLIMIT_FSIZE, (10, 10)); "
        )
        options = () if output is None else ("--output", output)
        with open(tmp_path / "report.txt", "wb") as handle:  # stderr is a pipe, which no limit cuts
            child = _main_in_child(docs, handle, *options, before=limit, PYTHONUNBUFFERED=unbuffered)
        message = f"error: cannot write {output or 'standard output'}: {os.strerror(errno.EFBIG)}\n"
        assert (child.returncode, child.stderr) == (2, message.encode())


class TestCollector:
    """Only ``main`` turns the cyclic collector off; ``run_cli`` leaves it alone."""

    def test_run_cli_leaves_the_collector_as_it_found_it(self, docs, capsys):
        before = (gc.isenabled(), gc.get_freeze_count())
        assert run_cli(["decide", "--input", docs["triplet"], "--method", "neutrosophic"]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    @pytest.mark.parametrize("doc,method", [
        (BINARY_DOC, "binary"), (GRADED_DOC, "grey"), (TRIPLET_DOC, "neutrosophic"),
    ], ids=["binary", "grey", "neutrosophic"])
    def test_nothing_cyclic_grows_with_the_table(self, tmp_path, doc, method):
        """Reference counting frees a decision, so ``main`` may leave the collector off."""
        header, *rows = doc.splitlines(keepends=True)

        def cyclic_garbage_of_one_run(count):
            path = tmp_path / f"{count}.csv"
            body = (f"c{i},{rows[i % len(rows)].split(',', 1)[1]}" for i in range(count))
            path.write_text(header + "".join(body), encoding="utf-8")
            gc.collect()
            argv = ["decide", "--input", str(path), "--method", method, "--output", f"{path}.out"]
            assert run_cli(argv) == 0
            return gc.collect()

        enabled = gc.isenabled()
        gc.disable()
        try:
            counts = (cyclic_garbage_of_one_run(10), cyclic_garbage_of_one_run(2000))
        finally:
            if enabled:
                gc.enable()
        assert counts[0] == counts[1]


class TestModuleEntryPoint:
    def test_python_dash_m_runs_quietly_under_warnings_as_errors(self, docs, capsys):
        argv = ["decide", "--input", docs["triplet"], "--method", "neutrosophic"]
        assert run_cli(argv) == 0
        expected = capsys.readouterr().out
        env = dict(os.environ, PYTHONPATH=str(Path(softchoice.__file__).parent.parent))
        child = subprocess.run(
            [sys.executable, "-W", "error", "-m", "softchoice.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (child.returncode, child.stdout, child.stderr) == (0, expected, "")


def test_importing_the_cli_loads_no_exact_arithmetic_modules(docs):
    """``fractions`` and ``decimal`` cost milliseconds of every run's start; none is needed.

    Nor is ``json`` for a text report, or the soft-set module, which every run
    would compile on a host without a bytecode cache, as this child has; the
    package loads ``SoftSet`` on first use. Nor are ``argparse`` and the
    ``gettext`` that it loads, neither at import nor for a plain command line. A
    run of each method then loads nothing outside the standard library and
    softchoice itself, because the package has no runtime dependencies.
    """
    names = ("fractions", "decimal", "json", "softchoice.softset")
    probe = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import softchoice.cli\n"
        f"print(*(f'{{name}}:{{name in bare}}:{{name in sys.modules}}' for name in {names}))\n"
        "print(softchoice.SoftSet is softchoice.softset.SoftSet)\n"
        "for method, path in zip(('binary', 'grey', 'neutrosophic'), sys.argv[1:]):\n"
        "    argv = ['decide', '--input', path, '--method', method, '--output', path + '.out']\n"
        "    print(softchoice.cli.run_cli(argv), end=' ')\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - bare}\n"
        "print('|', *sorted(loaded - set(sys.stdlib_module_names) - {'softchoice'}))\n"
        "print('argparse:', *sorted(loaded & {'argparse', 'gettext'}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(softchoice.__file__).parent.parent), PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.run(
        [sys.executable, "-c", probe, docs["binary"], docs["graded"], docs["triplet"]],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    imports, same, runs, parser = child.stdout.splitlines()
    codes, _, foreign = runs.partition("|")
    assert (same, codes.split(), foreign.split(), parser) == ("True", ["0", "0", "0"], [], "argparse:")
    states = [field.split(":") for field in imports.split()]
    assert [name for name, bare, loaded in states if (bare, loaded) == ("False", "True")] == []


# Cell tokens by the methods that accept them, with malformed and extreme ones
# (1e400, 5e-324, nan, empty components) mixed in; most documents are well
# shaped, so examples reach the cell parser, the engine and the renderers.
_BINARY_TOKENS = ["0", "1", " 1", "1 "]
_GREY_TOKENS = [*_BINARY_TOKENS, "A", "B", "F", "[0.2;0.4]", "[5e-324;1]", "[1e308;1.7e308]"]
_TRIPLET_TOKENS = [*_BINARY_TOKENS, "(0.1;0.2;0.3)", "(5e-324;0;1)", "(1;1;1)"]
_BAD_TOKENS = [
    "", "2", "E", "x", "[0.4;0.2]", "[1e400;2]", "[nan;1]", "[;]", "[0.2;0.4",
    "(1e400;0;0)", "(nan;0;0)", "(-0;0;0)", "(;;)", "(0.5;0.5)", "(0.1;0.2;0.3", '"1"', "P1",
]
_ALL_TOKENS = sorted(set(_GREY_TOKENS + _TRIPLET_TOKENS + _BAD_TOKENS))


@st.composite
def _fuzz_documents(draw):
    """Document bytes: mostly a table of fuzz tokens, sometimes any text or any bytes."""
    def rarely(usual, *odd):  # the usual value, or now and then an odd one
        return draw(st.sampled_from([usual] * 9 + list(odd)))

    anything = rarely(None, st.text(max_size=60).map(str.encode), st.binary(max_size=60))
    if anything is not None:
        return draw(anything)
    palette = draw(st.sampled_from([_BINARY_TOKENS, _GREY_TOKENS, _TRIPLET_TOKENS, _ALL_TOKENS]))
    columns = draw(st.integers(min_value=1, max_value=4))
    rows = rarely(draw(st.integers(min_value=1, max_value=4)), 0)
    lines = ["," + ",".join(rarely(f"e{j}", "e0", "", "a b") for j in range(columns))]
    for i in range(rows):
        cells = [draw(st.sampled_from(palette)) for _ in range(columns)]
        cells = rarely(cells, cells[1:], [*cells, "1"])  # or a ragged row
        lines.append(",".join([rarely(f"P{i}", "P0", ""), *cells]))
    newline = rarely(draw(st.sampled_from(["\n", "\r\n"])), "\r")
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return (bom + newline.join(lines) + draw(st.sampled_from(["", newline]))).encode()


def _assert_a_leading_bom_is_ignored(capsys, document, path, argv, code, captured):
    """Both readers drop one leading BOM: without it, the run ends the same way.

    Only a decoding error differs, by the BOM's three bytes in its position.
    """
    if not document.startswith("\ufeff".encode()):
        return
    path.unlink()
    path.write_bytes(document[3:])
    assert run_cli(argv) == code
    again = capsys.readouterr()
    if "can't decode" not in captured.err:
        assert (again.out, again.err) == (captured.out, captured.err)


_METHODS = ("binary", "grey", "neutrosophic")
_CRITERIA = ([], ["--criterion", "optimistic"], ["--criterion", "conservative"],
             ["--criterion", "combined"])
_VALID_EPSILONS = ([], ["--epsilon", "0.5"], ["--epsilon", "5e-324"])
_EPSILONS = (*_VALID_EPSILONS, ["--epsilon", "0"], ["--epsilon", "nan"], ["--epsilon", "1e400"])
# Every combination, with the ones that pass the usage checks drawn more often.
_fuzz_flags = st.one_of(
    st.sampled_from([
        ["--method", method, *criterion, *epsilon]
        for method in _METHODS for criterion in _CRITERIA for epsilon in _VALID_EPSILONS
        if method == "neutrosophic" or not criterion
    ]),
    st.sampled_from([
        ["--method", method, *criterion, *epsilon]
        for method in _METHODS for criterion in _CRITERIA for epsilon in _EPSILONS
    ]),
)


@settings(
    max_examples=250, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(document=_fuzz_documents(), flags=_fuzz_flags, json_format=st.booleans())
def test_cli_contract_on_arbitrary_tables(tmp_path, capsys, document, flags, json_format):
    """Any table and flags end in exit code 0-3; codes 2 and 3 name the input file."""
    path = tmp_path / "fuzz.csv"
    # Each example writes a new file; truncating and rewriting one costs ~40 ms on ext4.
    path.unlink(missing_ok=True)
    path.write_bytes(document)
    argv = ["decide", "--input", str(path), *flags]
    if json_format:
        argv += ["--format", "json"]
    code = run_cli(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert str(path) in captured.err
    _assert_a_leading_bom_is_ignored(capsys, document, path, argv, code, captured)


# Scale entries: the built-in grades, an overlapping one and malformed or
# extreme ones; labels repeat and come in any order, so duplicate, overlapping
# and ascending scales are drawn as often as sound ones.
_SCALE_ENTRIES = [
    *DEFAULT_SCALE_DOC.split(), "X=[0.4;0.9]", "E=[0.3;0.35]",
    "A=[1e400;1]", "A=[nan;1]", "A=(0.1;0.2;0.3)", "A=", "=[0;1]", "A=[0.9;1]x=[0;0.1]",
]
_SCALE_TABLES = [GRADED_DOC, ",e1,e2\nc1,A,[0.2;0.4]\nc2,X,1\n", ",e1\nc1,E\n"]


@st.composite
def _fuzz_scale_documents(draw):
    """Scale document bytes: mostly entries split by blanks and line ends, sometimes anything."""
    anything = draw(st.sampled_from(
        [None] * 9 + [st.text(max_size=60).map(str.encode), st.binary(max_size=60)]
    ))
    if anything is not None:
        return draw(anything)
    entries = draw(st.one_of(
        st.just(DEFAULT_SCALE_DOC.split()), st.lists(st.sampled_from(_SCALE_ENTRIES), max_size=6),
    ))
    separators = st.sampled_from([" ", "\t", "\n", "\r\n", "\n\n"])
    text = "".join(entry + draw(separators) for entry in entries)
    return (draw(st.sampled_from([""] * 9 + ["\ufeff"])) + text).encode()


@settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(scale_doc=_fuzz_scale_documents(), table_doc=st.sampled_from(_SCALE_TABLES),
       epsilon=st.sampled_from(_VALID_EPSILONS))
def test_cli_contract_on_arbitrary_scales(tmp_path, capsys, scale_doc, table_doc, epsilon):
    """Any scale document under --method grey ends in exit code 0-3; 2 and 3 name a file."""
    table, scale = tmp_path / "table.csv", tmp_path / "fuzz-scale.txt"
    table.unlink(missing_ok=True)  # a new file per example, as above
    table.write_text(table_doc, encoding="utf-8")
    scale.unlink(missing_ok=True)
    scale.write_bytes(scale_doc)
    argv = ["decide", "--input", str(table), "--method", "grey", "--scale", str(scale), *epsilon]
    code = run_cli(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert str(scale) in captured.err or str(table) in captured.err
    _assert_a_leading_bom_is_ignored(capsys, scale_doc, scale, argv, code, captured)


class _Str(str):
    pass


# Plain command lines, by the values that each exact flag takes, and the near misses that
# edit one into help, an abbreviation, an ``=`` form, a repeat, a value that starts with
# ``-``, a choice or epsilon that argparse rejects, an odd length or an element that is no str.
_PLAIN_VALUES = {
    "--input": ["t.csv", "", "a b", "a=b", "decide"], "--method": list(_METHODS), "--scale": ["s.txt"],
    "--criterion": ["optimistic", "conservative", "combined"], "--format": ["text", "json"],
    "--epsilon": ["0.5", " 1e-3 ", "1_0", "1e400", "nan", "0"], "--output": ["o.txt"],
}
_NEAR_MISSES = [
    *_PLAIN_VALUES, "--inp", "--meth", "--e", "--input=t.csv", "--method=grey", "-h", "--help", "--", "-",
    "decide", "Grey", "x", "-1", "-x", None, 1, b"--input", Path("t.csv"), _Str("decide"), _Str("--input"),
]
_EDITS = [[], *([miss] for miss in _NEAR_MISSES)]


@st.composite
def _command_lines(draw):
    flags = draw(st.lists(st.sampled_from(list(_PLAIN_VALUES)), unique=True))
    argv = ["decide"]
    for flag in [*flags, *(required for required in ("--input", "--method") if required not in flags)]:
        argv += [flag, draw(st.sampled_from(_PLAIN_VALUES[flag]))]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):  # an insert, a replacement or a deletion
        start = draw(st.integers(min_value=0, max_value=len(argv)))
        stop = start + draw(st.integers(min_value=0, max_value=1))
        argv[start:stop] = draw(st.sampled_from(_EDITS))
    return argv


_PARSER = cli.build_parser()  # one for all examples: parse_args keeps no state between calls


@settings(max_examples=2000, deadline=None)
@given(argv=_command_lines())
@example(argv=[])
@example(argv=["decide", "--help"])
def test_a_plain_command_line_reads_as_argparse_reads_it(argv):
    """Where ``run_cli`` reads an argv without argparse, argparse gives the same attributes.

    Every other argv goes to argparse itself, whose help and usage errors the goldens pin.
    """
    plain = cli._plain_options(argv)
    if plain is not None:
        parsed = _PARSER.parse_args(argv)
        # As reprs, so that a nan epsilon equals itself.
        assert repr(sorted(vars(plain).items())) == repr(sorted(vars(parsed).items()))
