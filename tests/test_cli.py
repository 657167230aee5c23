import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import softchoice

from softchoice.cli import run_cli

from conftest import BINARY_DOC, DEFAULT_SCALE_DOC, GRADED_DOC, TRIPLET_DOC


@pytest.fixture
def docs(tmp_path):
    paths = {}
    for name, doc in (
        ("binary", BINARY_DOC),
        ("graded", GRADED_DOC),
        ("triplet", TRIPLET_DOC),
        ("scale", DEFAULT_SCALE_DOC),
    ):
        path = tmp_path / f"{name}.csv"
        path.write_text(doc, encoding="utf-8")
        paths[name] = str(path)
    return paths


class TestHappyPaths:
    def test_binary_decision(self, docs, capsys):
        code = run_cli(["decide", "--input", docs["binary"], "--method", "binary"])
        out = capsys.readouterr().out
        assert code == 0
        assert "winners: P2 P3 P5 P6" in out

    def test_grey_decision_with_builtin_scale(self, docs, capsys):
        code = run_cli(["decide", "--input", docs["graded"], "--method", "grey"])
        out = capsys.readouterr().out
        assert code == 0
        assert "winners: P3" in out
        assert "P3 3.34" in out

    def test_grey_decision_with_explicit_scale(self, docs, capsys):
        code = run_cli([
            "decide", "--input", docs["graded"], "--method", "grey",
            "--scale", docs["scale"],
        ])
        assert code == 0
        assert "winners: P3" in capsys.readouterr().out

    def test_grey_on_all_binary_table_matches_binary_scores(self, docs, capsys):
        run_cli(["decide", "--input", docs["binary"], "--method", "binary"])
        binary_out = capsys.readouterr().out
        run_cli(["decide", "--input", docs["binary"], "--method", "grey"])
        grey_out = capsys.readouterr().out
        binary_scores = dict(
            line.split() for line in binary_out.splitlines() if line.startswith("  ")
        )
        grey_scores = dict(
            line.split() for line in grey_out.splitlines() if line.startswith("  ")
        )
        assert {k: float(v) for k, v in binary_scores.items()} \
            == {k: float(v) for k, v in grey_scores.items()}

    def test_neutrosophic_combined_decision(self, docs, capsys):
        code = run_cli([
            "decide", "--input", docs["triplet"], "--method", "neutrosophic",
            "--criterion", "combined",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "winners: P3" in out
        assert "exceeds P5's 0.1" in out

    def test_json_format(self, docs, capsys):
        code = run_cli([
            "decide", "--input", docs["triplet"], "--method", "neutrosophic",
            "--format", "json",
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["winners"] == ["P3"]
        assert document["criterion"] == "combined"

    def test_output_file(self, docs, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code = run_cli([
            "decide", "--input", docs["binary"], "--method", "binary",
            "--output", str(target),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert "winners: P2 P3 P5 P6" in target.read_text(encoding="utf-8")

    def test_identical_invocations_are_byte_identical(self, docs, capsys):
        argv = ["decide", "--input", docs["triplet"], "--method", "neutrosophic"]
        run_cli(argv)
        first = capsys.readouterr().out
        run_cli(argv)
        assert capsys.readouterr().out == first

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "decide" in capsys.readouterr().out


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert run_cli(["decide", "--method", "binary"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_method(self, docs, capsys):
        assert run_cli(["decide", "--input", docs["binary"], "--method", "fuzzy"]) == 1
        assert "error" in capsys.readouterr().err

    def test_criterion_outside_neutrosophic(self, docs, capsys):
        code = run_cli([
            "decide", "--input", docs["graded"], "--method", "grey",
            "--criterion", "combined",
        ])
        assert code == 1
        assert "--criterion only applies" in capsys.readouterr().err

    def test_scale_outside_grey(self, docs, capsys):
        code = run_cli([
            "decide", "--input", docs["binary"], "--method", "binary",
            "--scale", docs["scale"],
        ])
        assert code == 1
        assert "--scale only applies" in capsys.readouterr().err

    def test_non_positive_epsilon(self, docs, capsys):
        code = run_cli([
            "decide", "--input", docs["binary"], "--method", "binary",
            "--epsilon", "0",
        ])
        assert code == 1
        assert "--epsilon" in capsys.readouterr().err

    def test_no_command(self, capsys):
        assert run_cli([]) == 1
        assert "error" in capsys.readouterr().err


class TestValidationErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        code = run_cli(["decide", "--input", str(tmp_path / "nope.csv"), "--method", "binary"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err and "nope.csv" in err

    def test_malformed_table(self, tmp_path, capsys):
        path = tmp_path / "broken.csv"
        path.write_text(",e1\nc1,(0.6;0.3)\n", encoding="utf-8")
        code = run_cli(["decide", "--input", str(path), "--method", "neutrosophic"])
        assert code == 2
        err = capsys.readouterr().err
        assert "broken.csv:2" in err and "3 components" in err

    def test_invalid_scale_file(self, docs, tmp_path, capsys):
        path = tmp_path / "scale.txt"
        path.write_text("A=[0.9;1] B=[0.85;0.95]", encoding="utf-8")
        code = run_cli([
            "decide", "--input", docs["graded"], "--method", "grey",
            "--scale", str(path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "overlap" in err and "scale.txt" in err

    def test_unknown_grade_label(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text(",e1\nc1,E\n", encoding="utf-8")
        code = run_cli(["decide", "--input", str(path), "--method", "grey"])
        assert code == 2
        assert "unknown grade 'E'" in capsys.readouterr().err


class TestMismatchErrors:
    def test_neutrosophic_on_graded_table(self, docs, capsys):
        code = run_cli(["decide", "--input", docs["graded"], "--method", "neutrosophic"])
        assert code == 3
        err = capsys.readouterr().err
        assert "(P1, e4)" in err and "grade 'C'" in err

    def test_binary_on_graded_table(self, docs, capsys):
        code = run_cli(["decide", "--input", docs["graded"], "--method", "binary"])
        assert code == 3
        assert "(P1, e4)" in capsys.readouterr().err

    def test_no_output_file_written_on_failure(self, docs, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code = run_cli([
            "decide", "--input", docs["graded"], "--method", "neutrosophic",
            "--output", str(target),
        ])
        assert code == 3
        assert not target.exists()
        capsys.readouterr()


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
