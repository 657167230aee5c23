import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from softchoice.engine import (
    BinCell,
    DecisionTable,
    GradeCell,
    GreyCell,
    NeutroCell,
    decide,
)
from softchoice.grades import ScaleValidationError, default_scale
from softchoice.grey import GreyNumber
from softchoice.neutrosophic import Triplet
from softchoice.softset import BinaryTable
from softchoice.tableio import (
    ParseError,
    format_cell,
    parse_cell,
    parse_scale,
    parse_table,
    render_report_json,
    render_report_text,
    write_binary_table,
    write_scale,
    write_table,
)

from conftest import BINARY_DOC, DEFAULT_SCALE_DOC, GRADED_DOC, TRIPLET_DOC


def random_table(rng, max_rows=6, max_cols=5):
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)

    def cell():
        kind = rng.randrange(4)
        if kind == 0:
            return BinCell(rng.randint(0, 1))
        if kind == 1:
            return GradeCell(rng.choice(["A", "B", "C", "D", "F", "pass_2"]))
        if kind == 2:
            a, b = sorted((round(rng.uniform(0, 5), 6), round(rng.uniform(0, 5), 6)))
            return GreyCell(GreyNumber(a, b))
        return NeutroCell(Triplet(rng.random(), rng.random(), rng.random()))

    return DecisionTable(
        tuple(f"c{i}" for i in range(1, rows + 1)),
        tuple(f"e{j}" for j in range(1, cols + 1)),
        tuple(tuple(cell() for _ in range(cols)) for _ in range(rows)),
    )


class TestParseTable:
    def test_binary_document(self, binary_table):
        assert parse_table(BINARY_DOC) == binary_table

    def test_graded_document(self, graded_table):
        assert parse_table(GRADED_DOC) == graded_table

    def test_triplet_document(self, triplet_table):
        table = parse_table(TRIPLET_DOC)
        assert table == triplet_table
        assert table.cell("P1", "e4") == NeutroCell(Triplet(0.6, 0.3, 0.1))

    def test_crlf_and_blank_lines_accepted(self):
        doc = ",e1\r\n\r\nc1,1\r\n"
        assert parse_table(doc) == DecisionTable(("c1",), ("e1",), ((BinCell(1),),))

    def test_surrounding_field_whitespace_tolerated(self):
        assert parse_table(" , e1 \nc1 , 1\n") == DecisionTable(("c1",), ("e1",), ((BinCell(1),),))


class TestParseTableErrors:
    def _error(self, doc):
        with pytest.raises(ParseError) as excinfo:
            parse_table(doc, source="bad.csv")
        return excinfo.value

    def test_ragged_row(self):
        error = self._error(",e1,e2\nc1,1\n")
        assert error.line == 2
        assert "expected 3 fields" in error.message

    def test_duplicate_candidate(self):
        error = self._error(",e1\nc1,1\nc1,0\n")
        assert "duplicate candidate" in error.message and error.line == 3

    def test_duplicate_parameter(self):
        error = self._error(",e1,e1\nc1,1,0\n")
        assert "duplicate parameter" in error.message and error.field == 3

    def test_two_component_triplet(self):
        error = self._error(",e1\nc1,(0.6;0.3)\n")
        assert "needs 3 components, got 2" in error.message
        assert (error.line, error.field) == (2, 2)

    def test_triplet_component_above_one(self):
        error = self._error(",e1\nc1,(1.2;0;0)\n")
        assert "[0, 1]" in error.message

    def test_interval_with_reversed_endpoints(self):
        error = self._error(",e1\nc1,[0.8;0.2]\n")
        assert "lower" in error.message

    def test_negative_number_rejected(self):
        error = self._error(",e1\nc1,[0;-0.5]\n")
        assert "malformed number" in error.message

    def test_internal_whitespace_rejected(self):
        error = self._error(",e1\nc1,(0.6; 0.3; 0.1)\n")
        assert "malformed number" in error.message

    def test_plain_junk_token(self):
        error = self._error(",e1\nc1,2\n")
        assert "malformed cell token '2'" in error.message

    def test_empty_document(self):
        assert "header" in self._error("").message

    def test_header_only(self):
        assert "candidate row" in self._error(",e1,e2\n").message

    def test_location_is_in_the_string_form(self):
        error = self._error(",e1\nc1,(0.6;0.3)\n")
        assert str(error).startswith("bad.csv:2 field 2:")


class TestWriteTable:
    def test_canonical_documents_round_trip_byte_stably(self):
        for doc in (BINARY_DOC, GRADED_DOC, TRIPLET_DOC):
            table = parse_table(doc)
            once = write_table(table)
            assert parse_table(once) == table
            assert write_table(parse_table(once)) == once

    def test_single_binary_cell_round_trips(self):
        table = DecisionTable(("c",), ("e",), ((BinCell(1),),))
        assert parse_table(write_table(table)) == table

    def test_random_tables_round_trip_exactly(self):
        rng = random.Random(20240812)
        for _ in range(50):
            table = random_table(rng)
            assert parse_table(write_table(table)) == table

    def test_cell_tokens_round_trip(self):
        for cell in (
            BinCell(0),
            GradeCell("B"),
            GreyCell(GreyNumber(0.1, 1 / 3)),
            NeutroCell(Triplet(2 / 3, 1e-7, 0.25)),
        ):
            assert parse_cell(format_cell(cell)) == cell

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=2, max_size=2),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3),
    )
    def test_str_of_a_value_is_its_cell_token(self, endpoints, degrees):
        interval = GreyNumber(min(endpoints), max(endpoints))
        triplet = Triplet(*degrees)
        assert parse_cell(str(interval)) == GreyCell(interval)
        assert parse_cell(str(triplet)) == NeutroCell(triplet)
        assert str(interval) == format_cell(GreyCell(interval))
        assert str(triplet) == format_cell(NeutroCell(triplet))

    def test_binary_matrix_serializes_to_the_same_dialect(self):
        matrix = BinaryTable(("H1", "H2"), ("cheap", "nice"), ((1, 0), (1, 1)))
        doc = write_binary_table(matrix)
        table = parse_table(doc)
        assert table.candidates == ("H1", "H2")
        assert table.cells == ((BinCell(1), BinCell(0)), (BinCell(1), BinCell(1)))


class TestScaleDocuments:
    def test_default_scale_document(self):
        assert parse_scale(DEFAULT_SCALE_DOC) == default_scale()

    def test_single_line_form(self):
        assert parse_scale("A=[0.85;1] B=[0.75;0.84] C=[0.6;0.74] D=[0.5;0.59] F=[0;0.49]") \
            == default_scale()

    def test_alternative_scale_accepted(self):
        scale = parse_scale("A=[0.9;1] B=[0.8;0.89] C=[0.7;0.79] D=[0.6;0.69] F=[0;0.59]")
        assert scale.labels == ("A", "B", "C", "D", "F")

    def test_round_trip(self):
        scale = default_scale()
        assert parse_scale(write_scale(scale)) == scale

    def test_overlap_is_a_validation_error(self):
        with pytest.raises(ScaleValidationError, match="overlap"):
            parse_scale("A=[0.9;1] B=[0.85;0.95]")

    def test_malformed_entry(self):
        with pytest.raises(ParseError, match="malformed scale entry"):
            parse_scale("A:[0.9;1]")

    def test_empty_document(self):
        with pytest.raises(ParseError, match="empty scale"):
            parse_scale("\n\n")


class TestReports:
    def test_text_report_fields(self, triplet_table):
        report = decide(triplet_table, "neutrosophic")
        text = render_report_text(report)
        assert text.startswith("method: neutrosophic\ncriterion: combined\n")
        assert "winners: P3\n" in text
        assert "risk notes:" in text
        assert text.endswith("\n")

    def test_text_scores_reparse_exactly(self, graded_table, triplet_table):
        for method, table in (("grey", graded_table), ("neutrosophic", triplet_table)):
            report = decide(table, method)
            lines = render_report_text(report).splitlines()
            start = lines.index("scores:") + 1
            for line, (candidate, score) in zip(lines[start:], report.scores.items()):
                name, token = line.strip().split(" ", 1)
                assert name == candidate
                if method == "grey":
                    assert float(token) == score
                else:
                    cell = parse_cell(token)
                    assert cell.triplet == score

    def test_json_mirrors_text(self, binary_table):
        report = decide(binary_table, "binary")
        document = json.loads(render_report_json(report))
        assert document == {
            "method": "binary",
            "scores": {"P1": 1, "P2": 2, "P3": 2, "P4": 1, "P5": 2, "P6": 2},
            "winners": ["P2", "P3", "P5", "P6"],
        }

    def test_json_neutrosophic_scores_use_cell_tokens(self, triplet_table):
        report = decide(triplet_table, "neutrosophic")
        document = json.loads(render_report_json(report))
        assert parse_cell(document["scores"]["P3"]).triplet == report.scores["P3"]
        assert document["winners"] == ["P3"]
        assert "risk_notes" in document and "notes" in document

    def test_rendering_is_deterministic(self, graded_table):
        report = decide(graded_table, "grey")
        assert render_report_text(report) == render_report_text(report)
        assert render_report_json(report) == render_report_json(report)
