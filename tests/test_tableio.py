import dataclasses
import pickle
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softchoice.engine import (
    BinCell,
    DecisionTable,
    GradeCell,
    GreyCell,
    NeutroCell,
    decide,
)
from softchoice.grades import GradeScale, ScaleValidationError, default_scale
from softchoice.grey import GreyNumber
from softchoice.neutrosophic import Triplet
from softchoice.softset import SoftSet
from softchoice.tableio import (
    _SHARED_NUMBERS,
    ParseError,
    format_cell,
    parse_cell,
    parse_scale,
    parse_table,
    render_report_text,
    write_scale,
    write_table,
)

from conftest import BINARY_DOC, DEFAULT_SCALE_DOC, GRADED_DOC, PLAYERS_SOFT_SET, TRIPLET_DOC


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
            return GreyCell(a, b)
        return NeutroCell(rng.random(), rng.random(), rng.random())

    return DecisionTable(
        tuple(f"c{i}" for i in range(1, rows + 1)),
        tuple(f"e{j}" for j in range(1, cols + 1)),
        tuple(tuple(cell() for _ in range(cols)) for _ in range(rows)),
    )


class TestParseTable:
    def test_crlf_and_blank_lines_accepted(self):
        doc = ",e1\r\n\r\nc1,1\r\n"
        assert parse_table(doc) == DecisionTable(("c1",), ("e1",), ((BinCell(1),),))

    def test_surrounding_field_whitespace_tolerated(self):
        assert parse_table(" , e1 \nc1 , 1\n") == DecisionTable(("c1",), ("e1",), ((BinCell(1),),))

    def test_a_bom_before_a_blank_line_is_dropped_with_it(self):
        assert parse_table("\ufeff\n,e1\nc1,1\n") == DecisionTable(("c1",), ("e1",), ((BinCell(1),),))


@pytest.mark.parametrize(
    "doc, parse", [(doc, parse_table) for doc in (BINARY_DOC, GRADED_DOC, TRIPLET_DOC)]
    + [(DEFAULT_SCALE_DOC, parse_scale), ("A=[0.9;1] B=[0;0.5]", parse_scale)],
)
def test_both_readers_ignore_one_leading_bom(doc, parse):
    assert parse("\ufeff" + doc) == parse(doc)


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

    def test_plain_junk_token(self):
        error = self._error(",e1\nc1,2\n")
        assert "malformed cell token '2'" in error.message

    @pytest.mark.parametrize("token, number", [
        ("[٠.٥;١]", "٠.٥"),
        ("(０.５;0;1)", "０.５"),
        ("[0;1e٠]", "1e٠"),
        ("[0;-0.5]", "-0.5"),
        ("(0.6; 0.3; 0.1)", " 0.3"),
        ("[0;1.]", "1."),
        ("(0.5;.5;0)", ".5"),
        ("[1e+;2]", "1e+"),
    ], ids=("arabic-indic", "fullwidth", "exponent", "negative", "internal-whitespace",
            "no-fraction-digits", "no-integer-digits", "no-exponent-digits"))
    def test_malformed_number_message(self, token, number):
        with pytest.raises(ParseError) as excinfo:
            parse_table(f",e1\nc1,{token}\n")
        assert str(excinfo.value) == (
            f"<table>:2 field 2: malformed number '{number}' (nonnegative decimal expected)"
        )

    def test_empty_document(self):
        assert "header" in self._error("").message

    def test_header_only(self):
        assert "candidate row" in self._error(",e1,e2\n").message

    def test_location_is_in_the_string_form(self):
        error = self._error(",e1\nc1,(0.6;0.3)\n")
        assert str(error).startswith("bad.csv:2 field 2:")

    @given(data=st.data())
    def test_a_bad_token_anywhere_is_located_by_its_line_and_field(self, data):
        rows = data.draw(st.integers(min_value=1, max_value=4), label="rows")
        cols = data.draw(st.integers(min_value=1, max_value=4), label="cols")
        bad_row = data.draw(st.integers(min_value=0, max_value=rows - 1), label="bad_row")
        bad_col = data.draw(st.integers(min_value=0, max_value=cols - 1), label="bad_col")
        bad = data.draw(st.sampled_from(["2", "[0.4;0.2]", "(0.5;0.5)", "(1e400;0;0)", "[0;-0.5]"]))
        good = st.sampled_from(["0", "1", "A", "[0.2;0.4]", "(0.1;0.2;0.3)"])
        newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="newline")
        blank = st.sampled_from(["", " ", "\t", " \t "])  # blank or whitespace-only
        blank_lines = st.lists(blank, max_size=2)
        lines = data.draw(blank_lines, label="leading blank lines")
        lines.append("," + ",".join(f"e{j}" for j in range(cols)))
        for i in range(rows):
            lines += data.draw(blank_lines, label="blank lines")
            if i == bad_row:
                bad_line = len(lines) + 1
            cells = [bad if (i, j) == (bad_row, bad_col) else data.draw(good) for j in range(cols)]
            pad = data.draw(blank, label="padding")
            lines.append(",".join(pad + field + pad for field in [f"c{i}", *cells]))
        bom = data.draw(st.sampled_from(["", "\ufeff"]), label="bom")
        end = data.draw(st.sampled_from([newline, ""]), label="final line end")
        error = self._error(bom + newline.join(lines) + end)
        assert (error.line, error.field) == (bad_line, bad_col + 2)
        assert str(error).startswith(f"bad.csv:{bad_line} field {bad_col + 2}: ")

    @given(data=st.data())
    def test_whitespace_around_fields_changes_nothing(self, data):
        rows = data.draw(st.integers(min_value=1, max_value=3), label="rows")
        cols = data.draw(st.integers(min_value=1, max_value=3), label="cols")
        token = st.sampled_from(["0", "1", "A", "[0.2;0.4]", "(0.1;0.2;0.3)", "2", "(0.5;0.5)"])
        plain = [["", *(f"e{j}" for j in range(cols))]]
        plain += [[f"c{i}", *(data.draw(token) for _ in range(cols))] for i in range(rows)]
        alphabets = st.sampled_from([" ", _PADDING.replace(" ", ""), _PADDING])
        padded = []
        for row in plain:  # each line padded with spaces only, with no space, or with both
            pad = st.text(alphabet=data.draw(alphabets, label="padding"), max_size=3)
            padded.append([data.draw(pad) + field + data.draw(pad) for field in row])
        twin, doc = ("\n".join(map(",".join, lines)) + "\n" for lines in (plain, padded))
        try:
            expected = parse_table(twin, source="bad.csv")
        except ParseError as error:
            padded_error = self._error(doc)
            assert (padded_error.line, padded_error.field, str(padded_error)) == (
                error.line, error.field, str(error))
        else:
            assert parse_table(doc, source="bad.csv") == expected


# Every str.isspace code point, 29 on 3.10-3.13; a line feed ends a line, so the rest may pad a field.
_WHITESPACE = "".join(filter(str.isspace, map(chr, range(sys.maxunicode + 1))))
_PADDING = _WHITESPACE.replace("\n", "")


def test_every_whitespace_code_point_but_the_space_is_unprintable():
    # parse_table skips the strip of a printable line without U+0020 on this premise.
    assert [char for char in _WHITESPACE if char.isprintable()] == [" "]


# The bracketed-token reader as it was before whole-token patterns: it stays here
# as the oracle that the fast path must agree with, cell for cell and message for message.
# Its number pattern, spelled with ? groups, is also the reference spelling for tableio._NUMBER.
_SPLIT_NUMBER_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?\Z")
_SPLIT_BRACKETED = {
    "[": ("]", "interval", 2, GreyCell),
    "(": (")", "triplet", 3, NeutroCell),
}


def _split_reader(token):
    close, kind, count, cell_type = _SPLIT_BRACKETED[token[:1]]
    if not token.endswith(close):
        raise ValueError(f"malformed {kind} token {token!r}")
    parts = token[1:-1].split(";")
    if len(parts) != count:
        raise ValueError(f"{kind} token {token!r} needs {count} components, got {len(parts)}")
    numbers = []
    for part in parts:
        if not _SPLIT_NUMBER_RE.match(part):
            raise ValueError(f"malformed number {part!r} (nonnegative decimal expected)")
        numbers.append(float(part))
    return cell_type(*numbers)


_numbers = st.one_of(
    st.floats(min_value=0.0, max_value=1.0).map(repr),
    st.from_regex(r"[0-9]{1,3}(\.[0-9]{1,3})?([eE][+-]?[0-9]{1,3})?", fullmatch=True),
)
_components = st.one_of(  # well-formed numbers half the time
    _numbers,
    _numbers,
    st.from_regex(r"[+-]?[0-9]{0,3}(\.[0-9]{0,3})?([eE][+-]?[0-9]{0,3})?", fullmatch=True),
    st.sampled_from((
        "", "0", "1", "0.", ".5", "0.5", "1e400", "1e-400", "nan", "inf", "-0", "+1",
        "1 ", " 1", "0. 5", "٠.٥", "０", "1e٠", "1_0", "0x1", "(", "]",
    )),
)


@st.composite
def _near_bracketed(draw):
    """A bracketed token, often well-formed; else with a wrong count, close or number."""
    opening, closing, count = draw(st.sampled_from((("[", "]", 2), ("(", ")", 3))))
    count = draw(st.one_of(st.just(count), st.integers(min_value=0, max_value=4)))
    closing = draw(st.one_of(
        st.just(closing), st.sampled_from(("", "]", ")", "]]", "))", ");", "]0", " ")),
    ))
    parts = draw(st.lists(_components, min_size=count, max_size=count))
    return opening + ";".join(parts) + closing


class TestBracketedTokens:
    @settings(max_examples=500)
    @given(_near_bracketed())
    def test_same_cell_or_message_as_the_split_reader(self, token):
        try:
            expected = _split_reader(token)
        except ValueError as exc:
            with pytest.raises(ParseError) as excinfo:
                parse_cell(token)
            assert excinfo.value.message == str(exc)
        else:
            cell = parse_cell(token)
            assert cell == expected and repr(cell) == repr(expected)

    def test_every_binary_cell_of_a_value_is_one_object(self):
        """Within a parse, across parses, through parse_cell and in a tabulated soft set."""
        table = parse_table(",e1,e2,e3\nc1,0,1,0\nc2,1,(0;0;1),0\nc3,1,1,1\n")
        tabulated = SoftSet(("x", "y"), ("e1", "e2"), {"e1": {"x"}, "e2": {"y"}}).tabulate()
        for value in (0, 1):
            found = [cell for each in (table, tabulated) for row in each.cells for cell in row
                     if cell == BinCell(value)]
            found += [parse_table(f",e1\nc1,{value}\n").cells[0][0], parse_cell(str(value))]
            assert len(found) >= 7 and all(cell is found[0] for cell in found)


class TestSharingWithinAParse:
    DOC = ",e1,e2,e3\nc1,A,[0.25;0.5],(0.25;0.5;0.125)\nc2,A,B,[0.25;0.5]\nc3,B,(0.5;0.125;0.25),A\n"

    @staticmethod
    def _grades(table):
        return [cell for row in table.cells for cell in row if isinstance(cell, GradeCell)]

    @staticmethod
    def _floats(table):
        return [getattr(cell, field.name) for row in table.cells for cell in row
                if isinstance(cell, (GreyCell, NeutroCell)) for field in dataclasses.fields(cell)]

    def test_equal_labels_share_one_cell_and_equal_numbers_one_float(self):
        table = parse_table(self.DOC)
        for label in "AB":
            found = [cell for cell in self._grades(table) if cell.label == label]
            assert len(found) >= 2 and all(cell is found[0] for cell in found)
        for value in (0.25, 0.5, 0.125):
            found = [number for number in self._floats(table) if number == value]
            assert len(found) >= 2 and all(number is found[0] for number in found)

    def test_nothing_is_shared_between_parses(self):
        first, second = parse_table(self.DOC), parse_table(self.DOC)
        assert first == second
        for objects in (self._grades, self._floats):
            assert not set(map(id, objects(first))) & set(map(id, objects(second)))

    def test_a_pickle_holds_each_shared_cell_once_and_round_trips(self):
        doc = ",e1,e2\n" + "".join(f"c{i},A,good_grade\n" for i in range(50))
        table = parse_table(doc)
        unshared = DecisionTable(table.candidates, table.parameters, tuple(
            tuple(GradeCell(cell.label) for cell in row) for row in table.cells
        ))
        data = pickle.dumps(table)
        assert pickle.loads(data) == table
        assert len(data) < len(pickle.dumps(unshared))

    def test_more_distinct_numbers_than_the_cap_parse_as_cell_by_cell(self):
        rng = random.Random(11)
        rows = [[f"({rng.random()!r};{rng.random()!r};{rng.random()!r})" for _ in range(9)]
                for _ in range(_SHARED_NUMBERS // 27 + 20)]
        for row in rows:
            row += [rows[0][0], "[0.25;0.5]", rng.choice("AB")]  # repeats on both sides of the cap
        doc = ",".join(["", *(f"e{j}" for j in range(12))]) + "\n"
        doc += "".join(f"c{i}," + ",".join(row) + "\n" for i, row in enumerate(rows))
        table = parse_table(doc)
        expected = tuple(tuple(parse_cell(token) for token in row) for row in rows)
        assert table.cells == expected and repr(table.cells) == repr(expected)


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
            GreyCell(0.1, 1 / 3),
            NeutroCell(2 / 3, 1e-7, 0.25),
        ):
            assert parse_cell(format_cell(cell)) == cell

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=2, max_size=2),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3),
    )
    def test_str_of_a_value_is_its_cell_token(self, endpoints, degrees):
        ends = min(endpoints), max(endpoints)
        for value, cell in ((GreyNumber(*ends), GreyCell(*ends)), (Triplet(*degrees), NeutroCell(*degrees))):
            assert parse_cell(str(value)) == cell and format_cell(cell) == str(value)

    @pytest.mark.parametrize("table, culprit", [
        (DecisionTable(("c1",), ("e1",), ((GradeCell("0"),),)), "GradeCell(label='0')"),
        (DecisionTable((" P1",), ("e1",), ((BinCell(1),),)), "' P1'"),
        (DecisionTable(("a b",), ("e1",), ((BinCell(1),),)), "'a b'"),
        (DecisionTable(("c1",), ("e1",), ((NeutroCell(-0.0, 0, 1),),)), "-0.0"),
    ])
    def test_a_table_that_would_read_back_differently_is_refused(self, table, culprit):
        with pytest.raises(ValueError, match=re.escape(culprit)):
            write_table(table)

    def test_binary_matrix_serializes_to_the_same_dialect(self):
        soft = SoftSet(("H1", "H2"), ("cheap", "nice"), {"cheap": {"H1", "H2"}, "nice": {"H2"}})
        doc = write_table(soft.tabulate())
        table = parse_table(doc)
        assert table.candidates == ("H1", "H2")
        assert table.cells == ((BinCell(1), BinCell(0)), (BinCell(1), BinCell(1)))

    def test_a_tabulated_soft_set_reads_back_as_itself(self):
        assert write_table(PLAYERS_SOFT_SET.tabulate()) == (
            ",e1,e2,e3,e4\nP1,1,0,0,0\nP2,1,1,0,0\nP3,0,1,1,0\nP4,0,0,0,1\nP5,0,1,1,0\nP6,1,1,0,0\n"
        )
        rng = random.Random(20261019)
        for _ in range(50):
            universe = tuple(f"x{i}" for i in range(1, rng.randint(1, 8) + 1))
            parameters = tuple(f"e{j}" for j in range(1, rng.randint(1, 6) + 1))
            value_sets = {parameter: {x for x in universe if rng.random() < 0.5} for parameter in parameters}
            table = SoftSet(universe, parameters, value_sets).tabulate()
            assert parse_table(write_table(table)) == table

    @pytest.mark.parametrize("soft", [
        SoftSet((), ("e1",), {}),
        SoftSet(("r1",), (), {}),
    ], ids=("no-rows", "no-columns"))
    def test_a_matrix_without_rows_or_columns_is_refused(self, soft):
        with pytest.raises(ValueError, match="a decision table needs at least one"):
            soft.tabulate()


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
        parsed = parse_scale(write_scale(scale))  # entries stay plain values, not the reader's cells
        assert parsed == scale and all(type(interval) is GreyNumber for _, interval in parsed.entries)

    def test_a_label_the_reader_rejects_is_not_written(self):
        scale = GradeScale((("b c", GreyNumber(0.5, 1.0)),))
        with pytest.raises(ValueError, match="'b c'"):
            write_scale(scale)

    def test_entries_without_a_blank_between_them_are_one_malformed_entry(self):
        with pytest.raises(ParseError) as excinfo:
            parse_scale("A=[0.9;1]x=[0;0.1]")
        assert str(excinfo.value) == (
            "<scale>:1 field 1: malformed scale entry 'A=[0.9;1]x=[0;0.1]' "
            "(expected LABEL=[lower;upper])"
        )

    def test_overlap_is_a_validation_error(self):
        with pytest.raises(ScaleValidationError, match="overlap"):
            parse_scale("A=[0.9;1] B=[0.85;0.95]")

    def test_malformed_entry(self):
        with pytest.raises(ParseError, match="malformed scale entry"):
            parse_scale("A:[0.9;1]")

    def test_an_entry_with_non_ascii_digits_is_malformed(self):
        with pytest.raises(ParseError) as excinfo:
            parse_scale("A=[٠.٨;١]")
        assert str(excinfo.value) == (
            "<scale>:1 field 1: malformed number '٠.٨' (nonnegative decimal expected)"
        )

    def test_empty_document(self):
        with pytest.raises(ParseError, match="empty scale"):
            parse_scale("\n\n")


class TestReports:
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
                    assert dataclasses.astuple(cell) == dataclasses.astuple(score)
