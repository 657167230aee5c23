import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softchoice.grades import GradeScale, ScaleValidationError, UnknownGradeError, default_scale
from softchoice.grey import GreyNumber
from softchoice.tableio import parse_scale

ALTERNATIVE_SCALE = GradeScale((
    ("A", GreyNumber(0.9, 1.0)),
    ("B", GreyNumber(0.8, 0.89)),
    ("C", GreyNumber(0.7, 0.79)),
    ("D", GreyNumber(0.6, 0.69)),
    ("F", GreyNumber(0.0, 0.59)),
))


class TestDefaultScale:
    def test_five_entries_in_descending_order(self):
        assert default_scale().labels == ("A", "B", "C", "D", "F")

    def test_good_and_failing_intervals(self):
        scale = default_scale()
        assert scale["C"] == GreyNumber(0.6, 0.74)
        assert scale["F"] == GreyNumber(0.0, 0.49)

    def test_top_and_mediocre_intervals(self):
        scale = default_scale()
        assert scale["A"] == GreyNumber(0.85, 1.0)
        assert scale["D"] == GreyNumber(0.5, 0.59)


class TestLookup:
    def test_unknown_label_raises_a_named_error(self):
        with pytest.raises(UnknownGradeError, match="'E'") as excinfo:
            default_scale()["E"]
        assert excinfo.value.label == "E"
        assert "A, B, C, D, F" in str(excinfo.value)

    def test_a_lookup_outside_a_table_names_no_cell(self):
        with pytest.raises(UnknownGradeError) as excinfo:
            default_scale()["E"]
        assert excinfo.value.cell is None
        assert str(excinfo.value) == "unknown grade 'E'; the scale defines A, B, C, D, F"

    def test_membership(self):
        scale = default_scale()
        assert "B" in scale
        assert "Z" not in scale

    def test_labels_are_case_sensitive(self):
        with pytest.raises(UnknownGradeError):
            default_scale()["a"]

    def test_a_non_label_is_not_a_member(self):
        assert ["A"] not in default_scale()
        with pytest.raises(UnknownGradeError):
            default_scale()[["A"]]

    def test_equality_and_repr_see_only_the_entries(self):
        assert default_scale() == GradeScale(default_scale().entries)
        assert repr(default_scale()).startswith("GradeScale(entries=((")


# Entries that break the rules, and every violation their construction names, in order.
_BROKEN = [
    pytest.param((("A", GreyNumber(0.9, 1.0)), ("B", GreyNumber(0.85, 0.95))),
                 ["grades 'A' and 'B' overlap"], id="overlap"),
    pytest.param((("A", GreyNumber(0.5, 1.0)), ("B", GreyNumber(0.0, 0.5))),
                 ["grades 'A' and 'B' overlap"], id="touching-intervals-overlap"),
    pytest.param((("A", GreyNumber(0.9, 1.2)), ("B", GreyNumber(0.1, 0.2))),
                 ["grade 'A' interval [0.9;1.2] escapes [0, 1]"], id="escapes-above"),
    pytest.param((("X", GreyNumber(1.2, 1.5)),),
                 ["grade 'X' interval [1.2;1.5] escapes [0, 1]"], id="escapes-alone"),
    pytest.param((("F", GreyNumber(0.0, 0.1)), ("A", GreyNumber(0.9, 1.0))),
                 ["grades 'F' and 'A' are not in strictly descending order of lower endpoint"],
                 id="ascending"),
    pytest.param((("A", GreyNumber(0.5, 1.0)), ("B", GreyNumber(0.5, 0.6))),
                 ["grades 'A' and 'B' are not in strictly descending order of lower endpoint",
                  "grades 'A' and 'B' overlap"], id="equal-lower-endpoints"),
    pytest.param((("A", GreyNumber(0.9, 1.0)), ("A", GreyNumber(0.1, 0.2))),
                 ["duplicate grade label 'A'"], id="duplicate-label"),
    pytest.param((("A", GreyNumber(0.8, 1.0)), ("B", GreyNumber(0.6, 0.8)), ("C", GreyNumber(0.5, 0.7))),
                 ["grades 'A' and 'B' overlap", "grades 'B' and 'C' overlap"],
                 id="overlaps-in-scale-order"),
    pytest.param((("A", GreyNumber(0.5, 0.6)), ("B", GreyNumber(0.4, 0.45)), ("C", GreyNumber(0.0, 1.0))),
                 ["grades 'B' and 'C' overlap"], id="overlap-through-a-neighbour"),
    pytest.param((("A", GreyNumber(0.5, 1.0)), ("A", GreyNumber(-0.5, 0.7)), ("B", GreyNumber(0.6, 0.9))),
                 ["duplicate grade label 'A'", "grade 'A' interval [-0.5;0.7] escapes [0, 1]",
                  "grades 'A' and 'B' are not in strictly descending order of lower endpoint",
                  "grades 'A' and 'B' overlap", "grades 'A' and 'A' overlap"], id="every-rule-in-rule-order"),
]


class TestValidation:
    @pytest.mark.parametrize("entries, violations", _BROKEN)
    def test_a_broken_scale_is_not_built(self, entries, violations):
        with pytest.raises(ScaleValidationError) as excinfo:
            GradeScale(entries)
        assert list(excinfo.value.violations) == violations
        assert str(excinfo.value) == "invalid grade scale: " + "; ".join(violations)

    @settings(max_examples=300)
    @given(st.lists(
        st.tuples(
            st.sampled_from("ABCDE"),
            st.tuples(*[st.integers(min_value=0, max_value=8).map(lambda n: n / 8)] * 2),
        ),
        min_size=1, max_size=8,
    ))
    def test_an_overlap_is_reported_exactly_when_some_pair_overlaps(self, drawn):
        entries = [(label, GreyNumber(min(ends), max(ends))) for label, ends in drawn]
        pairwise = any(
            a.lower <= b.upper and b.lower <= a.upper
            for i, (_, a) in enumerate(entries) for _, b in entries[i + 1:]
        )
        try:
            GradeScale(tuple(entries))
        except ScaleValidationError as exc:
            reported = exc.violations
        else:
            reported = ()
        assert any(violation.endswith(" overlap") for violation in reported) == pairwise

    def test_a_large_invalid_scale_gets_a_linear_size_message(self):
        with pytest.raises(ScaleValidationError) as excinfo:
            parse_scale("Lk=[0;1] " * 2000)
        assert len(str(excinfo.value)) < 1_000_000

    def test_validated_scales_map_distinct_labels_to_disjoint_intervals(self):
        for scale in (default_scale(), ALTERNATIVE_SCALE):
            entries = scale.entries
            for i, (_, a) in enumerate(entries):
                assert 0.0 <= a.lower <= a.upper <= 1.0
                for _, b in entries[i + 1:]:
                    assert a.lower > b.upper or b.lower > a.upper


class TestConstruction:
    def test_empty_scale_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            GradeScale(())

    def test_non_interval_entry_rejected(self):
        with pytest.raises(TypeError):
            GradeScale((("A", 0.9),))

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            GradeScale((("", GreyNumber(0.0, 1.0)),))
