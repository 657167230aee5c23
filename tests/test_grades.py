import pytest

from softchoice.grades import GradeScale, UnknownGradeError, default_scale
from softchoice.grey import GreyNumber

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

    def test_is_valid(self):
        assert default_scale().validate() == []


class TestLookup:
    def test_unknown_label_raises_a_named_error(self):
        with pytest.raises(UnknownGradeError, match="'E'") as excinfo:
            default_scale()["E"]
        assert excinfo.value.label == "E"
        assert "A, B, C, D, F" in str(excinfo.value)

    def test_membership(self):
        scale = default_scale()
        assert "B" in scale
        assert "Z" not in scale

    def test_labels_are_case_sensitive(self):
        with pytest.raises(UnknownGradeError):
            default_scale()["a"]


class TestValidation:
    def test_overlapping_intervals_reported(self):
        scale = GradeScale((
            ("A", GreyNumber(0.9, 1.0)),
            ("B", GreyNumber(0.85, 0.95)),
        ))
        violations = scale.validate()
        assert any("overlap" in violation for violation in violations)

    def test_alternative_scale_is_valid(self):
        assert ALTERNATIVE_SCALE.validate() == []

    def test_interval_escaping_unit_range_reported(self):
        scale = GradeScale((("A", GreyNumber(0.9, 1.2)), ("B", GreyNumber(0.1, 0.2))))
        assert any("escapes" in violation for violation in scale.validate())

    def test_escaping_interval_message(self):
        scale = GradeScale((("X", GreyNumber(1.2, 1.5)),))
        assert scale.validate() == ["grade 'X' interval [1.2;1.5] escapes [0, 1]"]

    def test_ascending_order_reported(self):
        scale = GradeScale((("F", GreyNumber(0.0, 0.1)), ("A", GreyNumber(0.9, 1.0))))
        assert any("descending" in violation for violation in scale.validate())

    def test_duplicate_labels_reported(self):
        scale = GradeScale((("A", GreyNumber(0.9, 1.0)), ("A", GreyNumber(0.1, 0.2))))
        assert any("duplicate" in violation for violation in scale.validate())

    def test_touching_closed_intervals_count_as_overlap(self):
        scale = GradeScale((("A", GreyNumber(0.5, 1.0)), ("B", GreyNumber(0.0, 0.5))))
        assert any("overlap" in violation for violation in scale.validate())

    def test_validated_scales_map_distinct_labels_to_disjoint_intervals(self):
        for scale in (default_scale(), ALTERNATIVE_SCALE):
            assert scale.validate() == []
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
