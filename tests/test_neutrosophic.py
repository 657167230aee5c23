from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softchoice.neutrosophic import (
    InformationClass,
    Triplet,
    TripletAccumulator,
    add,
    classify_information,
    mean,
    scale,
)

degrees = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)
triplets = st.builds(Triplet, degrees, degrees, degrees)
multiplicities = st.integers(min_value=1, max_value=20)


class TestTriplet:
    @pytest.mark.parametrize("bad", [(-0.1, 0, 0), (0, 1.2, 0), (0, 0, 7)])
    def test_out_of_box_components_rejected(self, bad):
        with pytest.raises(ValueError):
            Triplet(*bad)

    def test_box_corners_allowed(self):
        assert Triplet(1, 1, 1).truth == 1.0
        assert Triplet(0, 0, 0).falsity == 0.0

    def test_accumulator_allows_components_above_one(self):
        big = TripletAccumulator(1.6, 0.3, 2.1)
        assert big.truth == 1.6

    def test_accumulator_rejects_negatives(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TripletAccumulator(-0.2, 0.0, 0.0)

    def test_accumulator_round_trips_boxed_values(self):
        boxed = TripletAccumulator(0.4, 0.075, 0.525).as_triplet()
        assert boxed == Triplet(0.4, 0.075, 0.525)
        with pytest.raises(ValueError):
            TripletAccumulator(1.5, 0.0, 0.0).as_triplet()


class TestAddition:
    def test_componentwise_sum_leaves_the_box(self):
        total = Triplet(0.5, 0.4, 0.1) + Triplet(1, 0, 0)
        assert total == TripletAccumulator(1.5, 0.4, 0.1)

    def test_additive_identity(self):
        assert Triplet(0, 0, 0) + Triplet(0.2, 0.2, 0.6) == TripletAccumulator(0.2, 0.2, 0.6)

    def test_chained_row_sum(self):
        total = Triplet(1, 0, 0) + Triplet(1, 0, 0) + Triplet(0, 0, 1) + Triplet(0.2, 0.2, 0.6)
        # exact rational oracle: 1+1+0+0.2, 0+0+0+0.2, 0+0+1+0.6
        assert total.truth == pytest.approx(2.2, abs=1e-12)
        assert total.indeterminacy == pytest.approx(0.2, abs=1e-12)
        assert total.falsity == pytest.approx(1.6, abs=1e-12)


class TestScaling:
    def test_quarter_of_a_row_sum(self):
        quarter = scale(0.25, TripletAccumulator(1.6, 0.3, 2.1))
        assert quarter == TripletAccumulator(0.4, 0.075, 0.525)

    def test_scalar_identity(self):
        assert scale(1.0, Triplet(0.7, 0.1, 0.4)) == TripletAccumulator(0.7, 0.1, 0.4)

    def test_halving_matches_exact_rational_arithmetic(self):
        half = 0.5 * TripletAccumulator(0.2, 0.4, 0.8)
        assert half.truth == float(Fraction(0.5) * Fraction(0.2))
        assert half == TripletAccumulator(0.1, 0.2, 0.4)

    @pytest.mark.parametrize("k", [0.0, -2.0])
    def test_non_positive_scalar_rejected(self, k):
        with pytest.raises(ValueError, match="positive"):
            scale(k, Triplet(0.5, 0.5, 0.5))


class TestMean:
    def test_row_with_repeated_absent_cells(self):
        value = mean([(Triplet(1, 0, 0), 1), (Triplet(0, 0, 1), 2), (Triplet(0.6, 0.3, 0.1), 1)])
        assert value.truth == pytest.approx(0.4, abs=1e-12)
        assert value.indeterminacy == pytest.approx(0.075, abs=1e-12)
        assert value.falsity == pytest.approx(0.525, abs=1e-12)

    def test_single_item_any_multiplicity_returns_it_exactly(self):
        item = Triplet(0.7, 0.1, 0.4)
        assert mean([(item, 5)]) == item

    def test_mostly_present_row(self):
        # exact rational oracle over ((1,0,0) x2, (0,0,1), (0.2,0.2,0.6));
        # the middle component is 0.2/4 = 0.05 (not 0.005, as this example
        # is sometimes transcribed)
        value = mean([(Triplet(1, 0, 0), 2), (Triplet(0, 0, 1), 1), (Triplet(0.2, 0.2, 0.6), 1)])
        assert value.truth == pytest.approx(0.55, abs=1e-12)
        assert value.indeterminacy == pytest.approx(0.05, abs=1e-12)
        assert value.falsity == pytest.approx(0.4, abs=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            mean([])

    @pytest.mark.parametrize("count", [0, -1])
    def test_non_positive_multiplicity_rejected(self, count):
        with pytest.raises(ValueError, match="multiplicity"):
            mean([(Triplet(1, 0, 0), count)])

    def test_non_integer_multiplicity_rejected(self):
        with pytest.raises(TypeError, match="multiplicity"):
            mean([(Triplet(1, 0, 0), 1.5)])


class TestClassification:
    def test_overcommitted_judgement_is_inconsistent(self):
        assert classify_information(Triplet(0.7, 0.1, 0.4)) is InformationClass.INCONSISTENT

    def test_unit_sum_is_complete(self):
        assert classify_information(Triplet(1, 0, 0)) is InformationClass.COMPLETE

    def test_short_sum_is_incomplete(self):
        assert classify_information(Triplet(0.3, 0.2, 0.4)) is InformationClass.INCOMPLETE

    def test_total_ignorance_still_sums_to_one(self):
        # (0, 1, 0) reads as knowing nothing, yet the sum rule files it as
        # complete; the rule is applied literally.
        assert classify_information(Triplet(0, 1, 0)) is InformationClass.COMPLETE

    def test_epsilon_widens_the_complete_band(self):
        nearly = Triplet(0.5, 0.25, 0.25 + 1e-12)
        assert classify_information(nearly, epsilon=1e-9) is InformationClass.COMPLETE
        assert classify_information(nearly, epsilon=1e-15) is InformationClass.INCONSISTENT

    def test_non_positive_epsilon_rejected(self):
        with pytest.raises(ValueError):
            classify_information(Triplet(1, 0, 0), epsilon=0.0)

    def test_int_epsilon_beyond_the_float_range_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            classify_information(Triplet(1, 0, 0), epsilon=10**400)


class TestAlgebraicLaws:
    @settings(max_examples=300)
    @given(triplets, triplets)
    def test_addition_commutes(self, a, b):
        assert add(a, b) == add(b, a)

    @settings(max_examples=300)
    @given(triplets, triplets, triplets)
    def test_addition_associates(self, a, b, c):
        left = add(add(a, b), c)
        right = add(a, add(b, c))
        for name in ("truth", "indeterminacy", "falsity"):
            assert getattr(left, name) == pytest.approx(getattr(right, name), abs=1e-12)

    @settings(max_examples=300)
    @given(st.lists(st.tuples(triplets, multiplicities), min_size=1, max_size=6))
    def test_mean_stays_within_componentwise_bounds(self, items):
        value = mean(items)
        for name in ("truth", "indeterminacy", "falsity"):
            values = [getattr(triplet, name) for triplet, _ in items]
            assert min(values) <= getattr(value, name) <= max(values)

    @settings(max_examples=300)
    @given(triplets, multiplicities)
    def test_mean_of_one_item_is_exact(self, item, count):
        assert mean([(item, count)]) == item

    @settings(max_examples=300)
    @given(st.lists(st.tuples(triplets, multiplicities), min_size=1, max_size=5), st.data())
    def test_mean_ignores_multiplicity_splits(self, items, data):
        split = []
        for triplet, count in items:
            if count > 1:
                cut = data.draw(st.integers(min_value=1, max_value=count - 1))
                split.extend([(triplet, cut), (triplet, count - cut)])
            else:
                split.append((triplet, count))
        whole = mean(items)
        parts = mean(split)
        for name in ("truth", "indeterminacy", "falsity"):
            assert getattr(whole, name) == pytest.approx(getattr(parts, name), abs=1e-12)

    @settings(max_examples=300)
    @given(triplets)
    def test_classification_partitions_every_triplet(self, triplet):
        outcome = classify_information(triplet)
        total = triplet.truth + triplet.indeterminacy + triplet.falsity
        expected = (
            InformationClass.COMPLETE if abs(total - 1.0) <= 1e-9
            else InformationClass.INCOMPLETE if total < 1.0
            else InformationClass.INCONSISTENT
        )
        assert outcome is expected
