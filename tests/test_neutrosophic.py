import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softchoice.engine import NeutroCell
from softchoice.grey import GreyNumber
from softchoice.neutrosophic import (
    InformationClass,
    Triplet,
    TripletAccumulator,
    classify_information,
    mean,
)

degrees = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)
triplets = st.builds(Triplet, degrees, degrees, degrees)
multiplicities = st.integers(min_value=1, max_value=20)

# Components that stress exact accumulation: the two embedded corners, the
# 3-decimal values of real tables, subnormals and their multiples, and
# values whose binary exponents lie far apart.
hard_degrees = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.integers(min_value=0, max_value=1000).map(lambda n: n / 1000),
    st.integers(min_value=1, max_value=2**20).map(lambda n: n * 5e-324),
    st.builds(
        math.ldexp,
        st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
        st.integers(min_value=-1074, max_value=0),
    ),
    degrees,
)
hard_triplets = st.builds(Triplet, hard_degrees, hard_degrees, hard_degrees)
huge_multiplicities = st.one_of(multiplicities, st.integers(min_value=1, max_value=10**30))
# Powers of two and the floats just below them put a sum on, or just beside, a rounding tie.
powers_of_two = st.integers(min_value=-1074, max_value=0).map(lambda j: math.ldexp(1.0, j))
near_tie_degrees = st.one_of(
    powers_of_two, powers_of_two.map(lambda x: math.nextafter(x, 0.0)), hard_degrees,
)
near_tie_triplets = st.builds(Triplet, near_tie_degrees, near_tie_degrees, near_tie_degrees)


def fraction_mean(items):
    """The exact weighted mean of each component, rounded to a float once."""
    total = sum(count for _, count in items)
    return tuple(
        float(sum(count * Fraction(getattr(triplet, name)) for triplet, count in items) / total)
        for name in ("truth", "indeterminacy", "falsity")
    )


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


class TestHierarchy:
    """A ``Triplet`` is a ``TripletAccumulator`` narrowed to the unit box; sums and scalings leave it."""

    @settings(max_examples=200)
    @given(triplets)
    def test_a_triplet_is_an_accumulator_that_reads_back_as_itself(self, t):
        assert isinstance(t, TripletAccumulator)
        boxed = t.as_triplet()
        assert type(boxed) is Triplet and boxed == t

    @settings(max_examples=200)
    @given(triplets, triplets, st.floats(min_value=0.0, max_value=4.0, exclude_min=True))
    def test_sums_and_scalings_are_accumulators_never_triplets(self, t, u, k):
        for value in (t + u, k * t, t * k, t.scale(k)):
            assert type(value) is TripletAccumulator

    @settings(max_examples=200)
    @given(triplets, st.floats(min_value=1.0, max_value=2.0, exclude_min=True), st.integers(0, 2))
    def test_an_accumulator_above_one_is_refused_where_a_triplet_is_expected(self, t, above, at):
        components = [t.truth, t.indeterminacy, t.falsity]
        components[at] = above
        value = TripletAccumulator(*components)
        with pytest.raises(TypeError, match=r"^mean expects Triplet values, got TripletAccumulator$"):
            mean([(value, 1)])
        with pytest.raises(ValueError, match=rf"^{NeutroCell._labels[at]} must lie in \[0, 1\], got "):
            NeutroCell(*components)
        with pytest.raises(TypeError, match=r"^expected a Triplet, got TripletAccumulator$"):
            classify_information(value)


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
        quarter = TripletAccumulator(1.6, 0.3, 2.1).scale(0.25)
        assert quarter == TripletAccumulator(0.4, 0.075, 0.525)

    def test_scalar_identity(self):
        assert Triplet(0.7, 0.1, 0.4).scale(1.0) == TripletAccumulator(0.7, 0.1, 0.4)

    def test_halving_matches_exact_rational_arithmetic(self):
        half = 0.5 * TripletAccumulator(0.2, 0.4, 0.8)
        assert half.truth == float(Fraction(0.5) * Fraction(0.2))
        assert half == TripletAccumulator(0.1, 0.2, 0.4)

    @pytest.mark.parametrize("k", [0.0, -2.0])
    def test_non_positive_scalar_rejected(self, k):
        with pytest.raises(ValueError, match="positive"):
            Triplet(0.5, 0.5, 0.5).scale(k)


class TestMean:
    def test_row_with_repeated_absent_cells(self):
        value = mean([(Triplet(1, 0, 0), 1), (Triplet(0, 0, 1), 2), (Triplet(0.6, 0.3, 0.1), 1)])
        assert value.truth == pytest.approx(0.4, abs=1e-12)
        assert value.indeterminacy == pytest.approx(0.075, abs=1e-12)
        assert value.falsity == pytest.approx(0.525, abs=1e-12)

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
        """After a sound entry, so that the empty-mean error cannot stand in for this one."""
        with pytest.raises(ValueError, match=f"^multiplicity must be >= 1, got {count}$"):
            mean([(Triplet(1, 0, 0), 1), (Triplet(0, 0, 1), count)])

    def test_non_integer_multiplicity_rejected(self):
        with pytest.raises(TypeError, match="multiplicity"):
            mean([(Triplet(1, 0, 0), 1.5)])

    @pytest.mark.parametrize("entry", [Triplet(1, 0, 0), (Triplet(1, 0, 0),), 7])
    def test_non_pair_entry_rejected(self, entry):
        with pytest.raises(TypeError, match=r"mean expects \(triplet, multiplicity\) pairs"):
            mean([entry])

    def test_accumulator_value_rejected(self):
        with pytest.raises(TypeError, match="mean expects Triplet values, got TripletAccumulator"):
            mean([(TripletAccumulator(0.5, 0.5, 0.5), 1)])

    @settings(max_examples=400)
    @given(st.lists(st.tuples(hard_triplets, huge_multiplicities), min_size=1, max_size=8))
    @example([(Triplet(5e-324, 1.0, 0.0), 10**30), (Triplet(0.001, 0.0, 2.0**-1000), 3)])
    def test_matches_the_fraction_oracle_bit_for_bit(self, items):
        """Exact and rounded once, hence within the items' bounds, exact on repeats, blind to splits."""
        value = mean(items)
        assert (value.truth, value.indeterminacy, value.falsity) == fraction_mean(items)

    @settings(max_examples=400)
    @given(st.lists(near_tie_triplets, min_size=1, max_size=8))
    @example([Triplet(x, x, x) for x in (0.582, 0.867, 0.821)])  # s1 / n is one ulp above the mean
    # Just above the tie 0.5 + 2**-54: s1 + s2 and the band's low end round down to 0.5.
    @example([Triplet(x, x, x) for x in (1.0, 1.0, 2**-52, 2**-500)])
    # Just below the tie 0.25 + 2**-55: the mean rounds down to 0.25, and the band's high end up.
    @example([Triplet(x, x, x) for x in (1.0, math.nextafter(2**-53, 0), math.nextafter(2**-106, 0), 0.0)])
    def test_unit_multiplicities_near_a_tie_match_the_fraction_oracle(self, triplets):
        """The band of two fsums, or the integer path where it holds a tie, rounds the exact mean once."""
        items = [(triplet, 1) for triplet in triplets]
        value = mean(items)
        assert (value.truth, value.indeterminacy, value.falsity) == fraction_mean(items)


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
        # Dyadic, so the sum 0.875 and its distance 0.125 from 1 are exact: the band is closed.
        dyadic = Triplet(0.5, 0.25, 0.125)
        assert classify_information(dyadic, epsilon=0.125) is InformationClass.COMPLETE
        assert classify_information(dyadic, epsilon=math.nextafter(0.125, 0)) is InformationClass.INCOMPLETE

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
        assert a + b == b + a

    @settings(max_examples=300)
    @given(triplets, triplets, triplets)
    def test_addition_associates(self, a, b, c):
        left = (a + b) + c
        right = a + (b + c)
        for name in ("truth", "indeterminacy", "falsity"):
            assert getattr(left, name) == pytest.approx(getattr(right, name), abs=1e-12)

    @settings(max_examples=300)
    @given(
        st.one_of(
            triplets,
            st.builds(TripletAccumulator, *[st.floats(min_value=0.0, max_value=1e6)] * 3),
            st.tuples(*[st.floats(min_value=-1e6, max_value=1e6)] * 2).map(
                lambda ends: GreyNumber(min(ends), max(ends))
            ),
        ),
        st.floats(min_value=0.0, max_value=1e6, exclude_min=True),
    )
    def test_triplets_and_grey_numbers_scale_alike(self, value, k):
        assert value.scale(k) == k * value == value * k

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
