import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softchoice.grey import GreyNumber

# Magnitudes kept small enough that float rounding stays far below the
# 1e-12 tolerances asserted on the algebraic laws.
endpoints = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)
scalars = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def grey_numbers(draw):
    a = draw(endpoints)
    b = draw(endpoints)
    return GreyNumber(min(a, b), max(a, b))


class TestConstruction:
    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValueError, match="lower"):
            GreyNumber(0.8, 0.2)

    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"), -float("inf"),
        pytest.param(10**400, id="int-above-float-range"),
        pytest.param(-10**400, id="int-below-float-range"),
    ])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GreyNumber(bad, 1.0)
        with pytest.raises(ValueError):
            GreyNumber(0.0, bad)

    def test_non_numeric_rejected(self):
        with pytest.raises(TypeError):
            GreyNumber("0.1", 0.5)

    def test_degenerate_interval_is_a_crisp_number(self):
        crisp = GreyNumber(0.3, 0.3)
        assert crisp.midpoint() == 0.3
        assert crisp.width() == 0.0

    def test_ints_coerce_to_floats(self):
        interval = GreyNumber(0, 1)
        assert isinstance(interval.lower, float) and isinstance(interval.upper, float)


class TestAddition:
    def test_good_plus_mediocre(self):
        # forced by the worked grey scores: the accumulated interval must be
        # [1.1, 1.33] for the 3.215 row to come out
        total = GreyNumber(0.6, 0.74) + GreyNumber(0.5, 0.59)
        assert total.lower == pytest.approx(1.1, abs=1e-12)
        assert total.upper == pytest.approx(1.33, abs=1e-12)

    def test_additive_identity(self):
        interval = GreyNumber(0.3, 0.8)
        assert interval + GreyNumber(0.0, 0.0) == interval

    def test_sum_matches_exact_rational_arithmetic(self):
        total = GreyNumber(0.1, 0.2) + GreyNumber(0.25, 0.5)
        assert total.lower == float(Fraction(0.1) + Fraction(0.25))  # 0.35
        assert total.upper == float(Fraction(0.2) + Fraction(0.5))  # 0.7
        assert total.lower == pytest.approx(0.35, abs=1e-12)
        assert total.upper == pytest.approx(0.7, abs=1e-12)

    def test_non_interval_operand_rejected(self):
        with pytest.raises(TypeError):
            GreyNumber(0.0, 1.0) + 0.5


class TestScaling:
    def test_doubling_good(self):
        # forced by the worked grey scores: 2C must be [1.2, 1.48]
        doubled = GreyNumber(0.6, 0.74).scale(2.0)
        assert doubled.lower == pytest.approx(1.2, abs=1e-12)
        assert doubled.upper == pytest.approx(1.48, abs=1e-12)

    def test_scalar_identity(self):
        interval = GreyNumber(0.4, 0.9)
        assert interval.scale(1.0) == interval
        assert 1.0 * interval == interval

    def test_halving_matches_exact_rational_arithmetic(self):
        halved = 0.5 * GreyNumber(0.2, 0.6)
        assert halved.lower == float(Fraction(0.5) * Fraction(0.2))  # 0.1
        assert halved.upper == float(Fraction(0.5) * Fraction(0.6))  # 0.3

    @pytest.mark.parametrize("k", [0.0, -1.0, -0.5])
    def test_non_positive_scalar_rejected(self, k):
        with pytest.raises(ValueError, match="positive"):
            GreyNumber(0.1, 0.2).scale(k)

    def test_interval_by_interval_product_rejected(self):
        with pytest.raises(TypeError, match="not supported"):
            GreyNumber(0.1, 0.2) * GreyNumber(0.3, 0.4)


class TestMidpoint:
    def test_good_interval(self):
        assert GreyNumber(0.6, 0.74).midpoint() == pytest.approx(0.67, abs=1e-12)

    def test_degenerate_zero(self):
        assert GreyNumber(0.0, 0.0).midpoint() == 0.0

    def test_not_satisfactory_interval(self):
        assert GreyNumber(0.0, 0.49).midpoint() == pytest.approx(0.245, abs=1e-12)


class TestAlgebraicLaws:
    @settings(max_examples=300)
    @given(grey_numbers(), grey_numbers())
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @settings(max_examples=300)
    @given(grey_numbers(), grey_numbers(), grey_numbers())
    def test_addition_associates(self, a, b, c):
        left = (a + b) + c
        right = a + (b + c)
        assert left.lower == pytest.approx(right.lower, abs=1e-12)
        assert left.upper == pytest.approx(right.upper, abs=1e-12)

    @settings(max_examples=300)
    @given(grey_numbers(), grey_numbers())
    def test_midpoint_distributes_over_addition(self, a, b):
        assert (a + b).midpoint() == pytest.approx(a.midpoint() + b.midpoint(), abs=1e-12)

    @settings(max_examples=300)
    @given(scalars, grey_numbers())
    def test_midpoint_commutes_with_scaling(self, k, a):
        assert a.scale(k).midpoint() == pytest.approx(k * a.midpoint(), abs=1e-12)

    @settings(max_examples=300)
    @given(scalars, grey_numbers())
    def test_scaling_scales_the_width(self, k, a):
        assert a.scale(k).width() == pytest.approx(k * a.width(), abs=1e-12)

    @settings(max_examples=300)
    @given(grey_numbers(), grey_numbers())
    def test_sum_is_a_valid_interval(self, a, b):
        total = a + b
        assert total.lower <= total.upper
        assert math.isfinite(total.lower) and math.isfinite(total.upper)
