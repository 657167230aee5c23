from fractions import Fraction

import pytest

from softchoice.grey import GreyNumber
from softchoice.neutrosophic import Triplet


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

    @pytest.mark.parametrize("left, right", [
        pytest.param(GreyNumber(0.1, 0.2), GreyNumber(0.3, 0.4), id="grey-by-grey"),
        pytest.param(Triplet(0.1, 0.2, 0.3), Triplet(0.4, 0.5, 0.6), id="triplet-by-triplet"),
        pytest.param(GreyNumber(0.1, 0.2), Triplet(0.4, 0.5, 0.6), id="grey-by-triplet"),
    ])
    def test_a_value_times_a_value_is_rejected(self, left, right):
        # * is scale, for grey numbers as for triplets, so the right operand is the scalar.
        with pytest.raises(TypeError) as excinfo:
            left * right
        assert str(excinfo.value) == f"scalar must be a real number, got {type(right).__name__}"


class TestMidpoint:
    def test_good_interval(self):
        assert GreyNumber(0.6, 0.74).midpoint() == pytest.approx(0.67, abs=1e-12)

    def test_degenerate_zero(self):
        assert GreyNumber(0.0, 0.0).midpoint() == 0.0

    def test_not_satisfactory_interval(self):
        assert GreyNumber(0.0, 0.49).midpoint() == pytest.approx(0.245, abs=1e-12)

