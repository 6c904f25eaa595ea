import random
from fractions import Fraction

import pytest

from specpoly import ExactDivisionError, Poly, rat, rational_sqrt

from oracles import random_poly


def P(*coeffs):
    return Poly(coeffs)


class TestBasics:
    def test_trailing_zeros_stripped(self):
        assert Poly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))

    def test_zero_degree_is_minus_infinity(self):
        assert Poly().degree == float("-inf")
        assert Poly().degree < 0
        assert Poly((0, 0)).is_zero()

    def test_equality_is_value_equality(self):
        assert P(Fraction(1, 2), 1) == P("1/2", Fraction(2, 2))
        assert P(1) != P(1, 1)

    def test_rat_parses_strings(self):
        assert rat("-13/2") == Fraction(-13, 2)
        assert rat(3) == 3
        with pytest.raises(TypeError):
            rat(1.5)

    def test_serialization_round_trip(self):
        p = P("1/3", "-2", "0", "5/7")
        assert Poly.from_strings(p.to_strings()) == p
        assert p.to_strings() == ["1/3", "-2", "0", "5/7"]


class TestArithmetic:
    def test_difference_of_squares(self):
        assert P(1, 1) * P(-1, 1) == P(-1, 0, 1)

    def test_additive_identity(self):
        p = P(2, 0, "1/3")
        assert p + Poly.zero() == p

    def test_square_of_x2_minus_third(self):
        p = P("-1/3", 0, 1)
        expected = P("1/9", 0, "-2/3", 0, 1)
        square = p * p
        assert square == expected
        # cross-check by evaluation at three rational points
        for x in (Fraction(0), Fraction(1, 2), Fraction(-3, 5)):
            assert square(x) == p(x) ** 2

    def test_scalar_multiplication(self):
        assert 2 * P(1, 1) == P(2, 2)
        assert P(1, 1) * Fraction(1, 2) == P("1/2", "1/2")

    def test_power(self):
        assert P(1, 1) ** 3 == P(1, 3, 3, 1)
        assert P(0, 1) ** 0 == Poly.one()

    def test_distributivity_on_random_polys(self):
        rng = random.Random(7)
        for _ in range(25):
            p, q, r = (random_poly(rng, rng.randint(0, 5)) for _ in range(3))
            assert (p + q) * r == p * r + q * r


class TestCalculus:
    def test_second_derivative_power_rule(self):
        assert Poly.monomial(3).derivative(2) == P(0, 6)

    def test_derivative_of_constant(self):
        assert P(5).derivative() == Poly.zero()

    def test_order_exceeding_degree(self):
        assert Poly.monomial(2).derivative(3) == Poly.zero()

    def test_zeroth_derivative_is_identity(self):
        p = P(1, 2, 3)
        assert p.derivative(0) == p

    def test_product_rule_on_random_polys(self):
        rng = random.Random(11)
        for _ in range(25):
            p = random_poly(rng, rng.randint(0, 5))
            q = random_poly(rng, rng.randint(0, 5))
            assert (p * q).derivative() == p.derivative() * q + p * q.derivative()

    def test_definite_integral_examples(self):
        assert Poly.monomial(2).definite_integral(-1, 1) == Fraction(2, 3)
        odd = Poly.x() * P("-1/3", 0, 1)
        assert odd.definite_integral(-1, 1) == 0
        square = P("-1/3", 0, 1) * P("-1/3", 0, 1)
        assert square.definite_integral(-1, 1) == Fraction(8, 45)

    def test_integral_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            Poly.one().definite_integral(1, 0)

    def test_integral_additivity(self):
        rng = random.Random(13)
        for _ in range(20):
            p = random_poly(rng, 4)
            a, b, c = sorted(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3))
            assert p.definite_integral(a, b) + p.definite_integral(b, c) == p.definite_integral(a, c)


class TestEvaluation:
    def test_exact_evaluation(self):
        assert P("-1/3", 0, 1)(1) == Fraction(2, 3)
        assert Poly.zero()(Fraction(17, 3)) == 0

    def test_factor_vanishes_at_one(self):
        psi = P(4, "-2/3", 5)
        product = P(1, -1) * psi  # (1 - t) * psi
        assert product(1) == 0

    def test_float_evaluation(self):
        assert P("-1/3", 0, 1).eval_float(1.0) == pytest.approx(2 / 3)


class TestAffineSubstitution:
    def test_scaling(self):
        assert Poly.monomial(2).affine_sub(2, 0) == P(0, 0, 4)

    def test_complete_the_square(self):
        assert P(2, -2, 1).affine_sub(1, 1) == P(1, 0, 1)

    def test_identity_substitution(self):
        p = P(3, "1/2", 0, 7)
        assert p.affine_sub(1, 0) == p

    def test_composition_inverts(self):
        rng = random.Random(17)
        for _ in range(20):
            p = random_poly(rng, 5)
            s = Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice([1, -1])
            t = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            assert p.affine_sub(s, t).affine_sub(1 / s, -t / s) == p

    def test_rejects_zero_scale(self):
        with pytest.raises(ValueError):
            Poly.one().affine_sub(0, 1)


class TestLinearDivision:
    def test_x_squared_minus_one(self):
        assert P(-1, 0, 1).divide_linear(1) == P(1, 1)

    def test_one_minus_t_by_t_minus_one(self):
        assert P(1, -1).divide_linear(1) == P(-1)

    def test_synthetic_division(self):
        # (1 - t)(t + 2) = -t^2 - t + 2, divided by (t - 1) gives -(t + 2)
        product = P(1, -1) * P(2, 1)
        assert product == P(2, -1, -1)
        assert product.divide_linear(1) == P(-2, -1)

    def test_nonroot_reports_remainder(self):
        with pytest.raises(ExactDivisionError) as err:
            P(-1, 0, 1).divide_linear(2)
        assert err.value.remainder == 3

    def test_divide_then_multiply_round_trips(self):
        rng = random.Random(19)
        for _ in range(20):
            q = random_poly(rng, 4)
            if q.is_zero():
                continue
            root = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            p = q * P(-root, 1)
            assert p.divide_linear(root) * P(-root, 1) == p


class TestStripRoot:
    def test_planted_factors_are_recovered_up_to_the_limit(self):
        rng = random.Random(83)
        checked = 0
        while checked < 60:
            q = random_poly(rng, rng.randint(0, 4))
            root = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if q(root) == 0:  # includes q = 0
                continue
            k = rng.randint(0, 4)
            p = P(-root, 1) ** k * q
            # the exact multiplicity, with room to spare, and every smaller limit
            assert p.strip_root(root, k + rng.randint(0, 3)) == (q, k)
            for limit in range(k):
                assert p.strip_root(root, limit) == (P(-root, 1) ** (k - limit) * q, limit)
            checked += 1

    def test_nonroot_returns_the_polynomial(self):
        assert P(-1, 0, 1).strip_root(2, 5) == (P(-1, 0, 1), 0)
        assert P(3).strip_root(0, 2) == (P(3), 0)

    def test_zero_polynomial_is_divisible_up_to_the_limit(self):
        assert Poly().strip_root(Fraction(1, 2), 3) == (Poly(), 3)
        assert Poly().strip_root(0, 0) == (Poly(), 0)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_pretty_printing():
    assert P("-1/3", 0, 1).pretty() == "x^2 - 1/3"
    assert Poly.zero().pretty() == "0"
    assert P(1, -1).pretty("t") == "-t + 1"
