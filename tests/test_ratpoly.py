import math
import random
from fractions import Fraction

import pytest

from specpoly import Poly, rat, rational_sqrt
from specpoly.ratpoly import common_denominator

from oracles import (
    random_poly,
    ref_add,
    ref_affine_sub,
    ref_call,
    ref_derivative,
    ref_mul,
    ref_pow,
    ref_strip_root,
    ref_sub,
)


def P(*coeffs):
    return Poly(coeffs)


class TestBasics:
    def test_trailing_zeros_stripped(self):
        assert Poly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))

    def test_constructor_coerces_every_rational_form(self):
        # a plain Fraction is stored as given, every other form goes through rat,
        # which keeps a Fraction subclass and turns int and "p/q" into Fraction
        class Sub(Fraction):
            pass

        half, third = Fraction(1, 2), Sub(1, 3)
        p = P(half, 3, "-5/7", third, 0, Fraction(0), "0/4", Sub(0), 0)
        assert p.coeffs == (Fraction(1, 2), Fraction(3), Fraction(-5, 7), Fraction(1, 3))
        assert [type(c) for c in p.coeffs] == [Fraction, Fraction, Fraction, Sub]
        assert p.coeffs[0] is half and p.coeffs[3] is third
        assert P(0, Fraction(0), "0", Sub(0)).coeffs == ()
        with pytest.raises(TypeError):
            P(Fraction(1), 1.5)

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


class TestStripRoot:
    def test_synthetic_division(self):
        # (1 - t)(t + 2) = -t^2 - t + 2, divided by (t - 1) gives -(t + 2)
        product = P(1, -1) * P(2, 1)
        assert product == P(2, -1, -1)
        assert product.strip_root(1, 1) == (P(-2, -1), 1)
        assert P(-1, 0, 1).strip_root(1, 1) == (P(1, 1), 1)
        assert P(1, -1).strip_root(1, 1) == (P(-1), 1)

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


def mixed_coeffs(rng: random.Random, max_degree: int) -> tuple[Fraction, ...]:
    """Reduced Fractions over mixed denominators, some zero, no trailing zero."""
    cs = [
        Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 6, 7, 9, 10, 12))) if rng.random() < 0.8 else Fraction(0)
        for _ in range(rng.randint(0, max_degree + 1))
    ]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def assert_canonical(p: Poly, ref: tuple[Fraction, ...]) -> None:
    """p is ref, in the integer form: den > 0, no trailing zero, gcd(den, *nums) = 1."""
    assert p.coeffs == ref
    assert type(p.den) is int and p.den > 0 and all(type(v) is int for v in p.nums)
    assert not p.nums or p.nums[-1] != 0
    assert math.gcd(p.den, *p.nums) == 1
    assert (p.den, list(p.nums)) == common_denominator(p.coeffs)
    assert p == Poly(ref) and hash(p) == hash(Poly(ref))


class TestIntegerForm:
    def test_arithmetic_matches_the_fraction_reference(self):
        rng = random.Random(24)
        for _ in range(150):
            a, b = mixed_coeffs(rng, 5), mixed_coeffs(rng, 5)
            p, q = Poly(a), Poly(b)
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 8))
            k = rng.randint(0, 4)
            s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 6))
            t = Fraction(rng.randint(-7, 7), rng.randint(1, 6))
            root = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5)))
            planted = ref_mul(ref_pow((-root, Fraction(1)), rng.randint(0, 3)), a)
            results = [
                (p + q, ref_add(a, b)),
                (p - q, ref_sub(a, b)),
                (-p, ref_sub((), a)),
                (p * q, ref_mul(a, b)),
                (p * c, ref_mul(a, (c,) if c else ())),
                (p**k, ref_pow(a, k)),
                (p.derivative(), ref_derivative(a)),
                (p.derivative(2), ref_derivative(ref_derivative(a))),
                (p.affine_sub(s, t), ref_affine_sub(a, s, t)),
            ]
            for coeffs in (a, planted):
                limit = rng.randint(0, 4)
                stripped, mult = Poly(coeffs).strip_root(root, limit)
                ref_stripped, ref_mult = ref_strip_root(coeffs, root, limit)
                assert mult == ref_mult
                results.append((stripped, ref_stripped))
            for result, ref in results:
                assert_canonical(result, ref)
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            assert p(x) == ref_call(a, x) and type(p(x)) is Fraction

    def test_one_form_and_hash_from_every_constructor(self):
        rng = random.Random(25)
        for _ in range(100):
            a = mixed_coeffs(rng, 6)
            den, nums = common_denominator(a)
            scale = rng.randint(2, 30)  # a common factor _from_ints must take out
            forms = [
                Poly(a),
                Poly.from_strings([str(c) for c in a]),
                Poly._from_ints(den * scale, [v * scale for v in nums] + [0] * rng.randint(0, 2)),
            ]
            for p in forms:
                assert_canonical(p, a)
                assert (p.den, p.nums) == (forms[0].den, forms[0].nums)
                assert p == forms[0] and hash(p) == hash(forms[0])
