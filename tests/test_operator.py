import random
from fractions import Fraction
from math import lcm, perm

import pytest

from specpoly import (
    DegreeViolation,
    DiffOperator,
    EmptyOperator,
    FamilySpec,
    Poly,
    build_operator,
)

from oracles import random_operator, random_poly


def P(*coeffs):
    return Poly(coeffs)


D2 = DiffOperator([Poly(), Poly(), Poly.one()])
LEGENDRE = build_operator(FamilySpec.jacobi(-1, -2, 0))
CHAUDHRY_QADIR = build_operator(FamilySpec.chaudhry_qadir())


class TestValidation:
    def test_pure_second_derivative(self):
        op = DiffOperator([P(0), P(0), P(1)])
        assert op.order == 2

    def test_degree_violation_identifies_k(self):
        with pytest.raises(DegreeViolation) as err:
            DiffOperator([Poly(), Poly((0, 0, 1))])
        assert err.value.k == 1
        assert err.value.deg == 2

    def test_jacobi_type_coefficients_valid(self):
        op = DiffOperator([Poly(), P(0, -2), P(1, 0, -1)])
        assert op.order == 2
        assert op == LEGENDRE

    def test_empty_operator_rejected(self):
        with pytest.raises(EmptyOperator):
            DiffOperator([Poly(), Poly()])

    def test_trailing_zero_coefficients_dropped(self):
        op = DiffOperator([P(1), Poly(), Poly()])
        assert op.order == 0

    def test_json_round_trip(self):
        op = CHAUDHRY_QADIR
        assert DiffOperator.from_json(op.to_json()) == op

    def test_json_accepts_numbers(self):
        assert DiffOperator.from_json({"a": [[0], [0, -2], [1, 0.0, "-1"]]}) == LEGENDRE

    @pytest.mark.parametrize("data, named", [
        ({"a": 5}, "5"),
        ({"a": [[None]]}, "[None]"),
        ({"a": [["0"], ["1/0"]]}, "['1/0']"),
        ({"a": [["x"]]}, "['x']"),
    ])
    def test_malformed_json_is_value_error_naming_the_item(self, data, named):
        with pytest.raises(ValueError) as err:
            DiffOperator.from_json(data)
        assert f"{named} is not a list of rationals" in str(err.value)


class TestApply:
    def test_second_derivative_of_cubic(self):
        assert D2.apply(Poly((0, 0, 0, 1))) == P(0, 6)

    def test_legendre_type_on_x_squared(self):
        assert LEGENDRE.apply(Poly((0, 0, 1))) == P(2, 0, -6)

    def test_chaudhry_qadir_on_one_minus_t(self):
        # eigenfunction: L(1-t) = -(1-t), confirming eigenvalue -1
        assert CHAUDHRY_QADIR.apply(P(1, -1)) == P(-1, 1)

    def test_linearity(self):
        rng = random.Random(23)
        for _ in range(20):
            op = random_operator(rng, 4)
            p = random_poly(rng, 6)
            q = random_poly(rng, 6)
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            assert op.apply(p + q) == op.apply(p) + op.apply(q)
            assert op.apply(c * p) == c * op.apply(p)

    def test_degree_preservation(self):
        rng = random.Random(29)
        for _ in range(20):
            op = random_operator(rng, 4)
            for j in range(8):
                assert op.apply(Poly((0,) * j + (1,))).degree <= j


class TestMatrix:
    def test_negative_degree_is_refused(self):
        for op in (LEGENDRE, CHAUDHRY_QADIR):
            with pytest.raises(ValueError, match="^n must be >= 0$"):
                op.matrix(-1)
            with pytest.raises(ValueError, match="^n must be >= 0$"):
                op.spectrum(-1)

    def test_hand_computed_columns(self):
        op = DiffOperator([Poly(), P(0, -2), P(1, 0, 1)])
        m = op.matrix(2)
        assert m.entry(0, 2) == 2
        assert m.entry(1, 1) == -2
        assert m.entry(2, 2) == -2
        for i in range(3):
            for j in range(3):
                if (i, j) not in {(0, 2), (1, 1), (2, 2)}:
                    assert m.entry(i, j) == 0

    def test_derivative_operator_strictly_upper(self):
        op = DiffOperator([Poly(), Poly.one()])
        m = op.matrix(5)
        for j in range(1, 6):
            assert m.entry(j - 1, j) == j
        assert all(m.entry(i, i) == 0 for i in range(6))

    def test_identity_operator(self):
        op = DiffOperator([Poly.one()])
        m = op.matrix(3)
        for i in range(4):
            for j in range(4):
                assert m.entry(i, j) == (1 if i == j else 0)

    def test_upper_triangular_and_diagonal_matches_spectrum(self):
        rng = random.Random(31)
        for _ in range(20):
            op = random_operator(rng, 4)
            n = rng.randint(0, 10)
            m = op.matrix(n)
            spec = op.spectrum(n)
            for i in range(n + 1):
                for j in range(n + 1):
                    if i > j:
                        assert m.entry(i, j) == 0
            # the module docstring's mu_j = sum_k a_{k,k} j(j-1)...(j-k+1)
            closed_form = tuple(
                sum(a_k.coeff(k) * perm(j, k) for k, a_k in enumerate(op.coeffs))
                for j in range(n + 1)
            )
            assert m.diagonal == spec.values == closed_form

    def test_columns_are_images_of_monomials(self):
        # the closed form against the definition: column j is L(x^j)
        rng = random.Random(37)
        for _ in range(40):
            op = random_operator(rng, 4)
            n = rng.randint(0, 10)
            m = op.matrix(n)
            for j in range(n + 1):
                image = op.apply(Poly((0,) * j + (1,)))
                column = [m.entry(i, j) for i in range(n + 1)]
                assert column == [image.coeff(i) for i in range(n + 1)]
                assert all(m.entry(i, j) == 0 for i in range(j - op.order))

    def test_leading_block_is_smaller_matrix(self):
        rng = random.Random(43)
        for _ in range(10):
            op = random_operator(rng, 3)
            big = op.matrix(9)
            for n in range(10):
                assert op.matrix(n).entries == tuple(row[: n + 1] for row in big.entries[: n + 1])


def _big_operator(rng, order):
    """Order-``order`` operator with every coefficient a random rational
    whose numerator and denominator go up to 10^6."""
    def big():
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
    return DiffOperator([Poly([big() for _ in range(k)] + [big() or 1]) for k in range(order + 1)])


def _band_cases():
    rng = random.Random(59)
    for order in range(5):
        for _ in range(6):
            yield _big_operator(rng, order), rng.randint(0, 10)
            yield random_operator(rng, order), rng.randint(0, 10)


class TestBand:
    # The matrix is stored as its band, integers over one denominator D; the
    # reference here is the definition, column j = L(x^j), not the band itself.
    def test_band_is_cleared_matrix_of_monomial_images(self):
        for op, n in _band_cases():
            m = op.matrix(n)
            images = [op.apply(Poly((0,) * j + (1,))) for j in range(n + 1)]
            dense = [[image.coeff(i) for image in images] for i in range(n + 1)]
            assert m.denominator == lcm(*(v.denominator for row in dense for v in row))
            assert len(m.band) == n + 1
            for i in range(n + 1):
                width = min(op.order, n - i) + 1
                assert len(m.band[i]) == width
                for j in range(n + 1):
                    if 0 <= j - i < width:
                        assert m.band[i][j - i] == m.denominator * dense[i][j]
                    else:
                        assert dense[i][j] == 0
            assert m.entries == tuple(map(tuple, dense))
            assert m.diagonal == op.spectrum(n).values

    def test_leading_block_of_the_band(self):
        rng = random.Random(61)
        for order in range(5):
            for _ in range(4):
                op = _big_operator(rng, order)
                big = op.matrix(12)
                for n in range(13):
                    small = op.matrix(n)
                    assert small.denominator == lcm(
                        *(v.denominator for row in small.entries for v in row))
                    for i, row in enumerate(small.band):
                        assert row == tuple(
                            Fraction(v, big.denominator) * small.denominator
                            for v in big.band[i][: len(row)])


class TestSpectrum:
    def test_chaudhry_qadir_minus_n_squared(self):
        spec = CHAUDHRY_QADIR.spectrum(4)
        assert spec.values == tuple(Fraction(-n * n) for n in range(5))
        assert spec.distinct

    def test_jacobi_closed_form(self):
        rng = random.Random(37)
        for _ in range(10):
            alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            beta = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            op = build_operator(FamilySpec.jacobi(-1, alpha, beta))
            spec = op.spectrum(8)
            for j in range(9):
                assert spec.values[j] == -j * (j - 1) + j * alpha

    def test_derivative_operator_all_zero(self):
        op = DiffOperator([Poly(), Poly.one()])
        spec = op.spectrum(4)
        assert spec.values == (Fraction(0),) * 5
        assert spec.multiplicity == {Fraction(0): (0, 1, 2, 3, 4)}
        assert not spec.distinct

    def test_multiplicity_is_in_first_degree_order(self):
        # the CLI prints multiplicity as the dict holds it: each eigenvalue once, with its
        # degrees ascending, in the order of its first degree.  Jacobi eigenvalues
        # eps j(j-1) + alpha j collide at j + k = 1 - eps alpha, an integer here
        rng = random.Random(44)
        collided = 0
        for _ in range(300):
            eps = rng.choice([-1, 1])
            alpha = -eps * rng.randint(1, 20)
            beta = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            n = rng.randint(2, 16)
            spec = build_operator(FamilySpec.jacobi(eps, alpha, beta)).spectrum(n)
            multiplicity = spec.multiplicity
            firsts = [degs[0] for degs in multiplicity.values()]
            assert firsts == sorted(firsts), (eps, alpha, n)
            assert sorted(d for degs in multiplicity.values() for d in degs) == list(range(n + 1))
            assert all(list(degs) == sorted(degs) for degs in multiplicity.values())
            collided += not spec.distinct
        assert collided > 100

    def test_prop_two_plus_eps_eigenvalues(self):
        # (x^2+1) y'' + (alpha x) y' has eigenvalues j(j-1) + alpha*j on L
        alpha = Fraction(-4)
        op = build_operator(FamilySpec.jacobi(1, alpha, 0))
        spec = op.spectrum(6)
        for j in range(7):
            assert spec.values[j] == j * (j - 1) + alpha * j
