import math
import random
from fractions import Fraction

import pytest

import specpoly.orthogonality as orthogonality
from specpoly import (
    FamilySpec,
    Interval,
    NoConvergence,
    NonIntegrable,
    NotPolynomialReducible,
    Poly,
    PowerFactor,
    WeightExpr,
    build_operator,
    classical_presets,
    derive_weight,
    eigentable,
    finite_orthogonality_report,
    gram_matrix,
    gram_matrix_for_operator,
    inner_product,
    inner_product_exact,
    inner_product_numeric,
)

from oracles import divide_and_integrate, random_poly


def P(*coeffs):
    return Poly(coeffs)


def weight_of(spec):
    op = build_operator(spec)
    return derive_weight(op.coeffs[2], op.coeffs[1])


LEGENDRE_W = weight_of(FamilySpec.jacobi(-1, -2, 0))
CHEB_W = weight_of(FamilySpec.jacobi(-1, -1, 0))
CQ_SPEC = FamilySpec.chaudhry_qadir()
CQ_W = weight_of(CQ_SPEC)
ROM_SPEC = FamilySpec.romanovski(Fraction(-13, 2), 1)
ROM_W = weight_of(ROM_SPEC)


class TestExactPath:
    def test_legendre_odd_pair_is_zero(self):
        assert inner_product_exact(LEGENDRE_W, Poly.x(), P("-1/3", 0, 1)) == 0

    def test_legendre_norm(self):
        p = P("-1/3", 0, 1)
        assert inner_product_exact(LEGENDRE_W, p, p) == Fraction(8, 45)

    def test_example_two_cancellation(self):
        # eigenfunctions (t-1) and (t-1)(t-c2) with c2 from back-substitution
        table = eigentable(build_operator(CQ_SPEC), 2)
        y1, y2 = table[1].monic, table[2].monic
        assert y1 == P(-1, 1)
        psi = y2.divide_linear(1)
        c2 = -psi.coeff(0)
        assert c2 == Fraction(1, 3)
        assert inner_product_exact(CQ_W, y1, y2) == 0
        # independent route: integral of (1-t)(t-c2) over (0,1) via antiderivative
        direct = (P(1, -1) * P(-c2, 1)).definite_integral(0, 1)
        assert direct == 0

    def test_example_two_norm_is_positive(self):
        table = eigentable(build_operator(CQ_SPEC), 2)
        y2 = table[2].monic
        value = inner_product_exact(CQ_W, y2, y2)
        assert value > 0

    def test_transcendental_weight_not_reducible(self):
        with pytest.raises(NotPolynomialReducible):
            inner_product_exact(ROM_W, Poly.one(), Poly.one())

    def test_fractional_exponent_not_reducible(self):
        with pytest.raises(NotPolynomialReducible):
            inner_product_exact(CHEB_W, Poly.one(), Poly.one())

    def test_zero_polynomial_is_zero_before_exponent_checks(self):
        # only the interval and transcendental checks precede the zero case
        interior = WeightExpr(power_factors=(PowerFactor(Fraction(0), Fraction(1)),))
        for w in (CHEB_W, interior):
            for f, g in ((Poly(), Poly.x()), (P(1, 2), Poly())):
                value = inner_product_exact(w, f, g)
                assert value == 0 and isinstance(value, Fraction)
        with pytest.raises(NotPolynomialReducible):
            inner_product_exact(interior, Poly.one(), Poly.one())
        with pytest.raises(NotPolynomialReducible):
            inner_product_exact(ROM_W, Poly(), Poly.one())

    def test_uncancelled_negative_power_not_reducible(self):
        with pytest.raises(NotPolynomialReducible):
            inner_product_exact(CQ_W, Poly.one(), Poly.x())

    def test_left_endpoint_odd_exponent_sign(self):
        # a = t(1-t), b = t gives p = |t|^-1 |t-1|^-2 on (0,1); for
        # f = g = t(t-1) everything cancels down to integral of t
        a, b = P(0, 1, -1), P(0, 1)
        w = derive_weight(a, b)
        f = P(0, -1, 1)
        assert inner_product_exact(w, f, f) == Fraction(1, 2)

    def test_positive_integer_exponents_multiply_in(self):
        # jacobi alpha=-4, beta=0 has the polynomial weight (1-x)(1+x)
        spec = FamilySpec.jacobi(-1, -4, 0)
        op = build_operator(spec)
        w = weight_of(spec)
        assert inner_product_exact(w, Poly.one(), Poly.one()) == Fraction(4, 3)
        report = gram_matrix(spec, 6)
        assert all(e.method == "exact" for e in report.entries)
        assert report.off_diagonal_max_relative == 0.0

    def test_bilinearity_exact(self):
        rng = random.Random(79)
        for _ in range(15):
            f = random_poly(rng, 4)
            g = random_poly(rng, 4)
            h = random_poly(rng, 4)
            lhs = inner_product_exact(LEGENDRE_W, f, g + h)
            rhs = inner_product_exact(LEGENDRE_W, f, g) + inner_product_exact(
                LEGENDRE_W, f, h
            )
            assert lhs == rhs

    def test_symmetry(self):
        rng = random.Random(83)
        f, g = random_poly(rng, 5), random_poly(rng, 5)
        assert inner_product_exact(LEGENDRE_W, f, g) == inner_product_exact(
            LEGENDRE_W, g, f
        )


def _jacobi_with_exponents(p, q):
    """Jacobi (eps = -1) family whose weight is (1-x)^p (1+x)^q."""
    return FamilySpec.jacobi(-1, -(p + q + 2), q - p)


def _same_as_oracle(w, f, g):
    try:
        expected = divide_and_integrate(w, f, g)
    except NotPolynomialReducible:
        with pytest.raises(NotPolynomialReducible):
            inner_product_exact(w, f, g)
        return False
    assert inner_product_exact(w, f, g) == expected
    return True


class TestMomentAssembly:
    def test_matches_divide_and_integrate(self):
        specs = [
            (_jacobi_with_exponents(p, q), 12) for p in range(-2, 5) for q in range(-2, 5)
        ]
        specs.append((CQ_SPEC, 14))
        exact = refused = 0
        for spec, n_max in specs:
            w = weight_of(spec)
            table = eigentable(build_operator(spec), n_max)
            for e in gram_matrix(spec, n_max).entries:
                f, g = table[e.m].monic, table[e.n].monic
                if f is None or g is None:
                    continue
                try:
                    expected = divide_and_integrate(w, f, g)
                except NotPolynomialReducible:
                    assert e.method != "exact"
                    refused += 1
                    continue
                assert e.method == "exact" and e.value == expected
                exact += 1
        assert exact > 4000 and refused > 50

        # planted root multiplicities 0..3 at each endpoint, and weights
        # with more than one factor at a root
        rng = random.Random(89)
        weights = [weight_of(spec) for spec, _ in specs]
        weights += [
            WeightExpr(
                Fraction(-3, 7),
                (PowerFactor(Fraction(2), Fraction(e1)), PowerFactor(Fraction(2), Fraction(e2))),
                interval=Interval(Fraction(0), Fraction(2)),
            )
            for e1, e2 in ((-1, -1), (-1, 2), (3, -2), (-2, 3), (1, 1))
        ]
        outcomes = set()
        for w in weights:
            roots = [pf.root for pf in w.power_factors]
            for _ in range(16):
                f, g = random_poly(rng, rng.randint(0, 4)), random_poly(rng, rng.randint(0, 4))
                for r in roots:
                    f = f * P(-r, 1) ** rng.randint(0, 3)
                    g = g * P(-r, 1) ** rng.randint(0, 3)
                outcomes.add(_same_as_oracle(w, f, g))
        assert outcomes == {True, False}


    def test_large_denominators_match_divide_and_integrate(self):
        # numerators and denominators up to 10^6, a different denominator for
        # every polynomial, on negative integer exponents: the assembly clears
        # each polynomial and each moment list to integers over its own
        # denominator and must still give the oracle's exact value
        rng = random.Random(97)

        def big_poly(degree):
            return Poly([
                Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
                for _ in range(degree + 1)
            ])

        lo, hi = Fraction(-2, 7), Fraction(5, 3)
        weights = [
            weight_of(_jacobi_with_exponents(p, q)) for p, q in ((-1, -1), (-2, 0), (-3, 2), (1, -2))
        ]
        weights.append(WeightExpr(
            Fraction(-3, 7),
            (PowerFactor(lo, Fraction(-2)), PowerFactor(hi, Fraction(-1))),
            interval=Interval(lo, hi),
        ))
        exact = refused = 0
        for w in weights:
            polys = {}
            for label in range(8):
                f = big_poly(rng.randint(0, 5))
                for pf in w.power_factors:
                    f = f * P(-pf.root, 1) ** rng.randint(0, 2)
                polys[label] = f
            form = orthogonality._ExactForm(w, polys)
            for m, f in polys.items():
                for n, g in polys.items():
                    try:
                        expected = divide_and_integrate(w, f, g)
                    except NotPolynomialReducible:
                        with pytest.raises(NotPolynomialReducible):
                            form.entry(m, n)
                        refused += 1
                        continue
                    assert form.entry(m, n) == expected == inner_product_exact(w, f, g)
                    exact += 1
        assert exact > 150 and refused > 50


class TestNumericPath:
    def test_agrees_with_exact_for_legendre(self):
        table = eigentable(build_operator(FamilySpec.jacobi(-1, -2, 0)), 6)
        for m in range(7):
            for n in range(m, 7):
                f, g = table[m].monic, table[n].monic
                exact = inner_product_exact(LEGENDRE_W, f, g)
                numeric = inner_product_numeric(LEGENDRE_W, f, g, 1e-12)
                assert abs(numeric.value - float(exact)) < 1e-10 * (1 + abs(float(exact)))

    def test_chebyshev_closed_forms(self):
        # weight is exactly 1/sqrt(1-x^2): <1,1> = pi, <T2m, T2m> = pi/8 for monic T2
        assert inner_product_numeric(CHEB_W, Poly.one(), Poly.one(), 1e-12).value == pytest.approx(math.pi, rel=1e-11)
        t2 = P("-1/2", 0, 1)
        assert inner_product_numeric(CHEB_W, t2, t2, 1e-12).value == pytest.approx(math.pi / 8, rel=1e-10)
        assert inner_product_numeric(CHEB_W, Poly.one(), Poly.x(), 1e-12).value == pytest.approx(0.0, abs=1e-13)

    def test_hermite_and_laguerre_masses(self):
        herm_w = weight_of(FamilySpec.hermite(-2, 0))
        assert inner_product_numeric(herm_w, Poly.one(), Poly.one(), 1e-12).value == pytest.approx(math.sqrt(math.pi), rel=1e-11)
        lag_w = weight_of(FamilySpec.laguerre(-1, 1))
        assert inner_product_numeric(lag_w, Poly.x(), P(0, 1, 1), 1e-12).value == pytest.approx(8.0, rel=1e-11)

    def test_romanovski_first_pair(self):
        table = eigentable(build_operator(ROM_SPEC), 1)
        assert table[1].monic == P("-2/13", 1)
        res = inner_product_numeric(ROM_W, table[0].monic, table[1].monic, 1e-10)
        norm0 = inner_product_numeric(ROM_W, Poly.one(), Poly.one(), 1e-10).value
        norm1 = inner_product_numeric(ROM_W, table[1].monic, table[1].monic, 1e-10).value
        assert abs(res.value) / math.sqrt(norm0 * norm1) < 1e-8

    def test_non_integrable_raises(self):
        with pytest.raises(NonIntegrable):
            inner_product_numeric(ROM_W, Poly.monomial(4), Poly.monomial(4))

    def test_bilinearity_within_tolerance(self):
        rng = random.Random(89)
        tol = 1e-10
        for _ in range(5):
            f = random_poly(rng, 3)
            g = random_poly(rng, 3)
            h = random_poly(rng, 3)
            lhs = inner_product_numeric(CHEB_W, f, g + h, tol).value
            rhs = (
                inner_product_numeric(CHEB_W, f, g, tol).value
                + inner_product_numeric(CHEB_W, f, h, tol).value
            )
            assert abs(lhs - rhs) <= 2 * tol * (1 + abs(lhs))

    def test_zero_polynomial_short_circuits(self):
        res = inner_product_numeric(ROM_W, Poly.zero(), Poly.monomial(9))
        assert res.value == 0.0

    def test_exact_route_is_oracle_for_quadrature(self):
        # seeded pairs of eigenfunctions on Jacobi weights (1-x)^p (1+x)^q with
        # integer p, q: the quadrature value within 1e-12 of sqrt(G_mm G_nn)
        rng = random.Random(61)
        for _ in range(8):
            spec = _jacobi_with_exponents(rng.randint(0, 4), rng.randint(0, 4))
            w = weight_of(spec)
            table = eigentable(build_operator(spec), 8)
            for _ in range(6):
                f, g = table[rng.randint(0, 8)].monic, table[rng.randint(0, 8)].monic
                exact = inner_product_exact(w, f, g)
                scale = math.sqrt(inner_product_exact(w, f, f) * inner_product_exact(w, g, g))
                assert abs(inner_product_numeric(w, f, g).value - exact) <= 1e-12 * scale
        # chaudhry-qadir's 1/(1-t) makes the integrability verdict refuse every
        # pair, although f g vanishes at t = 1: no quadrature value to compare
        table = eigentable(build_operator(CQ_SPEC), 4)
        for m in range(1, 5):
            f = table[m].monic
            assert inner_product_exact(CQ_W, f, f) > 0
            with pytest.raises(NonIntegrable, match="power exponent -1 <= -1"):
                inner_product_numeric(CQ_W, f, f)


class TestRouter:
    def test_exact_preferred(self):
        value, method, err = inner_product(LEGENDRE_W, Poly.one(), Poly.one())
        assert method == "exact" and value == 2 and err is None

    def test_quadrature_fallback(self):
        value, method, err = inner_product(CHEB_W, Poly.one(), Poly.one())
        assert method == "quadrature"
        assert value == pytest.approx(math.pi, rel=1e-9)
        assert err is not None


class TestSelfAdjointness:
    def test_exact_for_legendre_weight(self):
        op = build_operator(FamilySpec.jacobi(-1, -2, 0))
        rng = random.Random(97)
        for _ in range(10):
            f = random_poly(rng, 5)
            g = random_poly(rng, 5)
            lf_g = inner_product_exact(LEGENDRE_W, op.apply(f), g)
            f_lg = inner_product_exact(LEGENDRE_W, f, op.apply(g))
            assert lf_g == f_lg

    def test_numeric_for_singular_jacobi_weight(self):
        alpha, beta = Fraction(-3, 2), Fraction(1, 4)
        spec = FamilySpec.jacobi(-1, alpha, beta)
        op = build_operator(spec)
        w = weight_of(spec)
        rng = random.Random(101)
        for _ in range(6):
            f = random_poly(rng, 4)
            g = random_poly(rng, 4)
            lf_g = inner_product_numeric(w, op.apply(f), g, 1e-11).value
            f_lg = inner_product_numeric(w, f, op.apply(g), 1e-11).value
            assert abs(lf_g - f_lg) < 1e-8 * (1 + abs(lf_g))

    def test_romanovski_boundary_term_power_law(self):
        # |(x^2+1) p (f g' - f' g)| should follow x^{m+n+gamma+1} at large x
        op = build_operator(ROM_SPEC)
        gamma = float(Fraction(-17, 2))
        rng = random.Random(103)
        for _ in range(5):
            f = random_poly(rng, 3)
            g = random_poly(rng, 4)
            if f.is_zero() or g.is_zero():
                continue
            m, n = int(f.degree), int(g.degree)
            wronskian = f * g.derivative() - f.derivative() * g
            if wronskian.is_zero():
                continue

            def boundary(x):
                return (x * x + 1) * ROM_W.eval_float(x) * wronskian.eval_float(x)

            ratio = abs(boundary(2000.0) / boundary(1000.0))
            expected = 2.0 ** (m + n + gamma + 1)
            assert 0.5 < ratio / expected < 2.0


class TestGramMatrix:
    def test_legendre_all_exact_zeros(self):
        report = gram_matrix(FamilySpec.jacobi(-1, -2, 0), 8)
        off_diag = [e for e in report.entries if e.m != e.n]
        assert len(off_diag) == 36
        for e in off_diag:
            assert e.method == "exact"
            assert e.value == 0
        assert report.off_diagonal_max_relative == 0.0

    def test_fractional_laguerre_has_no_internal_fault(self):
        # quadrature nodes next to the half line's anchor used to collapse to
        # x = 0.0 and take log(0); every entry now converges
        report = gram_matrix(FamilySpec.laguerre(Fraction(-3, 2), Fraction(7, 3)), 6)
        assert [e.method for e in report.entries] == ["quadrature"] * 28
        assert all(math.isfinite(e.value) for e in report.entries)
        assert all(e.value > 0 for e in report.entries if e.m == e.n)
        assert report.off_diagonal_max_relative <= 1e-12

    def test_chaudhry_qadir_degrees_and_zeros(self):
        report = gram_matrix(CQ_SPEC, 8)
        assert report.degrees == tuple(range(1, 9))
        for e in report.entries:
            assert e.method == "exact"
            if e.m != e.n:
                assert e.value == 0
            else:
                assert e.value > 0

    def test_romanovski_structure(self):
        report = gram_matrix(ROM_SPEC, 5, 1e-10)
        integrable = {(e.m, e.n): e for e in report.entries if e.integrable}
        flagged = {(e.m, e.n) for e in report.entries if not e.integrable}
        assert flagged == {(3, 5), (4, 5), (4, 4), (5, 5)}
        for (m, n), e in integrable.items():
            if m != n:
                assert e.relative is not None and e.relative < 1e-8
        # the (3,4) pair is integrable but its diagonals are not: moment fallback
        assert "moment" in (report.entry(3, 4).note or "")

    def test_chebyshev_gram_numeric_zeros(self):
        report = gram_matrix(FamilySpec.jacobi(-1, -1, 0), 4, 1e-11)
        for e in report.entries:
            if e.m != e.n:
                assert e.method == "quadrature"
                assert e.relative < 1e-9

    def test_custom_operator_gram(self):
        op = build_operator(FamilySpec.jacobi(-1, -2, 0))
        report = gram_matrix_for_operator(op, 4)
        assert report.degrees == (0, 1, 2, 3, 4)
        assert report.off_diagonal_max_relative == 0.0

    def test_report_json_is_stable(self):
        a = gram_matrix(FamilySpec.jacobi(-1, -2, 0), 4).to_json()
        b = gram_matrix(FamilySpec.jacobi(-1, -2, 0), 4).to_json()
        assert a == b


class TestFiniteOrthogonalityReport:
    def test_standard_parameters(self):
        report = finite_orthogonality_report(Fraction(-13, 2), 1, 5, 1e-10)
        assert report.gamma == Fraction(-17, 2)
        verdicts = {(p.m, p.n): p for p in report.pairs}
        for (m, n), p in verdicts.items():
            if m + n <= 7:
                assert p.verdict == "orthogonal", (m, n)
                assert p.relative < 1e-8
            else:
                assert p.verdict == "non-integrable"

    def test_integer_alpha_flags_collisions(self):
        report = finite_orthogonality_report(-6, 0, 5, 1e-10)
        assert (3, 4) in report.degenerate_degree_pairs
        assert (2, 5) in report.degenerate_degree_pairs

    @pytest.mark.parametrize("alpha", [Fraction(k, 2) for k in range(-24, 1)], ids=float)
    def test_degenerate_pair_verdict_when_integrable(self, alpha):
        # A collision pair (m,n) has m+n = 1-alpha and gamma+1 = alpha-1, so
        # m+n+gamma+1 = 0: collision pairs are always exactly on the
        # non-integrability boundary and get that verdict.
        report = finite_orthogonality_report(alpha, 0, 12, 1e-10)
        assert bool(report.degenerate_degree_pairs) == (alpha.denominator == 1)
        verdicts = {(p.m, p.n): p.verdict for p in report.pairs}
        for m, n in report.degenerate_degree_pairs:
            assert m + n + report.gamma + 1 == 0, (m, n)
            assert verdicts[m, n] == "non-integrable", (m, n)
        assert "degenerate-pair" not in verdicts.values()

    def test_beta_zero_odd_pairs_exact_zero(self):
        report = finite_orthogonality_report(-8, 0, 3, 1e-10)
        p01 = next(p for p in report.pairs if (p.m, p.n) == (0, 1))
        assert p01.value == pytest.approx(0.0, abs=1e-15)


# every interval shape of the shared integrand: finite, real line, both half lines
SWEPT_GRAMS = [
    (classical_presets()["chebyshev1"], 6),
    (FamilySpec.hermite(Fraction(-5, 2), Fraction(2, 3)), 6),
    (classical_presets()["laguerre"], 4),
    (FamilySpec.laguerre(Fraction(-2), Fraction(1, 2)), 4),
    (FamilySpec.laguerre(Fraction(2), Fraction(1, 2)), 4),
]


def laguerre_norm(n, e, c):
    """integral of x^e e^(-cx) p_n^2 over (0, inf) for the monic Laguerre p_n."""
    return math.exp(math.lgamma(n + 1) + math.lgamma(n + e + 1) - (2 * n + e + 1) * math.log(c))


def hermite_3_norm(n):
    """integral of e^(-x^2/2 + 3x) p_n^2 over the real line for the monic Hermite p_n."""
    return math.factorial(n) * math.sqrt(2 * math.pi) * math.exp(4.5)


# laguerre(alpha, beta) has the weight x^(beta-1) e^(alpha x) on (0, inf)
CONVERGED = {
    "laguerre": (classical_presets()["laguerre"], lambda n: laguerre_norm(n, 0, 1)),
    "hermite(-1,3)": (FamilySpec.hermite(-1, 3), hermite_3_norm),
    "laguerre(-3/2,7/3)": (
        FamilySpec.laguerre(Fraction(-3, 2), Fraction(7, 3)),
        lambda n: laguerre_norm(n, 4 / 3, 3 / 2),
    ),
    "laguerre(-1,1/2)": (
        FamilySpec.laguerre(-1, Fraction(1, 2)),
        lambda n: laguerre_norm(n, -1 / 2, 1),
    ),
}


class TestConvergedQuadrature:
    """Gram matrices whose quadrature used to stop with NoConvergence at n = 6."""

    @pytest.mark.parametrize("name", list(CONVERGED))
    def test_gram_matches_closed_form_norms(self, name):
        spec, norm = CONVERGED[name]
        report = gram_matrix(spec, 6)
        assert len(report.entries) == 28
        for e in report.entries:
            assert e.method == "quadrature", (e.m, e.n)
            if e.m == e.n:
                assert abs(e.value - norm(e.m)) <= 1e-12 * norm(e.m), e.m
            else:
                assert e.relative <= 1e-12, (e.m, e.n)
        assert report.off_diagonal_max_relative <= 1e-12


class TestQuadratureEntries:
    @pytest.mark.parametrize(
        "spec, n", SWEPT_GRAMS, ids=[f"spec{i}" for i in range(len(SWEPT_GRAMS))]
    )
    def test_gram_entries_equal_public_function(self, spec, n):
        report = gram_matrix(spec, n)
        w = weight_of(spec)
        table = eigentable(build_operator(spec), n)
        quadrature = [e for e in report.entries if e.method == "quadrature"]
        assert len(quadrature) == (n + 1) * (n + 2) // 2
        for e in quadrature:
            res = inner_product_numeric(w, table[e.m].monic, table[e.n].monic)
            assert (e.value, e.err_est) == (res.value, res.err_est), (e.m, e.n)

    # inputs that still fail: laguerre at 8 fails on five pairs with different
    # texts, first (4, 8); hermite at 14 on (12, 14)
    @pytest.mark.parametrize(
        "spec, n",
        [(classical_presets()["laguerre"], 8), (classical_presets()["hermite"], 14)],
        ids=["spec0", "spec1"],
    )
    def test_gram_raises_first_failing_pair_in_order(self, spec, n):
        w = weight_of(spec)
        table = eigentable(build_operator(spec), n)
        expected = None
        for m in range(n + 1):
            for k in range(m, n + 1):
                try:
                    inner_product_numeric(w, table[m].monic, table[k].monic)
                except NoConvergence as exc:
                    expected = expected or str(exc)
        assert expected is not None
        with pytest.raises(NoConvergence) as raised:
            gram_matrix(spec, n)
        assert str(raised.value) == expected

    def test_romanovski_pairs_equal_public_function(self):
        # (alpha, beta, n_max) -> valued pairs, of which relative to a moment
        inputs = {
            (Fraction(-15, 2), Fraction(1, 2), 6): (17, 7),
            (Fraction(-13, 2), 1, 7): (16, 10),
        }
        for (alpha, beta, n), (count, by_moment) in inputs.items():
            report = finite_orthogonality_report(alpha, beta, n)
            spec = FamilySpec.romanovski(alpha, beta)
            w = weight_of(spec)
            table = eigentable(build_operator(spec), n)
            gram = gram_matrix(spec, n)
            valued = [p for p in report.pairs if p.value is not None]
            assert len(valued) == count
            details = []
            for p in valued:
                expected = inner_product_numeric(w, table[p.m].monic, table[p.n].monic).value
                assert p.value == expected, (p.m, p.n)
                e = gram.entry(p.m, p.n)
                assert (p.value, p.relative, p.err_est) == (e.value, e.relative, e.err_est)
                details.append(p.detail)
                if e.note is None:
                    assert p.detail == "relative to sqrt(G_mm G_nn)", (p.m, p.n)
                else:
                    assert e.note == "relative uses moment scale", (p.m, p.n)
                    assert p.detail.startswith("relative to the (1+x^2)^((m+n)/2) moment")
            assert details.count("relative to sqrt(G_mm G_nn)") == count - by_moment

    def test_moment_scale_once_per_total_degree(self, monkeypatch):
        calls = []
        moment_scale = orthogonality._moment_scale

        def counted(weight, total_degree, tol):
            calls.append(total_degree)
            return moment_scale(weight, total_degree, tol)

        monkeypatch.setattr(orthogonality, "_moment_scale", counted)
        finite_orthogonality_report(Fraction(-15, 2), Fraction(1, 2), 6)
        assert calls == [5, 6, 7, 8]
        calls.clear()
        gram_matrix(FamilySpec.romanovski(Fraction(-15, 2), Fraction(1, 2)), 6)
        assert calls == [5, 6, 7, 8]
