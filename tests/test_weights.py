import math
import random
from fractions import Fraction

import pytest

from specpoly import (
    FamilySpec,
    Interval,
    Poly,
    PowerFactor,
    UnsupportedLeadingCoefficient,
    WeightExpr,
    build_operator,
    classical_presets,
    derive_weight,
    eigentable,
    inner_product,
    pearson_check,
)
from specpoly.weights import PearsonVerdict, _classify, _exponent

from oracles import (
    boundary_vanishing,
    integrability,
    interior_points,
    log_eval_reference,
    log_slope_error,
    weight_value,
)


def P(*coeffs):
    return Poly(coeffs)


def weight_of(spec: FamilySpec) -> WeightExpr:
    op = build_operator(spec)
    return derive_weight(op.coeffs[2], op.coeffs[1])


def ab_of(spec: FamilySpec):
    op = build_operator(spec)
    return op.coeffs[2], op.coeffs[1]


class TestDeriveWeight:
    def test_chaudhry_qadir_weight(self):
        w = weight_of(FamilySpec.chaudhry_qadir())
        assert w.power_factors == (PowerFactor(Fraction(1), Fraction(-1)),)
        assert w.quad_exp is None
        assert w.exp_poly.is_zero()
        assert w.arctan_coeff == 0
        assert (w.interval.lo, w.interval.hi) == (0, 1)

    def test_jacobi_closed_form(self):
        rng = random.Random(59)
        for _ in range(10):
            alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            beta = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            w = weight_of(FamilySpec.jacobi(-1, alpha, beta))
            exps = {pf.root: pf.exponent for pf in w.power_factors}
            assert exps.get(Fraction(1), Fraction(0)) == -(beta + alpha + 2) / 2
            assert exps.get(Fraction(-1), Fraction(0)) == (beta - alpha - 2) / 2

    def test_romanovski_components(self):
        w = weight_of(FamilySpec.romanovski(Fraction(-13, 2), 1))
        assert w.quad_exp == Fraction(-17, 4)
        assert w.arctan_coeff == 1
        assert not w.interval.finite

    def test_laguerre_weight(self):
        w = weight_of(FamilySpec.laguerre(-1, 1))
        # x y'' + (1-x) y'  ->  p = e^{-x} on (0, inf); |x|^0 factor drops out
        assert w.power_factors == ()
        assert w.exp_poly == P(0, -1)
        assert (w.interval.lo, w.interval.hi) == (0, None)

    def test_laguerre_general_parameters(self):
        w = weight_of(FamilySpec.laguerre(-1, Fraction(5, 2)))
        assert w.power_factors == (PowerFactor(Fraction(0), Fraction(3, 2)),)

    def test_hermite_weight(self):
        w = weight_of(FamilySpec.hermite(-2, 0))
        assert w.exp_poly == P(0, 0, -1)
        assert w.power_factors == ()
        assert w.interval.lo is None and w.interval.hi is None

    def test_rejects_double_root(self):
        with pytest.raises(UnsupportedLeadingCoefficient):
            derive_weight(P(1, -2, 1), P(0, 1))

    def test_rejects_irrational_roots(self):
        with pytest.raises(UnsupportedLeadingCoefficient):
            derive_weight(P(-2, 0, 1), P(0, 1))

    def test_rejects_shifted_complex_quadratic(self):
        with pytest.raises(UnsupportedLeadingCoefficient):
            derive_weight(P(2, -2, 1), P(0, 1))  # (x-1)^2 + 1: normalize first

    def test_rejects_high_degree(self):
        with pytest.raises(UnsupportedLeadingCoefficient):
            derive_weight(Poly((0, 0, 0, 1)), P(0, 1))

    def test_rejects_quadratic_b(self):
        with pytest.raises(ValueError, match=r"^weight derivation requires deg\(b\) <= 1$") as err:
            derive_weight(P(1, 0, -1), P(0, 0, 1))
        assert not isinstance(err.value, UnsupportedLeadingCoefficient)


class TestExponent:
    def test_matches_the_pearson_formula(self):
        # E_r = b(r)/a'(r) - 1 at each simple root of random two-root and linear a
        rng = random.Random(61)
        for _ in range(40):
            r1, r2 = sorted(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2))
            c = Fraction(rng.choice([i for i in range(-4, 5) if i]), rng.randint(1, 3))
            b = P(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), Fraction(rng.randint(-9, 9), 2))
            a = c * P(-r1, 1) * P(-r2, 1) if r1 != r2 else c * P(-r1, 1)
            for r in {r1, r2}:
                assert _exponent(a, b, r) == b(r) / a.derivative()(r) - 1

    def test_derived_weights_carry_it(self):
        a, b = ab_of(FamilySpec.jacobi(-1, Fraction(-7, 3), Fraction(1, 2)))
        exps = {pf.root: pf.exponent for pf in derive_weight(a, b).power_factors}
        assert exps == {r: _exponent(a, b, r) for r in (Fraction(-1), Fraction(1))}
        a, b = ab_of(FamilySpec.laguerre(-1, Fraction(5, 2)))
        assert derive_weight(a, b).power_factors == (PowerFactor(Fraction(0), _exponent(a, b, 0)),)

    @pytest.mark.parametrize("a, b", [(P(0, 0, 0, 1), P(0, 1)), (P(-1, 0, 1), P(0, 0, 1))])
    def test_too_high_a_degree_does_not_unpack(self, a, b):
        with pytest.raises(ValueError, match="too many values to unpack"):
            _exponent(a, b, Fraction(1))


class TestPearson:
    def test_example_two_weight_satisfies_identity(self):
        a, b = ab_of(FamilySpec.chaudhry_qadir())
        verdict = pearson_check(weight_of(FamilySpec.chaudhry_qadir()), a, b)
        assert verdict.ok and verdict.symbolic_zero
        assert log_slope_error(weight_of(FamilySpec.chaudhry_qadir()), a, b) < 1e-6

    def test_hermite_weight_satisfies_identity(self):
        w = WeightExpr(exp_poly=P(0, 0, -1), interval=Interval(None, None))
        verdict = pearson_check(w, Poly.one(), P(0, -2))
        assert verdict.ok

    def test_perturbed_exponent_fails(self):
        w = weight_of(FamilySpec.chaudhry_qadir())
        bad = WeightExpr(
            w.constant,
            (PowerFactor(Fraction(1), Fraction(-3, 2)),),
            w.quad_exp,
            w.exp_poly,
            w.arctan_coeff,
            w.interval,
        )
        a, b = ab_of(FamilySpec.chaudhry_qadir())
        verdict = pearson_check(bad, a, b)
        assert not verdict.ok
        assert not verdict.symbolic_zero
        assert log_slope_error(bad, a, b) > 1e-2

    # log_slope_error reads (log p)' = (b - a')/a numerically off log_eval, a check
    # independent of WeightExpr.pearson_pair, which the exact verdict shares with the weight
    @pytest.mark.parametrize("name", sorted(classical_presets()))
    def test_presets_pass(self, name):
        spec = classical_presets()[name]
        a, b = ab_of(spec)
        verdict = pearson_check(weight_of(spec), a, b)
        assert verdict.ok, name
        assert log_slope_error(weight_of(spec), a, b) < 1e-6, name

    def test_random_family_instances_pass(self):
        rng = random.Random(61)
        for _ in range(20):
            alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            beta = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for spec in (
                FamilySpec.jacobi(-1, alpha, beta),
                FamilySpec.romanovski(alpha, beta),
                FamilySpec.laguerre(alpha or Fraction(-1), beta),
                FamilySpec.hermite(alpha or Fraction(-1), beta),
            ):
                a, b = ab_of(spec)
                verdict = pearson_check(weight_of(spec), a, b)
                assert verdict.ok, spec
                assert log_slope_error(weight_of(spec), a, b) < 1e-6, spec


ONE, HALF = Fraction(1), Fraction(1, 2)

# hand-built weights no operator gives, for WeightExpr.pearson_pair
HAND_BUILT = {
    # |x|^0 off the ends: a stays (x + 1)(x - 1), since the form takes no cubic a
    "zero exponent": WeightExpr(power_factors=(PowerFactor(Fraction(0), Fraction(0)),)),
    # |x - 1|^(-2) |x - 1|^3 on (0, 1): one root, its exponents summed
    "two factors at one root": WeightExpr(
        power_factors=(PowerFactor(ONE, Fraction(-2)), PowerFactor(ONE, Fraction(3))),
        interval=Interval(Fraction(0), ONE),
    ),
    # |x|^(-1/2) |x - 4| on (-4, 4), a root inside the interval
    "interior root": WeightExpr(
        power_factors=(PowerFactor(Fraction(0), -HALF), PowerFactor(Fraction(4), ONE)),
        interval=Interval(Fraction(-4), Fraction(4)),
    ),
    # |x - 1/2|^(-1/2) |x + 1| on (-1, 1): a point of log_slope_error sits 0.024 from the
    # interior root, so its step must shrink with the distance to the root, not only to
    # the ends
    "root near a sample": WeightExpr(
        power_factors=(PowerFactor(HALF, -HALF), PowerFactor(-ONE, ONE)),
    ),
    "arctan alone": WeightExpr(arctan_coeff=Fraction(3), interval=Interval(None, None)),
    "gaussian": WeightExpr(exp_poly=P(0, 1, -1), interval=Interval(None, None)),
    "lower half line": WeightExpr(
        power_factors=(PowerFactor(Fraction(2), -HALF),),
        exp_poly=P(0, -1),
        interval=Interval(Fraction(2), None),
    ),
    "upper half line": WeightExpr(
        power_factors=(PowerFactor(-ONE, Fraction(3)),),
        exp_poly=P(0, 2),
        interval=Interval(None, -ONE),
    ),
}


class TestPearsonPair:
    @pytest.mark.parametrize("name", HAND_BUILT)
    def test_pair_of_a_hand_built_weight(self, name):
        # (p a)' = p b numerically, a vanishes at each finite end, and a form route (the
        # exact, Laguerre and Romanovski shapes) gets a quadratic a at most
        w = HAND_BUILT[name]
        a, b = w.pearson_pair()
        assert log_slope_error(w, a, b) < 1e-6, name
        assert all(a(r) == 0 for r in (w.interval.lo, w.interval.hi) if r is not None), name
        if _classify(w)[0] in ("exact", "laguerre", "romanovski"):
            assert a.degree <= 2, name
        if name == "gaussian":
            assert (a, b) == (Poly.one(), P(1, -2))

    def test_pair_is_built_once_per_weight(self):
        # inner_product asks for the pair on every call: the weight keeps the first one,
        # and the verdicts read off it are unchanged
        w = weight_of(FamilySpec.chaudhry_qadir())
        pair = w.pearson_pair()
        assert w.pearson_pair() is pair
        a, b = ab_of(FamilySpec.chaudhry_qadir())
        assert pearson_check(w, a, b) == PearsonVerdict(ok=True, symbolic_zero=True)
        assert pearson_check(w, a, b + Poly.one()) == PearsonVerdict(ok=False, symbolic_zero=False)

    def test_zero_exponent_factor_leaves_the_exact_value(self):
        w = HAND_BUILT["zero exponent"]
        assert inner_product(w, Poly.one(), Poly.one()) == (2, "exact", None)


class TestIntegrability:
    def test_jacobi_window(self):
        w = weight_of(FamilySpec.jacobi(-1, -2, 0))
        assert integrability(w, total_degree=11).integrable

    def test_jacobi_outside_window(self):
        w = weight_of(FamilySpec.jacobi(-1, 2, 0))  # alpha > 0: exponents <= -1
        assert not integrability(w).integrable

    def test_window_boundary_matches_alpha_beta_condition(self):
        rng = random.Random(67)
        for _ in range(30):
            alpha = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            beta = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            w = weight_of(FamilySpec.jacobi(-1, alpha, beta))
            assert integrability(w).integrable == (alpha < beta < -alpha)

    def test_jacobi_monotone_in_alpha(self):
        rng = random.Random(71)
        for _ in range(20):
            alpha = Fraction(rng.randint(-8, 0), rng.randint(1, 3))
            beta = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            if integrability(weight_of(FamilySpec.jacobi(-1, alpha, beta))).integrable:
                assert integrability(
                    weight_of(FamilySpec.jacobi(-1, alpha - 1, beta))
                ).integrable

    def test_romanovski_finite_degrees(self):
        w = weight_of(FamilySpec.romanovski(Fraction(-13, 2), 1))
        assert integrability(w, total_degree=7).integrable
        assert not integrability(w, total_degree=8).integrable

    def test_romanovski_threshold_is_exact(self):
        rng = random.Random(73)
        for _ in range(20):
            alpha = Fraction(rng.randint(-20, 0), rng.randint(1, 4))
            gamma = alpha - 2
            w = weight_of(FamilySpec.romanovski(alpha, 1))
            for deg in range(12):
                assert integrability(w, total_degree=deg).integrable == (
                    deg + gamma + 1 < 0
                )

    def test_example_two_weight_not_integrable(self):
        w = weight_of(FamilySpec.chaudhry_qadir())
        verdict = integrability(w)
        assert not verdict.integrable

    def test_factor_roots_raise_exponents(self):
        # 1/(1-t) on (0, 1) against a factor with the root t = 1
        w = weight_of(FamilySpec.chaudhry_qadir())
        assert integrability(w, factor=P(-1, 1)).integrable
        assert integrability(w, factor=P(1, -2, 1)).conditions[-1][2] == "power exponent 1 > -1"
        assert not integrability(w, factor=P(1, 1)).integrable
        # the asymptotic power counts the factor's degree, roots included
        w = weight_of(FamilySpec.laguerre(-1, -1))  # |x|^(-2) e^(-x) on (0, inf)
        assert integrability(w, factor=P(0, 0, 1)).integrable
        assert not integrability(w, factor=P(0, 1)).integrable
        w = weight_of(FamilySpec.romanovski(Fraction(-13, 2), 1))
        assert integrability(w, total_degree=6, factor=P(1, 1)).integrable
        assert not integrability(w, total_degree=7, factor=P(1, 1)).integrable

    def test_laguerre_derived_conditions(self):
        # p = e^{alpha x} |x|^{beta - 1} on (0, inf): needs beta > 0 and alpha < 0
        half_line = Interval(Fraction(0), None)
        assert integrability(weight_of(FamilySpec.laguerre(-1, 1))).integrable
        assert not integrability(weight_of(FamilySpec.laguerre(-1, -1))).integrable
        # laguerre(1, 1)'s factor e^x, which grows on the half line (0, inf)
        assert not integrability(WeightExpr(exp_poly=P(0, 1), interval=half_line)).integrable
        # for alpha > 0 the derivation itself settles on the decaying side
        assert weight_of(FamilySpec.laguerre(1, 1)).interval == Interval(None, Fraction(0))

    def test_hermite_derived_condition(self):
        assert integrability(weight_of(FamilySpec.hermite(-2, 0)), total_degree=9).integrable
        assert not integrability(weight_of(FamilySpec.hermite(2, 0))).integrable

    def test_classify_names_every_route(self):
        # one walk over the fields names the route of every shape, derived or hand-built; a
        # field the shape lacks (an arctan or a root off the anchor on a half line, a
        # non-integer exponent on a finite interval, an (x^2+1) beside a power factor on the
        # real line) takes the weight off it
        half, real = Interval(Fraction(0), None), Interval(None, None)
        presets = classical_presets()
        cases = [
            (weight_of(presets["legendre"]), "exact"),
            (weight_of(presets["chaudhry-qadir"]), "exact"),
            (weight_of(presets["chebyshev1"]), "finite"),
            (weight_of(presets["laguerre"]), "laguerre"),
            (weight_of(presets["hermite"]), "gaussian"),
            (weight_of(FamilySpec.romanovski(Fraction(-13, 2), 1)), "romanovski"),
            (weight_of(FamilySpec.hermite(2, 0)), None),
            (WeightExpr(exp_poly=P(0, -1), interval=half), "laguerre"),
            (WeightExpr(exp_poly=P(0, -1), arctan_coeff=Fraction(1), interval=half), None),
            (WeightExpr(exp_poly=P(0, -1), quad_exp=Fraction(-1), interval=half), None),
            (WeightExpr(power_factors=(PowerFactor(Fraction(1), Fraction(-1, 2)),),
                        exp_poly=P(0, -1), interval=half), None),
            (WeightExpr(quad_exp=Fraction(-2), interval=real), "romanovski"),
            (WeightExpr(power_factors=(PowerFactor(Fraction(0), Fraction(2)),),
                        quad_exp=Fraction(-4), interval=real), None),
        ]
        for w, route in cases:
            assert _classify(w)[0] == route, w.formula()

    def test_rule_reach_is_the_degree_verdict(self):
        # p x^k is integrable (integrability(w, k)) exactly when the rule has no division
        # and k <= its reach, on every weight shape; the reach is finite only on the
        # Romanovski shape
        assert _classify(weight_of(FamilySpec.romanovski(Fraction(-13, 2), 1))) == ("romanovski", (), 7)
        assert _classify(weight_of(FamilySpec.romanovski(-7, 0))) == ("romanovski", (), 7)
        assert _classify(weight_of(FamilySpec.romanovski(0, 1))) == ("romanovski", (), 0)
        assert _classify(weight_of(FamilySpec.romanovski(1, 1))) == ("romanovski", (), -1)
        assert _classify(weight_of(FamilySpec.hermite(-2, 0))) == ("gaussian", (), math.inf)
        rng = random.Random(131)
        reaches = set()
        for _ in range(40):
            alpha = Fraction(rng.randint(-30, 6), rng.randint(1, 4))
            beta = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for spec in (
                FamilySpec.jacobi(-1, alpha, beta),
                FamilySpec.romanovski(alpha, beta),
                FamilySpec.laguerre(alpha or Fraction(-1), beta),
                FamilySpec.hermite(alpha or Fraction(-1), beta),
            ):
                w = weight_of(spec)
                _, divisions, reach = _classify(w)
                reaches.add("division" if divisions else reach if reach in (-1, math.inf) else "finite")
                for k in range(20):
                    assert (not divisions and k <= reach) == integrability(w, k).integrable, (spec, k)
        assert reaches == {"division", -1, math.inf, "finite"}

    def test_constant_exponential_neither_decays_nor_grows(self):
        # e^E with E constant is a constant factor, so the power law decides at the infinite
        # ends, in the library's rule and in the oracle: exp(-1) on R admits no degree, and
        # (x^2+1)^(-1) e admits degree 0 (its integral is e pi)
        bare = WeightExpr(exp_poly=P(-1), interval=Interval(None, None))
        assert _classify(bare) == (None, (), -1)
        assert integrability(bare).conditions[-1] == ("+inf", False, "asymptotic power 0 >= -1")
        cauchy = WeightExpr(quad_exp=Fraction(-1), exp_poly=P(1), interval=Interval(None, None))
        assert _classify(cauchy) == (None, (), 0)
        assert integrability(cauchy).integrable and not integrability(cauchy, 1).integrable


class TestBoundaryVanishing:
    def test_jacobi_legendre_case(self):
        spec = FamilySpec.jacobi(-1, -2, 0)
        a, _ = ab_of(spec)
        verdict = boundary_vanishing(weight_of(spec), a, deg_pair=(3, 4))
        assert verdict.vanishes
        # (1-x^2) * 1 has exponent 1 at both endpoints
        assert all(ok for _, ok, _ in verdict.conditions)

    def test_romanovski_power_law_threshold(self):
        spec = FamilySpec.romanovski(Fraction(-13, 2), 1)
        a, _ = ab_of(spec)
        w = weight_of(spec)
        assert boundary_vanishing(w, a, deg_pair=(3, 4)).vanishes  # 3+4-17/2+1 < 0
        assert not boundary_vanishing(w, a, deg_pair=(4, 4)).vanishes

    def test_example_two_needs_vanishing_functions(self):
        spec = FamilySpec.chaudhry_qadir()
        a, _ = ab_of(spec)
        w = weight_of(spec)
        table = eigentable(build_operator(spec), 3)
        xi, eta = table[1].monic, table[2].monic
        ok = boundary_vanishing(w, a, deg_pair=(1, 2), funcs=(xi, eta))
        assert ok.vanishes
        bad = boundary_vanishing(w, a, deg_pair=(0, 2), funcs=(Poly.one(), eta))
        assert not bad.vanishes

    def test_generic_polynomials_fail_at_example_two_endpoint(self):
        spec = FamilySpec.chaudhry_qadir()
        a, _ = ab_of(spec)
        verdict = boundary_vanishing(weight_of(spec), a, deg_pair=(1, 2))
        assert not verdict.vanishes


F = Fraction
REAL_LINE = Interval(None, None)
ROMANOVSKI_W = weight_of(FamilySpec.romanovski(F(-13, 2), 1))  # (x^2+1)^(-17/4) e^(arctan x)
CQ_W = weight_of(FamilySpec.chaudhry_qadir())  # |t - 1|^(-1) on (0, 1), a = t - t^2
CQ_A = P(0, 1, -1)
CQ_ETA = eigentable(build_operator(FamilySpec.chaudhry_qadir()), 2)[2].monic
ONE_MINUS_X2 = P(1, 0, -1)


def _w(*factors, interval=Interval(F(-1), F(1)), **parts):
    return WeightExpr(
        power_factors=tuple(PowerFactor(F(r), F(e)) for r, e in factors),
        interval=interval,
        **parts,
    )


@pytest.mark.parametrize(
    "verdict, expected",
    [
        pytest.param(
            lambda: integrability(_w((-1, F(1, 2)), (1, -1))),
            (("x=-1", True, "power exponent 1/2 > -1"), ("x=1", False, "power exponent -1 <= -1")),
            id="finite-roots",
        ),
        pytest.param(
            lambda: integrability(
                _w((0, F(3, 2)), interval=Interval(F(0), None), exp_poly=P(0, -1))
            ),
            (("x=0", True, "power exponent 3/2 > -1"), ("+inf", True, "exponential factor decays")),
            id="half-line",
        ),
        pytest.param(
            lambda: integrability(_w(interval=REAL_LINE, exp_poly=P(0, 0, -1))),
            (("-inf", True, "exponential factor decays"),
             ("+inf", True, "exponential factor decays")),
            id="inf-decays",
        ),
        pytest.param(
            lambda: integrability(_w(interval=REAL_LINE, exp_poly=P(0, 0, 1))),
            (("-inf", False, "exponential factor grows"),
             ("+inf", False, "exponential factor grows")),
            id="inf-grows",
        ),
        pytest.param(
            lambda: integrability(_w(interval=REAL_LINE, exp_poly=P(0, 1))),
            (("-inf", True, "exponential factor decays"),
             ("+inf", False, "exponential factor grows")),
            id="odd-exponential",
        ),
        pytest.param(
            lambda: integrability(ROMANOVSKI_W, total_degree=7),
            (("-inf", True, "asymptotic power -3/2 < -1"),
             ("+inf", True, "asymptotic power -3/2 < -1")),
            id="inf-power-ok",
        ),
        pytest.param(
            lambda: integrability(ROMANOVSKI_W, total_degree=8),
            (("-inf", False, "asymptotic power -1/2 >= -1"),
             ("+inf", False, "asymptotic power -1/2 >= -1")),
            id="inf-power-fail",
        ),
        pytest.param(
            lambda: boundary_vanishing(_w(), ONE_MINUS_X2, deg_pair=(3, 4)),
            (("x=-1", True, "p*a exponent 1 > 0"), ("x=1", True, "p*a exponent 1 > 0")),
            id="boundary-positive",
        ),
        pytest.param(
            lambda: boundary_vanishing(CQ_W, CQ_A, deg_pair=(1, 2), funcs=(P(-1, 1), CQ_ETA)),
            (("x=0", True, "p*a exponent 1 > 0"),
             ("x=1", True, "p*a finite; both functions vanish here")),
            id="boundary-zero-vanishing",
        ),
        pytest.param(
            lambda: boundary_vanishing(CQ_W, CQ_A, deg_pair=(0, 2), funcs=(Poly.one(), CQ_ETA)),
            (("x=0", True, "p*a exponent 1 > 0"),
             ("x=1", False, "p*a finite and a function is nonzero here")),
            id="boundary-zero-nonvanishing",
        ),
        pytest.param(
            lambda: boundary_vanishing(CQ_W, CQ_A, deg_pair=(1, 2)),
            (("x=0", True, "p*a exponent 1 > 0"), ("x=1", False, "p*a exponent 0 <= 0")),
            id="boundary-zero-no-funcs",
        ),
        pytest.param(
            lambda: boundary_vanishing(_w((1, -2)), ONE_MINUS_X2),
            (("x=-1", True, "p*a exponent 1 > 0"), ("x=1", False, "p*a exponent -1 <= 0")),
            id="boundary-negative",
        ),
        pytest.param(
            lambda: boundary_vanishing(ROMANOVSKI_W, P(1, 0, 1), deg_pair=(3, 4)),
            (("-inf", True, "boundary term asymptotic power -1/2 < 0"),
             ("+inf", True, "boundary term asymptotic power -1/2 < 0")),
            id="boundary-inf-power-ok",
        ),
        pytest.param(
            lambda: boundary_vanishing(ROMANOVSKI_W, P(1, 0, 1), deg_pair=(4, 4)),
            (("-inf", False, "boundary term asymptotic power 1/2 >= 0"),
             ("+inf", False, "boundary term asymptotic power 1/2 >= 0")),
            id="boundary-inf-power-fail",
        ),
        pytest.param(
            lambda: boundary_vanishing(_w(interval=REAL_LINE, exp_poly=P(0, 1)), Poly.one()),
            (("-inf", True, "exponential factor decays"),
             ("+inf", False, "exponential factor grows")),
            id="boundary-inf-exponential",
        ),
    ],
)
def test_verdict_conditions_are_pinned(verdict, expected):
    assert verdict().conditions == expected


class TestPositivityAndEvaluation:
    @pytest.mark.parametrize("name", sorted(classical_presets()))
    def test_weight_positive_on_interior(self, name):
        w = weight_of(classical_presets()[name])
        for x in interior_points(w.interval, 50):
            assert weight_value(w, x) > 0

    def test_example_one_display_formula_values(self):
        # alpha=-3/2, beta=1/4: p = (1-x)^{-(beta+alpha+2)/2} (1+x)^{(beta-alpha-2)/2}
        alpha, beta = Fraction(-3, 2), Fraction(1, 4)
        w = weight_of(FamilySpec.jacobi(-1, alpha, beta))
        e_hi = -(beta + alpha + 2) / 2
        e_lo = (beta - alpha - 2) / 2
        for x in (-0.75, -0.2, 0.3, 0.9):
            expected = (1 - x) ** float(e_hi) * (1 + x) ** float(e_lo)
            assert weight_value(w, x) == pytest.approx(expected, rel=1e-12)

    def test_json_shape(self):
        data = weight_of(FamilySpec.romanovski(Fraction(-13, 2), 1)).to_json()
        assert data["quad_exp"] == "-17/4"
        assert data["arctan_coeff"] == "1"
        assert data["power_factors"] == []
        assert data["interval"] == {"lo": None, "hi": None}

    def test_formula_leads_with_a_constant_other_than_1(self):
        factor = PowerFactor(Fraction(1), Fraction(-1, 2))
        w = WeightExpr(constant=Fraction(3, 7), power_factors=(factor,))
        assert w.formula() == "3/7 * |x - 1|^(-1/2)"
        assert WeightExpr(constant=Fraction(3, 7)).formula() == "3/7"

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Interval(Fraction(1), Fraction(0))


def _seeded_weights(rng):
    def q():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 7))

    weights = [weight_of(FamilySpec.chaudhry_qadir())]
    for _ in range(3):
        weights += [
            weight_of(FamilySpec.jacobi(-1, q(), q())),  # two distinct roots
            weight_of(FamilySpec.romanovski(q(), q())),  # c*(x^2+1)
            weight_of(FamilySpec.laguerre(q(), q())),  # linear
            weight_of(FamilySpec.hermite(q(), q())),  # constant
        ]
    lo, hi = Fraction(-2, 3), Fraction(5, 2)
    weights.append(  # every factor kind at once, a zero exponent and a repeated root
        WeightExpr(
            constant=Fraction(3, 7),
            power_factors=(
                PowerFactor(lo, Fraction(0)),
                PowerFactor(lo, Fraction(5, 3)),
                PowerFactor(hi, Fraction(-3, 4)),
                PowerFactor(Fraction(1, 3), Fraction(2)),
                PowerFactor(lo, Fraction(-1, 5)),
            ),
            quad_exp=Fraction(-7, 4),
            exp_poly=P(Fraction(1, 5), -1, Fraction(2, 9)),
            arctan_coeff=Fraction(-5, 2),
            interval=Interval(lo, hi),
        )
    )
    return weights


class TestLogEval:
    def test_matches_reference_bit_for_bit(self):
        rng = random.Random(20261018)
        checked = 0
        for w in _seeded_weights(rng):
            iv = w.interval
            for x in interior_points(iv, 25):
                d_lo = x - float(iv.lo) if iv.lo is not None else 1.0
                d_hi = float(iv.hi) - x if iv.hi is not None else 1.0
                calls = [(x, None, None), (x, d_lo, d_hi), (x, d_lo, None), (x, None, d_hi)]
                for tiny in (1e-300, 1e-200, 1e-100, 1e-30, 1e-8):
                    calls += [(x, tiny, d_hi), (x, d_lo, tiny), (x, tiny, None), (x, None, tiny)]
                for args in calls:
                    expected = log_eval_reference(w, *args)
                    assert not math.isnan(expected)
                    assert w.log_eval(*args) == expected, (w.formula(), args)
                    checked += 1
        assert checked == 14 * 25 * 24

    def test_zero_distance_is_infinite_not_an_error(self):
        w = weight_of(FamilySpec.jacobi(-1, Fraction(-3, 2), Fraction(1, 3)))
        e_lo, e_hi = w.power_exponent_at(Fraction(-1)), w.power_exponent_at(Fraction(1))
        assert e_lo < 0 and e_hi < 0
        assert w.log_eval(0.5, d_lo=0.0, d_hi=0.5) == math.inf
        assert w.log_eval(0.5, d_lo=0.5, d_hi=0.0) == math.inf
        assert w.log_eval(-1.0) == math.inf  # x - root itself is 0
        lo, hi = Fraction(0), Fraction(1)
        positive = WeightExpr(
            power_factors=(PowerFactor(lo, Fraction(1, 2)),), interval=Interval(lo, hi)
        )
        assert positive.log_eval(0.5, d_lo=0.0) == -math.inf
        flat = WeightExpr(
            power_factors=(PowerFactor(lo, Fraction(0)), PowerFactor(hi, Fraction(1, 2))),
            interval=Interval(lo, hi),
        )
        assert flat.log_eval(0.25, d_lo=0.0, d_hi=0.75) == 0.5 * math.log(0.75)
