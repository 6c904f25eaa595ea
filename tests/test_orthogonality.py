import functools
import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from types import SimpleNamespace

import pytest

import specpoly.orthogonality as orthogonality
import specpoly.weights
from specpoly import (
    DiffOperator,
    EigenStatus,
    FamilySpec,
    GramEntry,
    Interval,
    NoConvergence,
    NonIntegrable,
    OrthoReport,
    Poly,
    PowerFactor,
    UnsupportedLeadingCoefficient,
    WeightExpr,
    build_operator,
    classical_presets,
    derive_weight,
    eigentable,
    finite_orthogonality_report,
    gram_matrix,
    inner_product,
)
from specpoly.ratpoly import common_denominator
from specpoly.weights import _classify, _exponent

from oracles import (
    NotPolynomialReducible,
    boundary_vanishing,
    certified_zero,
    divide_and_integrate,
    favard_diagonals,
    integrability,
    moment_scale,
    pair_quadrature,
    random_poly,
    ref_strip_root,
    weight_value,
)


def P(*coeffs):
    return Poly(coeffs)


def weight_of(spec):
    return derive_weight(*pair_of(spec))


def pair_of(op):
    """The Pearson pair (a, b) of op, a second-order DiffOperator or a FamilySpec's."""
    op = op if isinstance(op, DiffOperator) else build_operator(op)
    return op.coeffs[2], op.coeffs[1]


def exact_value(w, f, g):
    """<f, g> from inner_product, whose route must be the exact one."""
    value, method, err_est = inner_product(w, f, g)
    assert (method, err_est) == ("exact", None), (method, err_est)
    return value


def router_form(w, pearson, polys):
    """(rule, reduced, classes): the moment block's inputs for w on its Pearson pair and the
    labelled nonzero polys, built the router's way (_classify gives the rule, and the router's
    reduction each label's reduced form), and each label's class, its root orders at the
    rule's divisions."""
    rule = _classify(w)
    classes, reduced = orthogonality._reduce(polys, rule[1])
    return rule, reduced, classes


def form_answers(w, pearson, form, pairs):
    """Per label pair, what the router makes of it on form, router_form's (rule, reduced,
    classes), outside the certified regime: the router's verdict is the key s_f + s_g - k at
    each division (r, k) of the rule, and a pair with a negative part is refused, here as the
    divisibility it lacks at the first such division, "f*g is not divisible by (x - r)^k" (the
    oracle's NotPolynomialReducible text); the others are asked of the block in one call and
    answered (value, key): a Fraction on the exact route, a float on the moment route."""
    rule, reduced, classes = form
    answers, asked, keys = {}, [], []
    for m, n in pairs:
        key = tuple(s + t - k for s, t, (_, k) in zip(classes[m], classes[n], rule[1]))
        if key and min(key) < 0:
            r, k = rule[1][next(i for i, e in enumerate(key) if e < 0)]
            answers[m, n] = f"f*g is not divisible by (x - {r})^{k}"
        else:
            asked.append((m, n))
            keys.append(key)
    valued = orthogonality._moment_block(w, pearson, rule, reduced, asked, keys)
    assert len(valued) == len(asked)
    assert all(type(v) is (Fraction if rule[0] == "exact" else float) for v in valued)
    answers.update(zip(asked, zip(valued, keys)))
    return [answers[pair] for pair in pairs]


def routed_block(w, pearson, funcs, pairs, eigenvalues=None):
    """The arguments of the one call the router makes to _moment_block for pairs (i, j) into
    funcs (an eigentable of eigenvalues, when given): (weight, pearson, rule, reduced, asked,
    keys), the integrable pairs with their keys; None where the router asks the block
    nothing.  The router's answers are the block's values, unchanged."""
    calls, block = [], orthogonality._moment_block

    def spy(*args):
        calls.append((args, block(*args)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orthogonality, "_moment_block", spy)
        tol = orthogonality.DEFAULT_TOL
        routes = orthogonality._route(w, pearson, funcs, pairs, tol, eigenvalues)[1]
    assert len(calls) <= 1
    if not calls:
        return None
    args, values = calls[0]
    answers = dict(zip(pairs, routes))
    assert [answers[pair][0] for pair in args[4]] == values
    return args


def form_pair(w, f, g):
    """The moment block's answer to the one pair (f, g) on a weight that _classify routes to the
    exact route, built the router's way: its exact value, or the pair's refusal text."""
    assert _classify(w)[0] == "exact", w.formula()
    pearson = w.pearson_pair()
    (answer,) = form_answers(w, pearson, router_form(w, pearson, {0: f, 1: g}), [(0, 1)])
    return answer[0] if isinstance(answer, tuple) else answer


def left_to_quadrature(w, reason):
    """_classify routes the finite-interval weight w to quadrature, the oracle refuses <1, 1>
    on it with reason, and inner_product integrates it by quadrature."""
    assert _classify(w)[0] == "finite", w.formula()
    with pytest.raises(NotPolynomialReducible, match=f"^{re.escape(reason)}$"):
        divide_and_integrate(w, Poly.one(), Poly.one())
    assert inner_product(w, Poly.one(), Poly.one())[1] == "quadrature"


LEGENDRE_W = weight_of(FamilySpec.jacobi(-1, -2, 0))
CHEB_W = weight_of(FamilySpec.jacobi(-1, -1, 0))
CQ_SPEC = FamilySpec.chaudhry_qadir()
CQ_W = weight_of(CQ_SPEC)
ROM_SPEC = FamilySpec.romanovski(Fraction(-13, 2), 1)
ROM_W = weight_of(ROM_SPEC)


class TestExactPath:
    def test_legendre_odd_pair_is_zero(self):
        assert inner_product(LEGENDRE_W, Poly((0, 1)), P("-1/3", 0, 1)) == (0, "exact", None)

    def test_legendre_norm(self):
        p = P("-1/3", 0, 1)
        assert inner_product(LEGENDRE_W, p, p) == (Fraction(8, 45), "exact", None)

    def test_example_two_cancellation(self):
        # eigenfunctions (t-1) and (t-1)(t-c2) with c2 from back-substitution
        table = eigentable(build_operator(CQ_SPEC), 2)
        y1, y2 = table[1].monic, table[2].monic
        assert y1 == P(-1, 1)
        psi, order = y2.strip_root(1, 1)
        assert order == 1
        c2 = -psi.coeff(0)
        assert c2 == Fraction(1, 3)
        assert inner_product(CQ_W, y1, y2) == (0, "exact", None)
        # independent route: integral of (1-t)(t-c2) over (0,1) via antiderivative
        direct = (P(1, -1) * P(-c2, 1)).definite_integral(0, 1)
        assert direct == 0

    def test_example_two_norm_is_positive(self):
        table = eigentable(build_operator(CQ_SPEC), 2)
        y2 = table[2].monic
        assert exact_value(CQ_W, y2, y2) > 0

    def test_transcendental_weight_not_reducible(self):
        # the exact route is the finite interval's: _classify leaves a transcendental factor
        # there to quadrature, and the Romanovski weight's pairs take the moment route
        left_to_quadrature(WeightExpr(arctan_coeff=Fraction(1)), "weight has a transcendental factor")
        value, method, err_est = inner_product(ROM_W, Poly.one(), Poly.one())
        assert method == "moment" and type(value) is float and err_est is None

    def test_fractional_exponent_not_reducible(self):
        left_to_quadrature(CHEB_W, "non-integer exponent -1/2 at root -1")

    def test_zero_polynomial_is_zero_before_exponent_checks(self):
        # a zero f or g is an exact zero on a finite interval, also where _classify leaves the
        # weight to quadrature; on the Romanovski shape it is the moment route's 0.0
        interior = WeightExpr(power_factors=(PowerFactor(Fraction(0), Fraction(1)),))
        for w in (CHEB_W, interior):
            for f, g in ((Poly(), Poly((0, 1))), (P(1, 2), Poly())):
                value = exact_value(w, f, g)
                assert value == 0 and isinstance(value, Fraction)
        assert _classify(interior)[0] == "finite"
        with pytest.raises(NotPolynomialReducible, match=r"^root 0 lies inside \(-1, 1\)$"):
            divide_and_integrate(interior, Poly.one(), Poly.one())
        value = inner_product(ROM_W, Poly(), Poly.one())
        assert value == (0.0, "moment", None) and type(value[0]) is float

    def test_uncancelled_negative_power_not_reducible(self):
        # the router refuses the pair at the division (1, 1), where the oracle finds f*g
        # not divisible, and the block is never asked it
        reason = "f*g is not divisible by (x - 1)^1"
        with pytest.raises(NotPolynomialReducible, match=f"^{re.escape(reason)}$"):
            divide_and_integrate(CQ_W, Poly.one(), Poly((0, 1)))
        assert form_pair(CQ_W, Poly.one(), Poly((0, 1))) == reason
        assert routed_block(CQ_W, CQ_W.pearson_pair(), [Poly.one(), Poly((0, 1))], [(0, 1)]) is None
        with pytest.raises(NonIntegrable):
            inner_product(CQ_W, Poly.one(), Poly((0, 1)))

    # the exact route integrates powers rooted at the interval's ends only: _classify leaves
    # |x|^2 (inside) and |x - 3| (outside) on (-1, 1) to quadrature, which meets the oracle's
    # exact integral
    @pytest.mark.parametrize("root, exponent, expected", [(0, 2, Fraction(2, 3)), (3, 1, 6)])
    def test_power_rooted_off_the_ends_is_refused(self, root, exponent, expected):
        w = WeightExpr(power_factors=(PowerFactor(Fraction(root), Fraction(exponent)),))
        assert _classify(w)[0] == "finite"
        assert divide_and_integrate(w, Poly.one(), Poly.one()) == expected
        value, method, _ = inner_product(w, Poly.one(), Poly.one())
        assert method == "quadrature" and abs(value - expected) <= 1e-12

    def test_left_endpoint_odd_exponent_sign(self):
        # a = t(1-t), b = t gives p = |t|^-1 |t-1|^-2 on (0,1); for
        # f = g = t(t-1) everything cancels down to integral of t
        a, b = P(0, 1, -1), P(0, 1)
        w = derive_weight(a, b)
        f = P(0, -1, 1)
        assert inner_product(w, f, f) == (Fraction(1, 2), "exact", None)

    def test_positive_integer_exponents_multiply_in(self):
        # jacobi alpha=-4, beta=0 has the polynomial weight (1-x)(1+x)
        spec = FamilySpec.jacobi(-1, -4, 0)
        op = build_operator(spec)
        w = weight_of(spec)
        assert inner_product(w, Poly.one(), Poly.one()) == (Fraction(4, 3), "exact", None)
        report = gram_matrix(spec, 6)
        assert all(e.method == "exact" for e in report.entries)
        assert report.off_diagonal_max_relative == 0.0

    def test_bilinearity_exact(self):
        rng = random.Random(79)
        for _ in range(15):
            f = random_poly(rng, 4)
            g = random_poly(rng, 4)
            h = random_poly(rng, 4)
            lhs = exact_value(LEGENDRE_W, f, g + h)
            rhs = exact_value(LEGENDRE_W, f, g) + exact_value(LEGENDRE_W, f, h)
            assert lhs == rhs

    def test_symmetry(self):
        rng = random.Random(83)
        f, g = random_poly(rng, 5), random_poly(rng, 5)
        assert exact_value(LEGENDRE_W, f, g) == exact_value(LEGENDRE_W, g, f)


def quad(w, f, g, tol=orthogonality.DEFAULT_TOL):
    """The quadrature leg of one pair alone: what the Gram sweep gives its entry."""
    return orthogonality._numeric_quad(w, _classify(w)[0], [f, g], [(0, 1)], tol)[0]


def _jacobi_with_exponents(p, q):
    """Jacobi (eps = -1) family whose weight is (1-x)^p (1+x)^q."""
    return FamilySpec.jacobi(-1, -(p + q + 2), q - p)


def _same_as_oracle(w, f, g):
    try:
        expected = divide_and_integrate(w, f, g)
    except NotPolynomialReducible as error:
        assert form_pair(w, f, g) == str(error)
        with pytest.raises(NonIntegrable):
            inner_product(w, f, g)
        return False
    assert inner_product(w, f, g) == (expected, "exact", None)
    return True


# TestMomentAssembly's seeded draws: Gram matrices on the Jacobi weights (1-x)^p (1+x)^q
# and chaudhry-qadir, and hand-built weights with more than one factor at a root
ASSEMBLY_SPECS = [(_jacobi_with_exponents(p, q), 12) for p in range(-2, 5) for q in range(-2, 5)]
ASSEMBLY_SPECS.append((CQ_SPEC, 14))
PLANTED_WEIGHTS = [
    WeightExpr(
        Fraction(-3, 7),
        (PowerFactor(Fraction(2), Fraction(e1)), PowerFactor(Fraction(2), Fraction(e2))),
        interval=Interval(Fraction(0), Fraction(2)),
    )
    for e1, e2 in ((-1, -1), (-1, 2), (3, -2), (-2, 3), (1, 1))
]


def _block_key(w, f, g):
    """s_f + s_g - k at each end r of w's interval, in order, where k = floor(-E_r) > 0 for
    the summed exponent E_r, s the root order of f or g at r (ref_strip_root) capped at k."""
    key = []
    for r in (w.interval.lo, w.interval.hi):
        k = math.floor(-sum(pf.exponent for pf in w.power_factors if pf.root == r))
        if k > 0:
            key.append(sum(ref_strip_root(h.coeffs, r, k)[1] for h in (f, g)) - k)
    return tuple(key)


class TestMomentAssembly:
    def test_matches_divide_and_integrate(self):
        specs = ASSEMBLY_SPECS
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
        weights = [weight_of(spec) for spec, _ in specs] + PLANTED_WEIGHTS
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


    def test_block_agrees_with_oracle_in_any_order(self):
        # a Gram matrix's pairs as one block, shuffled, and one pair at a time give the same
        # answers: divide_and_integrate's value (and inner_product's) with the key
        # s_f + s_g - k per division, or, where the router refuses the key, the oracle's
        # NotPolynomialReducible text and inner_product's NonIntegrable
        rng = random.Random(107)
        draws = []
        for spec, n_max in ASSEMBLY_SPECS:
            table = eigentable(build_operator(spec), n_max)
            polys = {r.degree: r.monic for r in table if r.monic is not None}
            draws.append((weight_of(spec), pair_of(spec), polys))
        for w in PLANTED_WEIGHTS:
            polys = {}
            while len(polys) < 10:
                f = random_poly(rng, rng.randint(0, 4))
                for pf in w.power_factors:
                    f = f * P(-pf.root, 1) ** rng.randint(0, 3)
                if f:  # the block's labels are nonzero, as a Gram matrix's are
                    polys[len(polys)] = f
            draws.append((w, w.pearson_pair(), polys))
        exact = refused = 0
        for w, pearson, polys in draws:
            assert _classify(w)[0] == "exact", w.formula()
            form = router_form(w, pearson, polys)
            pairs = [(m, n) for m in polys for n in polys if m <= n]
            answers = dict(zip(pairs, form_answers(w, pearson, form, pairs)))
            shuffled = rng.sample(pairs, len(pairs))
            assert dict(zip(shuffled, form_answers(w, pearson, form, shuffled))) == answers
            for (m, n), answer in answers.items():
                assert form_answers(w, pearson, form, [(m, n)]) == [answer]
                f, g = polys[m], polys[n]
                try:
                    expected = divide_and_integrate(w, f, g)
                except NotPolynomialReducible as error:
                    assert answer == str(error) == form_pair(w, f, g), (w, m, n)
                    with pytest.raises(NonIntegrable):
                        inner_product(w, f, g)
                    refused += 1
                    continue
                assert answer == (expected, _block_key(w, f, g)), (w, m, n)
                assert inner_product(w, f, g) == (expected, "exact", None)
                exact += 1
        assert exact > 4500 and refused > 50

    def test_moment_route_reads_only_gated_keys(self, monkeypatch):
        # the router decides integrability on the moment route: the block is asked exactly the
        # integrable pairs of two eigenfunctions, each with its key, returns for each a float,
        # the Gram entry's value, and no refusal, and reads the moments of each key once
        # (_moment_ratios, one call per key in order of first appearance, each on its own
        # shifted pair), and no other key, and on the Romanovski shape m_0 once per key; a
        # weight with no integrable pair calls no block and reads none, and one in the
        # certified regime calls no block, reads no moment ratio and m_0 once
        pair_reads, m_0_reads, calls = [], [], []
        ratios, real_line = orthogonality._moment_ratios, orthogonality._real_line_moment
        block = orthogonality._moment_block

        def spy_ratios(pair, *args):
            pair_reads.append(tuple(pair))
            return ratios(pair, *args)

        def spy_real_line(w):
            m_0_reads.append(w)
            return real_line(w)

        def spy_block(*args):
            calls.append((args[4], args[5], block(*args)))
            return calls[-1][2]

        monkeypatch.setattr(orthogonality, "_moment_ratios", spy_ratios)
        monkeypatch.setattr(orthogonality, "_real_line_moment", spy_real_line)
        monkeypatch.setattr(orthogonality, "_moment_block", spy_block)
        specs = [
            (FamilySpec.laguerre(-1, 1), 8, 0),  # no divisor: the certified regime
            (FamilySpec.laguerre(-1, -2), 8, 6),  # |x|^(-3) e^(-x): k = 3
            (FamilySpec.laguerre(-2, -3), 8, 10),  # |x|^(-4) e^(-2x): k = 4
            (FamilySpec.laguerre(1, -1), 8, 3),  # |x|^(-2) e^x on (-inf, 0): k = 2
            (FamilySpec.laguerre(-1, Fraction(-1, 2)), 6, 28),  # |x|^(-3/2) e^(-x): none integrable
            (ROM_SPEC, 10, 46),  # the reach: m + n <= 7; the certified regime
        ]
        for spec, n, refused in specs:
            pair_reads.clear()
            m_0_reads.clear()
            calls.clear()
            w = weight_of(spec)
            romanovski = _classify(w)[0] == "romanovski"
            reach = _classify(w)[2] if romanovski else math.inf
            table = eigentable(build_operator(spec), n)
            gram = gram_matrix(spec, n)
            integrable = [e for e in gram.entries if e.integrable]
            assert len(gram.entries) - len(integrable) == refused, spec
            valued = [
                (e.m, e.n) for e in integrable
                if table[e.m].monic is not None and table[e.n].monic is not None
            ]
            if not _classify(w)[1]:  # the certified regime: Favard's diagonals, off the pair
                assert calls == pair_reads == [] and len(m_0_reads) == romanovski, spec
                assert all(type(e.value) is float for e in integrable) and valued, spec
                continue
            assert len(calls) == bool(valued), spec
            asked, asked_keys, answers = calls[0] if calls else ([], [], [])
            assert sorted(asked) == sorted(valued) and len(answers) == len(asked), spec
            for (m, k), key, answer in zip(asked, asked_keys, answers):
                assert key == _block_key(w, table[m].monic, table[k].monic) and min(key, default=0) >= 0
                assert type(answer) is float and answer == gram.entry(m, k).value
            keys = {_block_key(w, table[e.m].monic, table[e.n].monic) for e in integrable}
            reads = list(dict.fromkeys(asked_keys))  # the order the block reads its keys in
            assert set(reads) == keys, spec
            assert len(pair_reads) == len(set(pair_reads)) == len(reads), spec
            assert len(m_0_reads) == (len(reads) if romanovski else 0), spec
            assert all(e.m + e.n <= reach for e in integrable), spec

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
        specs = [_jacobi_with_exponents(p, q) for p, q in ((-1, -1), (-2, 0), (-3, 2), (1, -2))]
        weights = [(weight_of(spec), pair_of(spec)) for spec in specs]
        planted = WeightExpr(
            Fraction(-3, 7),
            (PowerFactor(lo, Fraction(-2)), PowerFactor(hi, Fraction(-1))),
            interval=Interval(lo, hi),
        )
        weights.append((planted, planted.pearson_pair()))
        exact = refused = 0
        for w, pearson in weights:
            assert _classify(w)[0] == "exact", w.formula()
            polys = {}
            for label in range(8):
                f = big_poly(rng.randint(0, 5))
                for pf in w.power_factors:
                    f = f * P(-pf.root, 1) ** rng.randint(0, 2)
                polys[label] = f
            pairs = [(m, n) for m in polys for n in polys]
            form = router_form(w, pearson, polys)
            for (m, n), answer in zip(pairs, form_answers(w, pearson, form, pairs)):
                f, g = polys[m], polys[n]
                try:
                    expected = divide_and_integrate(w, f, g)
                except NotPolynomialReducible as error:
                    assert answer == str(error), (w, m, n)
                    refused += 1
                    continue
                assert answer[0] == expected == exact_value(w, f, g)
                exact += 1
        assert exact > 150 and refused > 50

    def test_factor_order_at_a_root_does_not_matter(self):
        # |x-1|^(-2) |x-1|^3 is |x-1|: the divisions follow the summed
        # exponent, not the first factor's, so <1, 1> = 1/2 exactly either way
        one = Fraction(1)
        for exponents in ((-2, 3), (3, -2)):
            w = WeightExpr(
                one,
                tuple(PowerFactor(one, Fraction(e)) for e in exponents),
                interval=Interval(Fraction(0), one),
            )
            pearson = w.pearson_pair()
            rule, reduced, classes = router_form(w, pearson, {0: Poly.one()})
            assert rule[1] == () and classes == {0: ()}
            block = orthogonality._moment_block(w, pearson, rule, reduced, [(0, 0)], [()])
            assert block == [Fraction(1, 2)]
            assert inner_product(w, Poly.one(), Poly.one()) == (Fraction(1, 2), "exact", None)


class TestMomentBlockCalls:
    # the router calls _moment_block at most once per Gram matrix, Romanovski report or
    # inner_product call, and not at all on a quadrature route, for a zero f, where no pair
    # is integrable or in the certified regime (distinct eigenvalues, and every division's
    # E_r = -k_r below the lowest degree: Favard's diagonals); the block returns one value per
    # asked pair, a Fraction on the exact route and a float on the moment route, and values
    # every asked pair from its rows
    @pytest.mark.parametrize("call, kind", [
        (lambda: gram_matrix(FamilySpec.jacobi(-1, -2, 0), 6), None),  # the certified regime
        # |x + 1|^-1 on (-1, 1): the division (-1, 1), with degree 0 below it
        (lambda: gram_matrix(FamilySpec.jacobi(-1, -1, -1), 6), Fraction),
        (lambda: gram_matrix(CQ_SPEC, 6), None),  # the certified regime at the division (1, 1)
        (lambda: inner_product(LEGENDRE_W, P(1, 2), P(0, 1, 3)), Fraction),
        (lambda: gram_matrix(FamilySpec.laguerre(-1, -2), 6), float),
        (lambda: gram_matrix(ROM_SPEC, 6), None),  # the certified regime
        (lambda: finite_orthogonality_report(Fraction(-13, 2), 1, 6), None),  # the same
        (lambda: inner_product(ROM_W, P(1, 2), P(0, 1)), float),
        (lambda: gram_matrix(FamilySpec.jacobi(-1, -1, 0), 4), None),  # quadrature, finite
        (lambda: gram_matrix(FamilySpec.hermite(-2, 0), 4), None),  # quadrature, Gaussian
        (lambda: inner_product(CHEB_W, P(1, 2), P(0, 1)), None),
        (lambda: inner_product(ROM_W, Poly(), P(0, 1)), None),  # a zero f
        (lambda: gram_matrix(FamilySpec.laguerre(-1, Fraction(-1, 2)), 6), None),  # none integrable
    ], ids=[
        "gram-exact", "gram-divisor", "gram-divisor-regime", "inner-exact", "gram-laguerre",
        "gram-romanovski", "romanovski-report", "inner-moment", "gram-finite-quadrature",
        "gram-gaussian-quadrature", "inner-quadrature", "inner-zero", "gram-none-integrable",
    ])
    def test_block_runs_at_most_once(self, monkeypatch, call, kind):
        calls, block = [], orthogonality._moment_block

        def spy(*args):
            calls.append((args[4], block(*args)))
            return calls[-1][1]

        monkeypatch.setattr(orthogonality, "_moment_block", spy)
        call()
        assert len(calls) == (kind is not None)
        for asked, values in calls:
            assert len(values) == len(asked) > 0
            assert all(type(v) is kind for v in values)

    @pytest.mark.parametrize("source, n, report", [
        (FamilySpec.laguerre(-1, 0), 8, False),  # |x|^-1 e^(-x): degrees from 0, below K = 1
        (FamilySpec.romanovski(-6, 0), 5, True),  # lambda_m = lambda_k at m + k = 7
    ], ids=["laguerre-degree-0", "romanovski-report-collision"])
    def test_block_values_every_integrable_pair_from_its_rows(self, monkeypatch, source, n,
                                                              report):
        # outside the certified regime the router asks the block every integrable pair of
        # two eigenfunctions, the off-diagonals that PAPER.md's argument makes exact zeros
        # (certified_zero) among them, and the block values each from its rows: with every
        # reduced form replaced by the constant 1 each value is its key's m_0, nonzero, where
        # a value that read no row would stay 0
        op = build_operator(source)
        w, pearson, table = weight_of(source), pair_of(source), eigentable(op, n)
        gram = gram_matrix(op, n)
        integrable = [(e.m, e.n) for e in gram.entries if e.integrable and e.value is not None]
        rule, _, classes = router_form(w, pearson, {d: r.monic for d, r in enumerate(table)
                                                    if r.monic is not None})
        caps, ids = [k for _, k in rule[1]], [r.eigenvalue for r in table]
        certified = [(m, k) for m, k in integrable if m != k and certified_zero(
            (ids[m], ids[k]), (classes[m], classes[k]), caps)]
        assert len(certified) >= 10 and all(gram.entry(m, k).value == 0 for m, k in certified)
        calls, block = [], orthogonality._moment_block

        def spy(*args):
            ones = {d: (den, [1]) for d, (den, _) in args[3].items()}
            calls.append((args[4], block(*args), block(*args[:3], ones, *args[4:])))
            return calls[-1][1]

        monkeypatch.setattr(orthogonality, "_moment_block", spy)
        if report:
            rom = finite_orthogonality_report(source.alpha, source.beta, n)
            assert rom.degenerate_degree_pairs
        else:
            gram_matrix(source, n)
        (asked, values, ones), = calls
        assert asked == integrable
        assert values == [gram.entry(m, k).value for m, k in asked]
        assert all(type(v) is float and v != 0 for v in ones), asked


class TestNumericPath:
    def test_agrees_with_exact_for_legendre(self):
        table = eigentable(build_operator(FamilySpec.jacobi(-1, -2, 0)), 6)
        for m in range(7):
            for n in range(m, 7):
                f, g = table[m].monic, table[n].monic
                exact = exact_value(LEGENDRE_W, f, g)
                numeric = quad(LEGENDRE_W, f, g, 1e-12)
                assert abs(numeric.value - float(exact)) < 1e-10 * (1 + abs(float(exact)))

    def test_chebyshev_closed_forms(self):
        # weight is exactly 1/sqrt(1-x^2): <1,1> = pi, <T2m, T2m> = pi/8 for monic T2
        assert quad(CHEB_W, Poly.one(), Poly.one(), 1e-12).value == pytest.approx(math.pi, rel=1e-11)
        t2 = P("-1/2", 0, 1)
        assert quad(CHEB_W, t2, t2, 1e-12).value == pytest.approx(math.pi / 8, rel=1e-10)
        assert quad(CHEB_W, Poly.one(), Poly((0, 1)), 1e-12).value == pytest.approx(0.0, abs=1e-13)

    def test_hermite_mass(self):
        herm_w = weight_of(FamilySpec.hermite(-2, 0))
        assert quad(herm_w, Poly.one(), Poly.one(), 1e-12).value == pytest.approx(math.sqrt(math.pi), rel=1e-11)

    @pytest.mark.parametrize("spec", [FamilySpec.laguerre(-1, 1), FamilySpec.laguerre(2, Fraction(1, 2))])
    def test_half_line_has_no_quadrature_map(self, spec):
        # every half-line weight derive_weight gives takes the moment route or has no
        # integrable pair (TestNoRouteWeights), and the sweep refuses a half line rather
        # than integrating it on the real line's map
        with pytest.raises(ValueError, match="no quadrature map for .* on \\((0, \\+inf|-inf, 0)\\)"):
            quad(weight_of(spec), Poly((0, 1)), P(0, 1, 1))

    def test_romanovski_first_pair(self):
        # the library sweeps no Romanovski weight (the moment route takes it): the
        # oracle's x = tan u sweep checks the first pair
        table = eigentable(build_operator(ROM_SPEC), 1)
        assert table[1].monic == P("-2/13", 1)
        res = pair_quadrature(ROM_W, table[0].monic, table[1].monic, 1e-10)
        norm0 = pair_quadrature(ROM_W, Poly.one(), Poly.one(), 1e-10).value
        norm1 = pair_quadrature(ROM_W, table[1].monic, table[1].monic, 1e-10).value
        assert abs(res.value) / math.sqrt(norm0 * norm1) < 1e-8

    def test_bilinearity_within_tolerance(self):
        rng = random.Random(89)
        tol = 1e-10
        for _ in range(5):
            f = random_poly(rng, 3)
            g = random_poly(rng, 3)
            h = random_poly(rng, 3)
            lhs = quad(CHEB_W, f, g + h, tol).value
            rhs = (
                quad(CHEB_W, f, g, tol).value
                + quad(CHEB_W, f, h, tol).value
            )
            assert abs(lhs - rhs) <= 2 * tol * (1 + abs(lhs))

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
                exact = exact_value(w, f, g)
                scale = math.sqrt(exact_value(w, f, f) * exact_value(w, g, g))
                assert abs(quad(w, f, g).value - exact) <= 1e-12 * scale
        # chaudhry-qadir's 1/(1-t) is integrable against f g, which vanishes at t = 1
        table = eigentable(build_operator(CQ_SPEC), 4)
        for m in range(1, 5):
            f = table[m].monic
            exact = exact_value(CQ_W, f, f)
            assert exact > 0
            assert abs(quad(CQ_W, f, f).value - exact) <= 1e-12 * exact


class TestRouter:
    def test_exact_preferred(self):
        value, method, err = inner_product(LEGENDRE_W, Poly.one(), Poly.one())
        assert method == "exact" and value == 2 and err is None

    def test_quadrature_fallback(self):
        value, method, err = inner_product(CHEB_W, Poly.one(), Poly.one())
        assert method == "quadrature"
        assert value == pytest.approx(math.pi, rel=1e-9)
        assert err is not None

    def test_non_integrable_raises(self):
        with pytest.raises(NonIntegrable):
            inner_product(ROM_W, Poly((0, 0, 0, 0, 1)), Poly((0, 0, 0, 0, 1)))
        with pytest.raises(NonIntegrable):  # 1/(1-t) is integrable only against a root at 1
            inner_product(CQ_W, Poly.one(), Poly((0, 1)))

    @pytest.mark.parametrize("lo, hi, c, e", [(0, None, 1, 0), (None, 0, -1, 0), (None, 0, -2, -2)])
    def test_growing_half_line_has_no_moment(self, lo, hi, c, e):
        # a hand-built |x|^e e^(c x) that grows toward its infinite end has the Laguerre shape
        # but no moment: its moment form reads no pair, whatever the roots of f and g, while
        # a zero f is still the moment route's 0.0 and a missing eigenfunction non-integrable
        w = WeightExpr(
            power_factors=(PowerFactor(Fraction(0), Fraction(e)),) if e else (),
            exp_poly=P(0, c),
            interval=Interval(lo, hi),
        )
        assert _classify(w)[0] == "laguerre"
        for f, g in ((P(1), P(1)), (P(0, 0, 1), P(0, 0, 1)), (P(1), P(2, 1))):
            with pytest.raises(NonIntegrable):
                inner_product(w, f, g)
        assert inner_product(w, Poly(), P(1)) == (0.0, "moment", None)
        pairs = [(0, 0), (0, 1), (1, 1)]
        routes = orthogonality._route(w, w.pearson_pair(), [None, P(0, 1)], pairs, 1e-10)[1]
        assert [route[2] for route in routes] == [False, False, False]

    # spec, n_max, the routes its pairs take, whether some pair is non-integrable
    GRAM_ROUTED = {
        "romanovski": (ROM_SPEC, 5, {"moment"}, True),
        "romanovski-collision": (FamilySpec.romanovski(-9, Fraction(-1, 2)), 6, {"moment"}, True),
        "jacobi": (FamilySpec.jacobi(-1, Fraction(-29, 12), Fraction(13, 12)), 5, {"quadrature"}, False),
        "hermite": (FamilySpec.hermite(Fraction(-5, 2), Fraction(2, 3)), 5, {"quadrature"}, False),
        "chaudhry-qadir": (CQ_SPEC, 6, {"exact"}, False),
        "laguerre": (classical_presets()["laguerre"], 6, {"moment"}, False),
        "laguerre-left-roots": (FamilySpec.laguerre(1, 0), 6, {"moment"}, True),
        "jacobi-root-orders": (FamilySpec.jacobi(-1, Fraction(-4, 3), Fraction(4, 3)), 6, {"quadrature"}, True),
    }

    @pytest.mark.parametrize("name", list(GRAM_ROUTED))
    def test_pairs_take_the_gram_route(self, name):
        # inner_product gives the Gram entry's (value, method, err_est) to the bit, and
        # raises NonIntegrable for a pair the Gram matrix calls non-integrable
        spec, n_max, methods, refuses = self.GRAM_ROUTED[name]
        weight, table = weight_of(spec), eigentable(build_operator(spec), n_max)
        seen, refused = set(), False
        for entry in gram_matrix(spec, n_max).entries:
            f, g = table[entry.m].monic, table[entry.n].monic
            if f is None or g is None:
                continue
            if entry.integrable:
                seen.add(entry.method)
                got = inner_product(weight, f, g)
                assert repr(got) == repr((entry.value, entry.method, entry.err_est)), (entry.m, entry.n)
            else:
                refused = True
                with pytest.raises(NonIntegrable):
                    inner_product(weight, f, g)
        assert (seen, refused) == (methods, refuses)

    @pytest.mark.parametrize(
        "weight, zero",
        [
            (ROM_W, (0.0, "moment", None)),
            (LEGENDRE_W, (Fraction(0), "exact", None)),
            (CQ_W, (Fraction(0), "exact", None)),
            (CHEB_W, (Fraction(0), "exact", None)),
            (weight_of(classical_presets()["hermite"]), (Fraction(0), "exact", None)),
        ],
        ids=["romanovski", "legendre", "chaudhry-qadir", "chebyshev1", "hermite"],
    )
    def test_zero_pair_reads_no_verdict(self, weight, zero):
        # p f g = 0 is integrable at any degree and needs no quadrature: on the moment
        # shape a moment zero, on every other shape an exact one
        p1 = eigentable(build_operator(ROM_SPEC), 1)[1].monic
        for f, g in ((Poly(), p1), (p1, Poly()), (Poly(), Poly((0,) * 9 + (1,)))):
            got = inner_product(weight, f, g)
            assert got == zero and type(got[0]) is type(zero[0])


class TestSelfAdjointness:
    def test_exact_for_legendre_weight(self):
        op = build_operator(FamilySpec.jacobi(-1, -2, 0))
        rng = random.Random(97)
        for _ in range(10):
            f = random_poly(rng, 5)
            g = random_poly(rng, 5)
            lf_g = exact_value(LEGENDRE_W, op.apply(f), g)
            f_lg = exact_value(LEGENDRE_W, f, op.apply(g))
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
            lf_g = quad(w, op.apply(f), g, 1e-11).value
            f_lg = quad(w, f, op.apply(g), 1e-11).value
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
                return (x * x + 1) * weight_value(ROM_W, x) * wronskian.eval_float(x)

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

    def test_relative_past_a_float_comes_from_exact_values(self):
        # <x^a, x^b> = L^(a+b+1) / (a+b+1) on (0, L), L = 10^6, a and b near 100: every value
        # is past a float's range, and |G_ab| / sqrt(G_aa G_bb) = sqrt((2a+1)(2b+1)) / (a+b+1)
        length = Fraction(10**6)
        w = WeightExpr(Fraction(1), (), interval=Interval(Fraction(0), length))
        powers = (100, 101, 103)
        # one shared eigenvalue: the monomials are no eigentable, so no pair is certified
        table = [SimpleNamespace(monic=Poly((0, 1)) ** a, eigenvalue=Fraction(0)) for a in powers]
        report = orthogonality._gram_for([0] * 4, lambda: table, w, w.pearson_pair(), range(3),
                                         "monomials")
        assert len(report.entries) == 6
        for e in report.entries:
            a, b = powers[e.m], powers[e.n]
            assert e.method == "exact" and e.value == length ** (a + b + 1) / (a + b + 1)
            if e.m != e.n:
                closed = math.sqrt((2 * a + 1) * (2 * b + 1)) / (a + b + 1)
                assert e.relative == pytest.approx(closed, rel=1e-15)

    def test_relative_below_a_float_comes_from_exact_values(self):
        # the same on (0, L), L = 10^-6, a and b near 30: every value is below a float's
        # smallest subnormal, and relative keeps its closed form
        length = Fraction(1, 10**6)
        w = WeightExpr(Fraction(1), (), interval=Interval(Fraction(0), length))
        powers = (29, 30, 32)
        table = [SimpleNamespace(monic=Poly((0, 1)) ** a, eigenvalue=Fraction(0)) for a in powers]
        report = orthogonality._gram_for([0] * 4, lambda: table, w, w.pearson_pair(), range(3),
                                         "monomials")
        closed = []
        for e in report.entries:
            a, b = powers[e.m], powers[e.n]
            assert e.value == length ** (a + b + 1) / (a + b + 1) and float(e.value) == 0.0
            if e.m != e.n:
                closed.append(math.sqrt((2 * a + 1) * (2 * b + 1)) / (a + b + 1))
                assert e.relative == pytest.approx(closed[-1], rel=1e-15)
        assert report.off_diagonal_max_relative == pytest.approx(max(closed), rel=1e-15)
        assert report.notes == (f"off-diagonal entries with relative above tol 1e-10: 3, max {max(closed):.3e}",)

    def test_zero_beside_a_divergent_diagonal_reads_zero_relative(self):
        # (1 - x)^-2 (1 + x)^-2: G_00 .. G_33 diverge; an exact-zero off-diagonal beside one
        # reads relative 0.0 (it read null), and only the nonzero ones count as unscaled
        report = gram_matrix(FamilySpec.jacobi(-1, 2, 0), 6)
        assert [e.integrable for e in report.entries if e.m == e.n] == [False] * 4 + [True] * 3
        off = [e for e in report.entries if e.m != e.n and e.value is not None]
        zeros = [e for e in off if e.value == 0]
        assert len(zeros) == 9 and all(e.relative == 0.0 for e in zeros)
        assert sum(1 for e in zeros if min(e.m, e.n) < 4) == 6
        assert len(off) - len(zeros) == 6 and all(e.relative is None for e in off if e.value)
        assert report.off_diagonal_max_relative == 0.0
        assert report.notes == ("nonzero off-diagonal entries without a scale (a diagonal norm "
                                "diverges), which the max relative skips: 6",)

    def test_fractional_laguerre_has_no_internal_fault(self):
        # quadrature nodes next to the half line's anchor once collapsed to x = 0.0 and
        # took log(0); the moment route has no nodes
        report = gram_matrix(FamilySpec.laguerre(Fraction(-3, 2), Fraction(7, 3)), 6)
        assert [e.method for e in report.entries] == ["moment"] * 28
        assert all(math.isfinite(e.value) for e in report.entries)
        assert all(e.value > 0 for e in report.entries if e.m == e.n)
        assert report.off_diagonal_max_relative == 0.0

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

    def test_missing_eigenfunction_keeps_its_integrability(self):
        # alpha = -3 makes degree 3 collide with degree 1, so it has no
        # eigenfunction; only (0, 3) has m + n + gamma + 1 < 0
        report = gram_matrix(FamilySpec.romanovski(-3, Fraction(1, 2)), 3)
        missing = [e for e in report.entries if e.n == 3]
        assert [e.integrable for e in missing] == [True, False, False, False]
        for e in missing:
            assert (e.value, e.method, e.note) == (None, None, "no degree-exact eigenfunction")
        assert "  0   3          - no degree-exact eigenfunction" in report.format_table()

    def test_table_rows_as_wide_as_the_header(self):
        entries = (
            GramEntry(0, 0, Fraction(2), "exact", True),
            GramEntry(0, 1, 1.5, "quadrature", True, 1e-12, 0.25),
            GramEntry(0, 2, None, None, True, note="no degree-exact eigenfunction"),
            GramEntry(1, 1, Fraction(2**90, 3**40), "exact", True),
            GramEntry(1, 2, None, None, False, note="non-integrable"),
        )
        report = OrthoReport("custom", (0, 1, 2), "1", "(-1, 1)", entries)
        lines = report.format_table().splitlines()
        header = lines.index(next(line for line in lines if line.lstrip().startswith("m ")))
        rows = lines[header + 2 : header + 2 + len(entries)]
        assert len(rows) == len(entries)
        assert {len(row) for row in rows} == {len(lines[header])}
        assert rows[1].endswith(" 1.500e+00    2.500e-01")
        assert lines[-1] == "max off-diagonal relative entry: 2.500e-01"

    def test_root_orders_decide_integrability(self):
        # weight |x+1|^(1/3) |x-1|^(-1): every eigenfunction of degree >= 1 has the
        # factor (x - 1), so only (0, 0) is non-integrable
        spec = FamilySpec.jacobi(-1, Fraction(-4, 3), Fraction(4, 3))
        table = eigentable(build_operator(spec), 8)
        assert all(table[d].monic(1) == 0 for d in range(1, 9))
        report = gram_matrix(spec, 8)
        assert [(e.m, e.n) for e in report.entries if not e.integrable] == [(0, 0)]
        for e in report.entries:
            if e.m >= 1 and e.n > e.m:
                assert e.method == "quadrature" and e.relative <= 1e-12, (e.m, e.n)

    def test_lower_end_root_orders_mirror_the_upper(self):
        # jacobi(-4/3, -4/3) is the x -> -x mirror of the case above: weight
        # |x+1|^(-1) |x-1|^(1/3), its root orders at the lower end, so entry (m, n) is
        # (-1)^(m+n) times the upper-end one
        mirror = gram_matrix(FamilySpec.jacobi(-1, Fraction(-4, 3), Fraction(-4, 3)), 8)
        upper = gram_matrix(FamilySpec.jacobi(-1, Fraction(-4, 3), Fraction(4, 3)), 8)
        assert [(e.m, e.n) for e in mirror.entries if not e.integrable] == [(0, 0)]
        assert [(e.m, e.n) for e in mirror.entries] == [(e.m, e.n) for e in upper.entries]
        for e, u in zip(mirror.entries[1:], upper.entries[1:]):
            assert e.value == pytest.approx((-1) ** (e.m + e.n) * u.value, rel=1e-14, abs=0), (e.m, e.n)

    def test_root_orders_form_no_product(self, monkeypatch):
        # a pair's verdict adds the root orders read once per eigenfunction: no Poly product
        # is formed on the way to any verdict
        spec = FamilySpec.jacobi(-1, Fraction(-4, 3), Fraction(4, 3))
        weight, funcs = weight_of(spec), [r.monic for r in eigentable(build_operator(spec), 8)]
        pearson = pair_of(spec)
        operands, mul = [], Poly.__mul__
        monkeypatch.setattr(Poly, "__mul__", lambda a, b: operands.append((a, b)) or mul(a, b))
        pairs = list(combinations_with_replacement(range(9), 2))
        routes = orthogonality._route(weight, pearson, funcs, pairs, 1e-10)[1]
        assert [pair for pair, route in zip(pairs, routes) if not route[2]] == [(0, 0)]
        assert operands == []

    @staticmethod
    def _spy_root_orders(monkeypatch) -> tuple[list, list]:
        """(rules, reads): the weights each _classify call reads, and each
        (numerators, p, q, cap) the router's reduction strips at the division root p/q."""
        rules, reads = [], []
        rule, strip = orthogonality._classify, orthogonality._strip_linear
        monkeypatch.setattr(
            orthogonality, "_strip_linear",
            lambda nums, p, q, cap: reads.append((nums, p, q, cap)) or strip(nums, p, q, cap),
        )
        monkeypatch.setattr(
            orthogonality, "_classify", lambda w: rules.append(w) or rule(w)
        )
        return rules, reads

    def test_one_integrability_read_per_matrix(self, monkeypatch):
        # no verdict is read (the library has none) and no gate is left: the router reads
        # weights' rule (_classify) once per matrix or inner_product call on every shape, the
        # exact one included, and a weight with no division reads no root order
        assert not hasattr(orthogonality, "integrability")
        assert not hasattr(orthogonality, "_integrability_gate")
        rules, reads = self._spy_root_orders(monkeypatch)
        for spec in (FamilySpec.hermite(Fraction(-5, 2), Fraction(2, 3)),
                     classical_presets()["legendre"], ROM_SPEC, classical_presets()["laguerre"]):
            rules.clear()
            gram_matrix(spec, 6)
            assert rules == [weight_of(spec)] and reads == [], spec
        rules.clear()
        inner_product(LEGENDRE_W, Poly.one(), Poly((0, 1)))
        assert rules == [LEGENDRE_W] and reads == []
        # laguerre(-1, 0)'s division (0, 1), with degree 0 below it: one root order per degree,
        # capped at 1; chaudhry-qadir's (1, 1) is in the certified regime, which reads none
        rules.clear()
        gram_matrix(FamilySpec.laguerre(-1, 0), 6)
        funcs = [r.monic for r in eigentable(build_operator(FamilySpec.laguerre(-1, 0)), 6)]
        assert rules == [weight_of(FamilySpec.laguerre(-1, 0))]
        assert reads == [(f.nums, 0, 1, 1) for f in funcs]
        rules.clear()
        reads.clear()
        gram_matrix(CQ_SPEC, 6)
        assert rules == [CQ_W] and reads == []

    def test_finite_interval_verdict_reads_root_orders_only(self, monkeypatch):
        # on (-1, 1) the degree plays no part: the one division (1, 1) decides all 45 pairs,
        # and each eigenfunction's root order there is read once, capped at 1
        rules, reads = self._spy_root_orders(monkeypatch)
        spec = FamilySpec.jacobi(-1, Fraction(-4, 3), Fraction(4, 3))
        report = gram_matrix(spec, 8)
        funcs = [r.monic for r in eigentable(build_operator(spec), 8)]
        assert len(rules) == 1 and reads == [(f.nums, 1, 1, 1) for f in funcs]
        assert [(e.m, e.n) for e in report.entries if not e.integrable] == [(0, 0)]

    def test_one_classification_per_call(self, monkeypatch):
        # the weight is classified once per Gram matrix, Romanovski report or inner_product
        # call, on the exact, moment and quadrature routes alike: the router hands its route
        # to the node sweep and to the Gram assembly, which classify nothing again
        assert not hasattr(orthogonality, "_shape")
        assert not hasattr(specpoly.weights, "_integrability_rule")
        calls, classify = [], orthogonality._classify
        monkeypatch.setattr(orthogonality, "_classify", lambda w: calls.append(w) or classify(w))
        presets = classical_presets()
        for spec, method in ((presets["legendre"], "exact"), (ROM_SPEC, "moment"),
                             (presets["laguerre"], "moment"), (presets["hermite"], "quadrature"),
                             (presets["chebyshev1"], "quadrature")):
            w = weight_of(spec)
            calls.clear()
            report = gram_matrix(spec, 3)
            assert calls == [w] and {e.method for e in report.entries} == {method}, spec
            calls.clear()
            assert inner_product(w, P(1, 1), P(0, 1))[1] == method
            assert calls == [w], spec
        calls.clear()
        report = finite_orthogonality_report(Fraction(-13, 2), 1, 5)
        assert calls == [ROM_W] and {p.verdict for p in report.pairs} == {"orthogonal", "non-integrable"}

    def test_one_exponent_reading_per_end(self, monkeypatch):
        # each finite end's exponent is read once per Gram matrix, by derive_weight: the block
        # takes the rule's exponents, which _classify sums off the weight's factors, so
        # orthogonality computes no weight fact
        assert not hasattr(orthogonality, "_exponent")
        calls, exponent = [], specpoly.weights._exponent
        monkeypatch.setattr(
            specpoly.weights, "_exponent", lambda a, b, r: calls.append(r) or exponent(a, b, r)
        )
        presets = classical_presets()
        for spec, ends in ((presets["legendre"], 2), (CQ_SPEC, 2), (presets["laguerre"], 1),
                           (ROM_SPEC, 0), (presets["hermite"], 0)):
            calls.clear()
            gram_matrix(spec, 6)
            assert len(calls) == ends, spec

    def test_no_degrees_no_entries(self):
        # chaudhry-qadir starts at degree 1: at n_max 0 the matrix has no pair at all
        report = gram_matrix(CQ_SPEC, 0)
        assert (report.degrees, report.entries, report.off_diagonal_max_relative) == ((), (), None)

    def test_chebyshev_gram_numeric_zeros(self):
        report = gram_matrix(FamilySpec.jacobi(-1, -1, 0), 4, 1e-11)
        for e in report.entries:
            if e.m != e.n:
                assert e.method == "quadrature"
                assert e.relative < 1e-9

    def test_custom_operator_gram(self):
        op = build_operator(FamilySpec.jacobi(-1, -2, 0))
        report = gram_matrix(op, 4)
        assert report.degrees == (0, 1, 2, 3, 4)
        assert report.off_diagonal_max_relative == 0.0

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_bad_tol_refused_on_every_route(self, tol):
        # exact, moment and quadrature routes alike, though only quadrature reads tol
        for spec in (classical_presets()["legendre"], ROM_SPEC, classical_presets()["chebyshev1"]):
            with pytest.raises(ValueError, match="^tol must be a finite positive number"):
                gram_matrix(spec, 2, tol)
            with pytest.raises(ValueError, match="^tol must be a finite positive number"):
                inner_product(weight_of(spec), Poly.one(), Poly((0, 1)), tol)

    def test_report_json_is_stable(self):
        a = gram_matrix(FamilySpec.jacobi(-1, -2, 0), 4).to_json()
        b = gram_matrix(FamilySpec.jacobi(-1, -2, 0), 4).to_json()
        assert a == b


def beta_mass(r1, r2, e1, e2):
    """The integral of (x - r1)^e1 (r2 - x)^e2 over [r1, r2], integer e1, e2 >= 0:
    (r2 - r1)^(e1+e2+1) B(e1+1, e2+1)."""
    factorial = math.factorial
    return (r2 - r1) ** (e1 + e2 + 1) * Fraction(
        factorial(e1) * factorial(e2), factorial(e1 + e2 + 1)
    )


def favard_draw():
    """Seeded operators with no division, each with a degree n: the Jacobi shape
    c (x - r1)(x - r2) D^2 + c ((e1 + 1)(x - r2) + (e2 + 1)(x - r1)) D with end exponents
    0..4; the Laguerre shape c (x - t) D^2 + c (E + 1 + s (x - t)) D, the weight
    |x - t|^E e^(s x) with rational E > -1 on either side of t; and the Romanovski shape near
    its reach (romanovski_shape_draw), with c (x^2 + 1) D^2 + c ((1 - K) x + h) D at
    K = 2n + 1 and K = 2n, where lambda_(n+1) repeats lambda_n or lambda_(n-1) and the
    diagonal (n, n) is inside the reach or just past it."""
    rng = random.Random(55)
    scales = [Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 2)]
    draw = []
    for _ in range(30):
        r1 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        r2 = r1 + Fraction(rng.randint(1, 9), rng.randint(1, 4))
        e1, e2, c = rng.randint(0, 4), rng.randint(0, 4), rng.choice(scales)
        b = c * ((e1 + 1) * P(-r2, 1) + (e2 + 1) * P(-r1, 1))
        draw.append((DiffOperator([Poly(), b, c * P(-r1, 1) * P(-r2, 1)]), rng.randint(0, 12)))
    for _ in range(30):
        t, c = Fraction(rng.randint(-6, 6), rng.randint(1, 3)), rng.choice(scales)
        e = Fraction(rng.randint(-2, 12), 3)
        s = rng.choice([-1, 1]) * Fraction(rng.randint(1, 6), rng.randint(1, 3))
        b = c * P(e + 1 - s * t, s)
        draw.append((DiffOperator([Poly(), b, c * P(-t, 1)]), rng.randint(0, 10)))
    for c, alpha, beta, n in romanovski_shape_draw()[::2]:
        draw.append((DiffOperator([Poly(), P(beta, alpha), c * P(1, 0, 1)]), n))
    for n in range(1, 9):
        for k in (2 * n + 1, 2 * n):
            c, h = rng.choice(scales), Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            draw.append((DiffOperator([Poly(), c * P(h, 1 - k), c * P(1, 0, 1)]), n))
    return draw


class TestFavardDiagonals:
    """Every exact diagonal is G_00 gamma_1 ... gamma_k, the gammas read off the
    eigentable's top two coefficients (oracles.favard_diagonals), and G_00 is the Beta
    integral, on weights (x - r1)^e1 (r2 - x)^e2 with integer exponents >= 0."""

    def test_seeded_draw_on_every_moment_shape(self):
        # each valued diagonal (k, k) of favard_draw's Gram matrices is G_00 times the oracle's
        # gamma_1 ... gamma_k off the eigentable to degree n + 1: exactly on the Jacobi shape,
        # and as float(product) times m_0 = G_00 on the Laguerre and Romanovski shapes (a
        # derived weight's constant is 1), in the certified regime and outside it
        counts = Counter()
        for op, n in favard_draw():
            w = derive_weight(*pair_of(op))
            route = _classify(w)[0]
            assert route in ("exact", "laguerre", "romanovski") and not _classify(w)[1], op
            gram = gram_matrix(op, n)
            ratios = favard_diagonals(eigentable(op, n + 1))
            g00 = gram.entry(0, 0).value
            for k, ratio in enumerate(ratios[: n + 1]):
                e = gram.entry(k, k)
                if not e.integrable:  # past the Romanovski reach
                    continue
                if route == "exact":
                    assert e.method == "exact" and e.value == g00 * ratio, (op, k)
                else:
                    assert e.method == "moment" and e.value == float(ratio) * g00, (op, k)
                counts[route] += 1
            eigenvalues = orthogonality._eigenvalues(pair_of(op), n)
            regime = len(set(eigenvalues)) == n + 2
            counts["regime"] += regime
            # the bound n + 1: lambda_0 .. lambda_n distinct and lambda_(n+1) repeating one
            counts["bound"] += not regime and len(set(eigenvalues[:-1])) == n + 1
        floors = {"exact": 150, "laguerre": 150, "romanovski": 150, "regime": 100, "bound": 16}
        assert all(counts[name] >= floor for name, floor in floors.items()), counts

    @staticmethod
    def check(op, n, r1, r2, e1, e2):
        weight = derive_weight(op.coeffs[2], op.coeffs[1])
        assert weight.power_exponent_at(r1) == e1 and weight.power_exponent_at(r2) == e2
        gram = gram_matrix(op, n)
        diagonals = favard_diagonals(eigentable(op, n))
        assert len(diagonals) == n  # every degree is unique: k = 0 .. n - 1
        g00 = gram.entry(0, 0).value
        assert g00 == beta_mass(r1, r2, e1, e2)
        for k, ratio in enumerate(diagonals):
            e = gram.entry(k, k)
            assert e.method == "exact" and e.value == g00 * ratio, (r1, r2, e1, e2, k)

    def test_integer_jacobi_exponents(self):
        # jacobi(-1, alpha, beta) has the weight (1 + x)^e1 (1 - x)^e2 with
        # alpha = -(e1 + e2 + 2), beta = e1 - e2
        for e1 in range(5):
            for e2 in range(5):
                op = build_operator(FamilySpec.jacobi(-1, -(e1 + e2 + 2), e1 - e2))
                self.check(op, 16, Fraction(-1), Fraction(1), e1, e2)

    def test_seeded_quadratic_operators(self):
        # c (x - r1)(x - r2) D^2 + b D with (p a)' = p b for p = (x - r1)^e1 (r2 - x)^e2:
        # b = c ((e1 + e2 + 2) x - (e1 + 1) r2 - (e2 + 1) r1)
        rng = random.Random(40)
        for _ in range(20):
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))
            r1 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            r2 = r1 + Fraction(rng.randint(1, 9), rng.randint(1, 5))
            e1, e2 = rng.randint(0, 4), rng.randint(0, 4)
            a = c * P(r1 * r2, -(r1 + r2), 1)
            b = c * P(-(e1 + 1) * r2 - (e2 + 1) * r1, e1 + e2 + 2)
            self.check(DiffOperator([Poly(), b, a]), 12, r1, r2, e1, e2)


class TestFiniteOrthogonalityReport:
    def test_standard_parameters(self):
        report = finite_orthogonality_report(Fraction(-13, 2), 1, 5)
        assert report.gamma == Fraction(-17, 2)
        verdicts = {(p.m, p.n): p for p in report.pairs}
        for (m, n), p in verdicts.items():
            if m + n <= 7:
                assert p.verdict == "orthogonal", (m, n)
                assert p.value == p.relative == 0.0 and p.err_est is None
            else:
                assert p.verdict == "non-integrable"

    def test_integer_alpha_flags_collisions(self):
        report = finite_orthogonality_report(-6, 0, 5)
        assert (3, 4) in report.degenerate_degree_pairs
        assert (2, 5) in report.degenerate_degree_pairs

    @pytest.mark.parametrize("alpha, beta", [
        pytest.param(Fraction(k, 2), beta, id=f"{k / 2}-{float(beta)}" if beta else f"{k / 2}")
        for beta in (0, Fraction(1, 2)) for k in range(-24, 1)
    ])
    def test_degenerate_pair_verdict_when_integrable(self, alpha, beta):
        # A collision pair (m,n) has m+n = 1-alpha and gamma+1 = alpha-1, so
        # m+n+gamma+1 = 0: collision pairs are always exactly on the
        # non-integrability boundary and get that verdict.  The statuses and the
        # collisions (equal eigenvalues, lower degree first) are the eigensolver's.
        report = finite_orthogonality_report(alpha, beta, 12)
        table = eigentable(build_operator(FamilySpec.romanovski(alpha, beta)), 12)
        assert report.statuses == tuple(r.status.value for r in table)
        assert report.degenerate_degree_pairs == tuple(
            (m, n) for m, n in combinations(range(13), 2) if table[m].eigenvalue == table[n].eigenvalue
        )
        assert bool(report.degenerate_degree_pairs) == (alpha.denominator == 1)
        verdicts = {(p.m, p.n): p.verdict for p in report.pairs}
        for m, n in report.degenerate_degree_pairs:
            assert m + n + report.gamma + 1 == 0, (m, n)
            assert verdicts[m, n] == "non-integrable", (m, n)
        assert "degenerate-pair" not in verdicts.values()

    def test_beta_zero_odd_pairs_exact_zero(self):
        report = finite_orthogonality_report(-8, 0, 3)
        p01 = next(p for p in report.pairs if (p.m, p.n) == (0, 1))
        assert p01.value == 0.0


# every interval shape of the shared integrand: finite and the real line
SWEPT_GRAMS = [
    (classical_presets()["chebyshev1"], 6),
    (FamilySpec.hermite(Fraction(-5, 2), Fraction(2, 3)), 6),
]


def laguerre_norm(n, e, c):
    """integral of x^e e^(-cx) p_n^2 over (0, inf) for the monic Laguerre p_n."""
    return math.exp(math.lgamma(n + 1) + math.lgamma(n + e + 1) - (2 * n + e + 1) * math.log(c))


def hermite_norm(n):
    """integral of e^(-x^2) p_n^2 over the real line for the monic Hermite p_n."""
    return math.sqrt(math.pi) * math.factorial(n) / 2**n


def hermite_3_norm(n):
    """integral of e^(-x^2/2 + 3x) p_n^2 over the real line for the monic Hermite p_n."""
    return math.factorial(n) * math.sqrt(2 * math.pi) * math.exp(4.5)


def assert_matches_norms(spec, norm, n, bound, method="quadrature"):
    """Every entry by method, diagonals within bound of norm, off-diagonals with
    relative <= bound (on the moment route exactly 0.0)."""
    report = gram_matrix(spec, n)
    assert len(report.entries) == (n + 1) * (n + 2) // 2
    for e in report.entries:
        assert e.method == method, (e.m, e.n)
        if e.m == e.n:
            assert abs(e.value - norm(e.m)) <= bound * norm(e.m), e.m
        elif method == "moment":
            assert e.value == e.relative == 0.0 and e.err_est is None, (e.m, e.n)
        else:
            assert e.relative <= bound, (e.m, e.n)
    assert report.off_diagonal_max_relative <= (0.0 if method == "moment" else bound)


class TestConvergedQuadrature:
    """Gram matrices whose quadrature used to stop with NoConvergence."""

    def test_gram_matches_closed_form_norms(self):
        assert_matches_norms(FamilySpec.hermite(-1, 3), hermite_3_norm, 6, 1e-12)

    # this failed while the stopping rule measured the error against |value|, which a
    # true zero built from large terms cannot meet
    def test_larger_sizes_match_closed_form_norms(self):
        assert_matches_norms(classical_presets()["hermite"], hermite_norm, 14, 1e-12)


# quadrature entries that are zero in exact arithmetic but read far above tol, with an
# error estimate that misses it, and exit 0; strict, so that a mend fails CI here
KNOWN_WRONG = [
    (classical_presets()["chebyshev1"], 20),  # max relative 0.607
    (classical_presets()["chebyshev2"], 20),  # 0.973
    (FamilySpec.jacobi(-1, Fraction(-4, 3), Fraction(4, 3)), 14),  # 0.780
]


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="quadrature off-diagonals wrong beyond their err_est"
)
@pytest.mark.parametrize("spec, n", KNOWN_WRONG, ids=["chebyshev1", "chebyshev2", "jacobi(-4/3,4/3)"])
def test_known_wrong_off_diagonals(spec, n):
    report = gram_matrix(spec, n)
    assert all(e.relative <= 1e-10 for e in report.entries if e.relative is not None)


# the monic Chebyshev norms: pi/2^(2n-1) for T_n (pi at n = 0), pi/2^(2n+1) for U_n
CHEBYSHEV_NORMS = {
    "chebyshev1": lambda n: math.pi if n == 0 else math.pi / 2 ** (2 * n - 1),
    "chebyshev2": lambda n: math.pi / 2 ** (2 * n + 1),
}


# quadrature diagonals that drift from these closed forms: relative errors pass 1e-13 at
# degree 10-11 and reach 0.335 (T) and 0.796 (U) at 16, with no note in the report; strict,
# as above
@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="quadrature diagonals wrong beyond their err_est"
)
@pytest.mark.parametrize("name", CHEBYSHEV_NORMS)
def test_known_wrong_chebyshev_diagonals(name):
    report = gram_matrix(classical_presets()[name], 16)
    norm = CHEBYSHEV_NORMS[name]
    worst = max(abs(report.entry(n, n).value - norm(n)) / norm(n) for n in range(17))
    assert worst <= 1e-13, worst


# laguerre(alpha, beta) has the weight x^(beta-1) e^(alpha x) on (0, inf)
LAGUERRE = {
    "laguerre": (classical_presets()["laguerre"], lambda n: laguerre_norm(n, 0, 1)),
    "laguerre(-3/2,7/3)": (
        FamilySpec.laguerre(Fraction(-3, 2), Fraction(7, 3)),
        lambda n: laguerre_norm(n, 4 / 3, 3 / 2),
    ),
    "laguerre(-1,1/2)": (
        FamilySpec.laguerre(-1, Fraction(1, 2)),
        lambda n: laguerre_norm(n, -1 / 2, 1),
    ),
}


# the Laguerre preset's weight e^(-x) has m_0 = 1 and monic norms (n!)^2, rational at every
# degree, but its moment entries are floats: from n = 99 one overflows and gram_matrix
# raises ValueError ("a moment entry on exp(-x) overflows a float"); n = 98 answers in
# floats.  Strict, as above
@pytest.mark.xfail(
    strict=True, raises=ValueError, reason="a laguerre moment entry overflows a float at n = 99"
)
def test_laguerre_preset_norm_is_exact_past_a_float():
    report = gram_matrix(classical_presets()["laguerre"], 99)
    assert report.entry(99, 99).value == math.factorial(99) ** 2


# Gaussian weights whose quadrature sweep refuses with NoConvergence where every entry has a
# closed form: the hermite preset from n = 39 ("last error 2.792e+13") and hermite(-1, -20),
# weight e^(-x^2/2 - 20x), from n = 7 ("last error 4.896e+79"; at n = 6 it answers with
# (6, 6) 2.7e-10 off its norm and four off-diagonals above tol).  The bar is exact 0.0
# off-diagonals and diagonals within 1e-13 of the norm.  Strict, as above
KNOWN_REFUSED = {
    "hermite": (classical_presets()["hermite"], 39, hermite_norm),
    "hermite(-1,-20)": (
        FamilySpec.hermite(-1, -20),
        7,
        lambda n: math.factorial(n) * math.sqrt(2 * math.pi) * math.exp(200),
    ),
}


@pytest.mark.xfail(strict=True, raises=NoConvergence, reason="the Gaussian quadrature sweep refuses")
@pytest.mark.parametrize("name", KNOWN_REFUSED)
def test_known_refused_gaussian_grams(name):
    spec, n, norm = KNOWN_REFUSED[name]
    report = gram_matrix(spec, n)
    for e in report.entries:
        if e.m == e.n:
            assert abs(e.value - norm(e.m)) <= 1e-13 * norm(e.m), e.m
        else:
            assert e.value == 0.0, (e.m, e.n)


# the hand-built |x| on (-1, 1), whose <1, 1> is exactly 1: _classify leaves its interior root
# to quadrature, and the kink at the sweep's centre node makes the trapezoid error fall only
# algebraically ("no convergence after 12 levels (last error 7.353e-08)").  Strict, as above
@pytest.mark.xfail(strict=True, raises=NoConvergence, reason="the kink at the centre node")
def test_interior_kink_integrates():
    w = WeightExpr(power_factors=(PowerFactor(Fraction(0), Fraction(1)),))
    value, method, _ = inner_product(w, Poly.one(), Poly.one())
    assert method == "quadrature" and abs(value - 1) <= 1e-12


class TestLaguerreMoments:
    """The Laguerre shape takes the moment route: off-diagonals exactly 0.0, diagonals
    within 1e-13 of n! Gamma(n+e+1) / c^(2n+e+1).  Quadrature on the half line's tan map
    gave the preset 9 off-diagonals above tol at degree 18 and NoConvergence at 20, and
    NoConvergence for laguerre(-3/2, 7/3) at 18."""

    @pytest.mark.parametrize(
        "name, n",
        [
            ("laguerre", 6), ("laguerre", 14), ("laguerre", 18), ("laguerre", 20),
            ("laguerre(-3/2,7/3)", 10), ("laguerre(-3/2,7/3)", 18), ("laguerre(-1,1/2)", 6),
        ],
    )
    def test_gram_matches_closed_form_norms(self, name, n):
        assert_matches_norms(*LAGUERRE[name], n, 1e-13, method="moment")

    # (anchor t, c, E, n): p = |x - t|^E e^(c x) from (x - t) y'' + (E + 1 + c (x - t)) y';
    # both half lines, E <= -1 with roots stripped at t, E <= -1 with none to strip
    GRID = [
        (0, -1, 0, 10),
        (0, Fraction(-3, 2), Fraction(4, 3), 8),
        (0, -1, -1, 10),
        (0, -2, Fraction(-5, 2), 6),
        (0, 2, Fraction(1, 2), 8),
        (0, 1, -1, 8),
        (2, -1, -2, 10),
        (Fraction(-3, 2), Fraction(3, 2), -1, 8),
        (3, Fraction(-1, 2), Fraction(1, 3), 6),
        (Fraction(1, 2), 3, -2, 6),
    ]

    def test_grid_matches_mpmath(self):
        # mpmath's quad of p f g at 30 digits, by linearity over the powers of y = |x - t|:
        # f g at x = t +- y is expanded exactly, so mpmath integrates y^(E+i) e^(c x) with
        # no cancellation near the anchor.  Every value is within 1e-12 of
        # sqrt(G_mm G_nn), or of |value| where a diagonal diverges.
        mpmath = pytest.importorskip("mpmath")
        mpf = lambda q: mpmath.mpf(q.numerator) / q.denominator
        checked, stripped = 0, set()
        with mpmath.workdps(30):
            for t, c, e, n in self.GRID:
                t, c, e = Fraction(t), Fraction(c), Fraction(e)
                op = DiffOperator([Poly(), P(e + 1 - c * t, c), P(-t, 1)])
                w = derive_weight(op.coeffs[2], op.coeffs[1])
                assert (w.interval.hi is None) == (c < 0) and w.power_exponent_at(t) == e
                side = 1 if c < 0 else -1
                shifted = [r.monic.affine_sub(side, t) for r in eigentable(op, n)]

                @functools.cache
                def moment(i):
                    power = mpf(e) + i
                    return mpmath.quad(lambda y: y**power * mpmath.exp(mpf(c) * (mpf(t) + side * y)), [0, mpmath.inf])

                gram = gram_matrix(op, n)
                exact = {}
                for g in gram.entries:
                    assert g.integrable == (g.value is not None)
                    if g.integrable:
                        assert g.method == "moment" and g.err_est is None
                        coeffs = (shifted[g.m] * shifted[g.n]).coeffs
                        exact[g.m, g.n] = mpmath.fsum(mpf(q) * moment(i) for i, q in enumerate(coeffs) if q)
                        stripped.add(e <= -1)
                for (m, k), value in exact.items():
                    diag = [exact.get((d, d), 0) for d in (m, k)]
                    scale = mpmath.sqrt(diag[0] * diag[1]) if min(diag) > 0 else abs(value)
                    assert abs(gram.entry(m, k).value - value) <= 1e-12 * scale, (t, c, e, m, k)
                    checked += 1
        assert checked > 300 and stripped == {True, False}

    def test_pearson_ratios_are_rising_factorials(self):
        # for |x|^A e^(c x) on (0, inf), c < 0: m_k / m_0 = (A+1)(A+2)...(A+k) / |c|^k
        for a_exp, c in ((Fraction(0), Fraction(-1)), (Fraction(4, 3), Fraction(-3, 2)), (Fraction(-1, 2), -2)):
            pair = common_denominator((0, 1, 0, 1 + a_exp, c))[1]  # a = x, b = 1 + A + c x
            den, nums = orthogonality._moment_ratios(pair, 12)
            assert [Fraction(v, den) for v in nums] == [math.prod((a_exp + j for j in range(1, k + 1)), start=Fraction(1)) / (-c) ** k
                              for k in range(13)]

    def test_left_half_line_sign(self):
        # over (-inf, 0): integral of x e^x is -1, and of |x|^-1 x^3 e^x (one root stripped,
        # s = 3 odd) is -2; of |x|^-1 x^2 e^x (s = 2) is 1
        w = WeightExpr(exp_poly=P(0, 1), interval=Interval(None, Fraction(0)))
        assert inner_product(w, Poly((0, 1)), Poly.one()) == (-1.0, "moment", None)
        w = WeightExpr(power_factors=(PowerFactor(Fraction(0), Fraction(-1)),), exp_poly=P(0, 1),
                       interval=Interval(None, Fraction(0)))
        assert inner_product(w, Poly((0, 1)), P(0, 0, 1)) == (-2.0, "moment", None)
        assert inner_product(w, Poly((0, 1)), Poly((0, 1))) == (1.0, "moment", None)
        with pytest.raises(NonIntegrable):
            inner_product(w, Poly.one(), P(1, 1))

    @pytest.mark.parametrize(
        "shape, closed",
        [
            ({"quad_exp": Fraction(-4), "interval": Interval(None, None)}, 5 * math.pi / 16),
            (
                {
                    "power_factors": (PowerFactor(Fraction(0), Fraction(1, 2)),),
                    "exp_poly": P(0, -1),
                    "interval": Interval(Fraction(0), None),
                },
                math.sqrt(math.pi) / 2,
            ),
        ],
        ids=["romanovski", "laguerre"],
    )
    def test_weight_constant_scales_moment_entries(self, shape, closed):
        # integral of p over R for (x^2+1)^-4 is 5 pi/16; over (0, inf) for x^(1/2) e^(-x),
        # Gamma(3/2): each times the weight's constant
        for constant in (1, 3, Fraction(-2, 7)):
            w = WeightExpr(constant=Fraction(constant), **shape)
            value, method, err_est = inner_product(w, Poly.one(), Poly.one())
            assert (method, err_est) == ("moment", None)
            assert value == pytest.approx(constant * closed, rel=1e-15), constant


class TestQuadratureEntries:
    @pytest.mark.parametrize(
        "spec, n", SWEPT_GRAMS, ids=[f"spec{i}" for i in range(len(SWEPT_GRAMS))]
    )
    def test_gram_entries_equal_one_pair_quadrature(self, spec, n):
        report = gram_matrix(spec, n)
        w = weight_of(spec)
        table = eigentable(build_operator(spec), n)
        quadrature = [e for e in report.entries if e.method == "quadrature"]
        assert len(quadrature) == (n + 1) * (n + 2) // 2
        for e in quadrature:
            res = quad(w, table[e.m].monic, table[e.n].monic)
            assert (e.value, e.err_est) == (res.value, res.err_est), (e.m, e.n)

    def test_a_root_at_the_centre_is_refused_at_its_node(self):
        # |x|^(-1/2) on (-1, 1) has no moment form (a root off the ends) and integral 4, but
        # log p is +inf at the sweep's centre x = 0: the node refuses it, where the sweep used
        # to add the infinite term and run all 12 levels to "last error nan"
        w = WeightExpr(power_factors=(PowerFactor(Fraction(0), Fraction(-1, 2)),),
                       interval=Interval(Fraction(-1), Fraction(1)))
        with pytest.raises(NoConvergence) as raised:
            inner_product(w, Poly.one(), Poly.one())
        assert str(raised.value) == "integrand not finite at a quadrature node (x near 0.0)"

    # an input that still fails: hermite(-1, 3) at 24, first on (2, 23)
    def test_gram_raises_first_failing_pair_in_order(self):
        spec, n = FamilySpec.hermite(-1, 3), 24
        w = weight_of(spec)
        table = eigentable(build_operator(spec), n)
        expected = None
        for m, k in combinations_with_replacement(range(n + 1), 2):
            try:
                quad(w, table[m].monic, table[k].monic)
            except NoConvergence as exc:
                expected = str(exc)
                break
        assert expected is not None and (m, k) == (2, 23)
        with pytest.raises(NoConvergence) as raised:
            gram_matrix(spec, n)
        assert str(raised.value) == expected


def bits(res):
    return (res.value.hex(), res.err_est.hex(), res.levels, res.evals)


# perfbench's gram-quadrature grid of non-integer Jacobi exponents, and its Hermite (alpha, beta)
NONINT_EXPONENTS = [Fraction(p, q) for p, q in (
    (-3, 4), (-2, 3), (-1, 2), (-1, 3), (-1, 4), (1, 4), (1, 3), (1, 2),
    (2, 3), (3, 4), (5, 4), (4, 3), (3, 2), (5, 3), (7, 4))]
HERMITE_ALPHA = [Fraction(-2), Fraction(-9, 4), Fraction(-7, 3), Fraction(-5, 2), Fraction(-3)]
HERMITE_BETA = [s * Fraction(p, q) for s in (1, -1) for p, q in ((1, 4), (1, 2), (2, 3), (1, 1))]


def kernel_draw():
    """40 seeded (weight, funcs) for the product sweep, each with its eigenfunctions up to a
    degree in 2..12: 16 Jacobi weights (1-x)^p (1+x)^q off perfbench's non-integer grid;
    8 with an integer exponent -1, -2 or -3 at one end (the other off the grid), where the
    eigenfunctions of degree >= k vanish to order k and the root is divided out, as for
    `jacobi --alpha -1/3 --beta 7/3` (p = -2, q = 1/3); 16 Gaussians e^(alpha x^2/2 + beta x)
    with beta != 0, so the map's centre is off 0.  Every fourth also lists a zero function."""
    rng = random.Random(2005)
    specs = []
    for _ in range(16):
        specs.append(_jacobi_with_exponents(rng.choice(NONINT_EXPONENTS), rng.choice(NONINT_EXPONENTS)))
    for k in range(8):
        exponents = [-(1 + k % 3), rng.choice(NONINT_EXPONENTS)]
        specs.append(_jacobi_with_exponents(*(exponents if k % 2 else exponents[::-1])))
    for _ in range(16):
        specs.append(FamilySpec.hermite(rng.choice(HERMITE_ALPHA), rng.choice(HERMITE_BETA)))
    draw = []
    for k, spec in enumerate(specs):
        funcs = [r.monic for r in eigentable(build_operator(spec), rng.randint(2, 12))]
        if k % 4 == 0:
            funcs.insert(rng.randint(0, len(funcs)), Poly())
        draw.append((weight_of(spec), funcs))
    return draw


class TestNodePairKernel:
    """The Gram sweep's product kernel: one evaluation per node for all active pairs, and
    every result bit for bit the oracle's scalar integrand of one pair at a time."""

    # a finite interval with non-integer exponents, the real line
    SPECS = [
        FamilySpec.jacobi(-1, Fraction(-29, 12), Fraction(13, 12)),  # (1-x)^(-1/3) (1+x)^(3/4)
        FamilySpec.hermite(Fraction(-5, 2), Fraction(2, 3)),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=["jacobi", "hermite"])
    def test_matches_scalar_integrand_bit_for_bit(self, spec):
        w = weight_of(spec)
        table = eigentable(build_operator(spec), 6)
        funcs = [r.monic for r in table]
        pairs = list(combinations_with_replacement(range(7), 2))
        swept = orthogonality._numeric_quad(w, _classify(w)[0], funcs, pairs, 1e-10)
        alone = [pair_quadrature(w, funcs[i], funcs[j], 1e-10) for i, j in pairs]
        assert [bits(r) for r in swept] == [bits(r) for r in alone]
        assert len({r.levels for r in alone}) > 1  # entries leave the sweep at different levels

    def test_seeded_draw_matches_scalar_integrand_bit_for_bit(self):
        # every pair of every weight of the draw on one sweep per weight: each result, and
        # each failure's text and last estimate, is the scalar oracle's of the pair alone
        failed = zeros = 0
        for w, funcs in kernel_draw():
            pairs = list(combinations_with_replacement(range(len(funcs)), 2))
            evaluate, lo, hi = orthogonality._integrand(w, _classify(w)[0], funcs)
            swept = orthogonality._product_sweep(evaluate, pairs, lo, hi, 1e-10)
            for (i, j), res in zip(pairs, swept):
                try:
                    alone = pair_quadrature(w, funcs[i], funcs[j], 1e-10)
                except NoConvergence as exc:
                    assert isinstance(res, NoConvergence), (w.formula(), i, j)
                    assert str(res) == str(exc), (w.formula(), i, j)
                    assert repr((res.last_value, res.err_est)) == repr((exc.last_value, exc.err_est))
                    failed += 1
                else:
                    assert bits(res) == bits(alone), (w.formula(), i, j)
                    zeros += not (funcs[i] and funcs[j])
        assert failed > 0 and zeros > 0

    def test_one_evaluation_per_node(self, monkeypatch):
        calls, integrand = [], orthogonality._integrand

        def counted_integrand(weight, route, funcs):
            evaluate, lo, hi = integrand(weight, route, funcs)

            def counted(u, d_lo, d_hi, need):
                calls.append((u, d_lo, d_hi))  # nodes near an end share u == 1.0
                signs, based, logs = evaluate(u, d_lo, d_hi, need)
                assert len(signs) == len(based) == len(logs) == len(funcs)
                return signs, based, logs

            return counted, lo, hi

        monkeypatch.setattr(orthogonality, "_integrand", counted_integrand)
        w = weight_of(self.SPECS[0])
        res = quad(w, P(1, 2, 3), P(-1, 0, 0, 1))
        assert len(calls) == res.evals  # the centre, then both nodes of each node pair
        # a Gram sweep evaluates each node once for all its active entries
        calls.clear()
        funcs = [r.monic for r in eigentable(build_operator(self.SPECS[1]), 6)]
        pairs = list(combinations_with_replacement(range(7), 2))
        results = orthogonality._numeric_quad(weight_of(self.SPECS[1]), "gaussian", funcs, pairs, 1e-10)
        assert len(calls) == len(set(calls))
        evals = [r.evals for r in results]
        assert max(evals) <= len(calls) < sum(evals) // 2

    def test_zero_function_reads_zero(self):
        # a zero function at a finite end where p's exponent is <= -1 has no root to divide
        res = orthogonality._numeric_quad(CQ_W, "exact", [Poly(), Poly((0, 1))], [(0, 1)], 1e-10)
        assert [r.value for r in res] == [0.0]


class TestRealLineMaps:
    """A Gaussian factor e^(c2 x^2 + c1 x) is swept with x = centre + scale artanh(t).
    The Romanovski shape takes the moment route, and derive_weight gives no other
    real-line weight, so the library refuses any other one that has an integrable pair;
    the oracle keeps x = tan u, whose compression algebraic tails need."""

    # x = tan u turns x^2 (x^2+1)^q dx into sin^2 u cos^(-2q-4) u du on (-pi/2, pi/2);
    # the x^-2 tail of q = -2 holds mass 2/X beyond any finite X
    @pytest.mark.parametrize("q, expected", [(-4, math.pi / 16), (-2, math.pi / 2)])
    def test_algebraic_tail_is_refused(self, q, expected):
        w = WeightExpr(
            power_factors=(PowerFactor(Fraction(0), Fraction(2)),),
            quad_exp=Fraction(q),
            interval=Interval(None, None),
        )
        with pytest.raises(ValueError, match="no quadrature map for .* on \\(-inf, \\+inf\\)"):
            inner_product(w, Poly.one(), Poly.one())
        with pytest.raises(NonIntegrable):  # the gate refuses first: no map is needed
            inner_product(w, Poly((0,) * -q + (1,)), Poly((0,) * -q + (1,)))
        res = pair_quadrature(w, Poly.one(), Poly.one(), orthogonality.DEFAULT_TOL)
        assert res.value == pytest.approx(expected, rel=1e-12, abs=0)

    def test_gaussian_sweep_levels(self):
        spec = FamilySpec.hermite(Fraction(-5, 2), Fraction(2, 3))
        funcs = [r.monic for r in eigentable(build_operator(spec), 6)]
        pairs = list(combinations_with_replacement(range(7), 2))
        results = orthogonality._numeric_quad(weight_of(spec), "gaussian", funcs, pairs, 1e-10)
        assert max(r.levels for r in results) <= 5

    def test_hermite_preset_at_degree_20(self):
        report = gram_matrix(classical_presets()["hermite"], 20)
        assert {e.method for e in report.entries} == {"quadrature"}
        assert report.off_diagonal_max_relative <= 1e-12


class TestFiniteEndRoots:
    """Weights with exponent -2 or -3 at x = 1, where the eigenfunctions of degree 2 or 3
    and up vanish: near that end Horner's f(x) is rounding noise, which the weight turned
    into a divergent integrand (NoConvergence) until the root was divided out."""

    CASES = [
        (Fraction(-1, 3), Fraction(7, 3)),
        (Fraction(1, 2), Fraction(7, 2)),
        (Fraction(2, 3), Fraction(4, 3)),
    ]

    def test_diagonals_match_mpmath(self):
        # y = 1 - x: p(1 - y) is expanded exactly, so mpmath sees y^s with no cancellation;
        # its tanh-sinh at 50 digits on y^(e_1) (2 - y)^(e_-1) p(1 - y)^2 over (0, 2)
        mpmath = pytest.importorskip("mpmath")
        checked = 0
        with mpmath.workdps(50):
            for alpha, beta in self.CASES:
                spec = FamilySpec.jacobi(-1, alpha, beta)
                w, table = weight_of(spec), eigentable(build_operator(spec), 4)
                e_hi, e_lo = (w.power_exponent_at(r) for r in (1, -1))
                e_hi, e_lo = (mpmath.mpf(e.numerator) / e.denominator for e in (e_hi, e_lo))
                for e in gram_matrix(spec, 4).entries:
                    if e.m != e.n or e.value is None:
                        continue
                    shifted = table[e.m].monic.affine_sub(-1, 1)
                    cs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(shifted.coeffs)]
                    exact = mpmath.quad(
                        lambda y: y**e_hi * (2 - y) ** e_lo * mpmath.polyval(cs, y) ** 2, [0, 1, 2]
                    )
                    assert abs(e.value - exact) <= 1e-13 * exact, (alpha, beta, e.m)
                    checked += 1
        assert checked == 8


# ---------------------------------------------------------------------------
# the moment route: the Romanovski shape (x^2+1)^q e^(h arctan x) on the real line


def romanovski_shape_draw():
    """120 seeded (c, alpha, beta, n): the operator c (x^2+1) y'' + (alpha x + beta) y' up
    to degree n.  alpha/c = offset - k with k in 1..16: offset 0 makes alpha/c an integer
    (eigenvalue collisions at m + n = k + 1), +-1/1000 puts m + n = k (k + 1) a hair
    inside the integrability boundary, and the rest are general rationals."""
    rng = random.Random(2010)
    draw = []
    for _ in range(120):
        c = rng.choice([Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-1), Fraction(-5, 2)])
        k = rng.randint(1, 16)
        offset = rng.choice(
            [0, 0, Fraction(1, 1000), Fraction(-1, 1000), Fraction(1, 2), Fraction(rng.randint(1, 11), 12)]
        )
        beta = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        draw.append((c, c * (offset - k), c * beta, rng.randint(1, 10)))
    return draw


class TestMomentRoute:
    # (alpha, beta, n_max) -> valued pairs, of which relative to a moment
    REPORTS = {
        (Fraction(-15, 2), Fraction(1, 2), 6): (17, 7),
        (Fraction(-13, 2), Fraction(1), 7): (16, 10),
    }

    def test_romanovski_pairs_are_exact_zeros(self, monkeypatch):
        # report == Gram bit for bit, no quadrature sweep, every valued pair exactly 0.0;
        # the quadrature oracle agrees to 1e-10 of each pair's scale, 1e-12 on diagonals
        sweeps, sweep = [], orthogonality._product_sweep

        def counted_sweep(*args, **kwargs):
            sweeps.append(len(args[1]))
            return sweep(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(orthogonality, "_product_sweep", counted_sweep)
            runs = {
                key: (finite_orthogonality_report(*key), gram_matrix(FamilySpec.romanovski(*key[:2]), key[2]))
                for key in self.REPORTS
            }
            assert sweeps == []
            gram_matrix(classical_presets()["chebyshev1"], 4)  # the spy sees a quadrature weight's
        assert sweeps == [15]
        for (alpha, beta, n), (count, by_moment) in self.REPORTS.items():
            report, gram = runs[alpha, beta, n]
            w = weight_of(FamilySpec.romanovski(alpha, beta))
            table = eigentable(build_operator(FamilySpec.romanovski(alpha, beta)), n)

            def numeric(m, k):
                return pair_quadrature(w, table[m].monic, table[k].monic, orthogonality.DEFAULT_TOL).value

            valued = [p for p in report.pairs if p.value is not None]
            assert len(valued) == count
            assert sum(p.detail != "relative to sqrt(G_mm G_nn)" for p in valued) == by_moment
            for p in valued:
                e = gram.entry(p.m, p.n)
                assert (p.value, p.relative, p.err_est) == (e.value, e.relative, e.err_est)
                assert (e.method, p.verdict, p.value, p.relative) == ("moment", "orthogonal", 0.0, 0.0)
                if e.note is None:
                    scale = math.sqrt(gram.entry(p.m, p.m).value * gram.entry(p.n, p.n).value)
                else:
                    assert e.note == "relative uses moment scale", (p.m, p.n)
                    assert p.detail.startswith("relative to the (1+x^2)^((m+n)/2) moment")
                    scale = moment_scale(w, p.m + p.n, 1e-10)
                assert abs(numeric(p.m, p.n)) <= 1e-10 * scale, (p.m, p.n)
            for e in gram.entries:
                if e.m == e.n and e.value is not None:
                    assert abs(e.value - numeric(e.m, e.m)) <= 1e-12 * e.value, e.m

    def test_moment_scales_match_quadrature_oracle(self):
        # the closed-form m_0 = G_00 within 1e-12 of one oracle tanh_sinh integral of p; the
        # pairs beside a divergent diagonal are exact zeros whose relative is 0.0
        alpha, beta, n = Fraction(-15, 2), Fraction(1, 2), 6
        spec = FamilySpec.romanovski(alpha, beta)
        w = weight_of(spec)
        gram = gram_matrix(spec, n)
        noted = [e for e in gram.entries if e.note == "relative uses moment scale"]
        assert len(noted) == 7 and {e.m + e.n for e in noted} == {5, 6, 7, 8}
        assert all(e.value == e.relative == 0.0 for e in noted)
        closed = orthogonality._real_line_moment(w)
        assert gram.entry(0, 0).value == closed
        assert abs(closed - moment_scale(w, 0, 1e-10)) <= 1e-12 * closed

    def test_m0_matches_mpmath(self):
        # Cauchy's beta integral with mpmath's own complex Gamma at 30 digits, for m_0 of
        # every weight of the draw, plus large |h| and large a, and of each one's weight with
        # q raised by half its reach, whose a = -q in (1/2, 1] is the kernel's small-a regime
        mpmath = pytest.importorskip("mpmath")
        weights = []
        for c, alpha, beta, _ in romanovski_shape_draw():
            weights.append(derive_weight(c * P(1, 0, 1), P(beta, alpha)))
        weights += [weight_of(FamilySpec.romanovski(Fraction(-9, 4), h)) for h in (-40, 17, Fraction(81, 2))]
        # a = 1 - alpha/2 from 171 on, past where Gamma(a) overflows a float
        large_a = [
            weight_of(FamilySpec.romanovski(alpha, beta))
            for alpha in (-340, -344, -400, -800, -2000)
            for beta in (0, 3, Fraction(-7, 2), 40)
        ]
        checked = 0
        with mpmath.workdps(30):
            for w in weights + large_a:
                bound = 5e-15 if w in large_a else 1e-13
                reach = _classify(w)[2]  # a Romanovski weight has no division
                if reach < 0:
                    continue
                near = derive_weight(P(1, 0, 1), P(w.arctan_coeff, 2 * w.quad_exp + 2 + reach))
                assert Fraction(1, 2) < -near.quad_exp <= 1
                for v in [w, near] if reach else [w]:
                    nu = -2 * v.quad_exp - 2
                    nu_m = mpmath.mpf(nu.numerator) / nu.denominator
                    h = mpmath.mpf(v.arctan_coeff.numerator) / v.arctan_coeff.denominator
                    exact = mpmath.pi * mpmath.gamma(nu_m + 1) / (
                        2**nu_m * abs(mpmath.gamma(1 + nu_m / 2 + 0.5j * h)) ** 2
                    )
                    closed = orthogonality._real_line_moment(v)
                    assert abs(closed - exact) <= bound * exact, v.formula()
                    checked += 1
        assert checked == 286

    # the complex factor |Gamma(a)/Gamma(a+ib)|^2 loses accuracy linearly in |h|: its log at
    # A >= 16 sums terms near b atan(b/A) that cancel; 3.0e-15 off at h = 20, 9.8e-15 at 40
    @pytest.mark.parametrize(
        "h",
        [20, pytest.param(40, marks=pytest.mark.xfail(strict=True, reason="m_0 loses accuracy in |h|"))],
    )
    def test_m0_at_large_h_matches_mpmath(self, h):
        mpmath = pytest.importorskip("mpmath")
        w = weight_of(FamilySpec.romanovski(Fraction(-13, 2), h))
        with mpmath.workdps(30):
            nu = -2 * w.quad_exp - 2
            nu_m = mpmath.mpf(nu.numerator) / nu.denominator
            exact = mpmath.pi * mpmath.gamma(nu_m + 1) / (
                2**nu_m * abs(mpmath.gamma(1 + nu_m / 2 + 0.5j * h)) ** 2
            )
            assert abs(orthogonality._real_line_moment(w) - exact) <= 4e-15 * exact

    def test_seeded_draw_exact_zeros_reach_and_favard(self):
        # every entry: integrable iff integrability says so, off-diagonals exactly 0,
        # diagonals G_kk = G_00 prod gamma_j exactly (Favard), gamma_j off the eigentable
        draw = romanovski_shape_draw()
        collided = near_boundary = zeros = favard = 0
        for c, alpha, beta, n in draw:
            op = DiffOperator([Poly(), P(beta, alpha), c * P(1, 0, 1)])
            w = derive_weight(op.coeffs[2], op.coeffs[1])
            table = eigentable(op, n)
            gram = gram_matrix(op, n)
            diagonals = favard_diagonals(table)
            reach = _classify(w)[2]  # a Romanovski weight has no division
            diagonal = [(k, k) for k in range(len(diagonals)) if 2 * k <= reach]  # the gated
            polys = {k: table[k].monic for k, _ in diagonal}
            pearson = pair_of(op)
            form = router_form(w, pearson, polys)
            block = dict(zip(diagonal, form_answers(w, pearson, form, diagonal)))
            # the exact ratios r_j = m_j / m_0 of the operator's own pair, cleared to ints
            a, b = pearson
            scale = math.lcm(a.den, b.den)
            pair = [int(scale * a.coeff(i)) for i in range(3)]
            pair += [int(scale * b.coeff(i)) for i in range(2)]
            steps = 2 * max((k for k, _ in diagonal), default=0)
            den, nums = orthogonality._moment_ratios(pair, steps)
            m_0 = orthogonality._real_line_moment(w)
            collided += any(r.status is not EigenStatus.UNIQUE_MONIC for r in table)
            near_boundary += (alpha / c).denominator == 1000
            for e in gram.entries:
                ok = integrability(w, e.m + e.n).integrable
                assert e.integrable == ok, (c, alpha, beta, e.m, e.n)
                if e.value is None:
                    continue
                assert e.method == "moment" and e.err_est is None
                if e.m != e.n:
                    assert e.value == e.relative == 0.0, (c, alpha, beta, e.m, e.n)
                    zeros += 1
                elif e.m < len(diagonals):
                    product, f = diagonals[e.m], table[e.m].monic.coeffs
                    ratio = w.constant * sum(
                        fi * fj * Fraction(nums[i + j], den)
                        for i, fi in enumerate(f) for j, fj in enumerate(f)
                    )
                    assert ratio == product, (c, alpha, beta, e.m)
                    assert block[e.m, e.m] == (float(product) * m_0, ()), (c, alpha, beta, e.m)
                    assert e.value == float(product) * gram.entry(0, 0).value
                    favard += 1
        assert len(draw) >= 100 and collided >= 15 and near_boundary >= 15
        assert zeros > 1000 and favard > 200


def certificate_draw():
    """Seeded second-order operators, each with a degree: integer Jacobi exponents -3..6 up
    to degree 16, Laguerre exponents on both sides of -1, Romanovski near its reach
    (romanovski_shape_draw) and operators c (x - r1)(x - r2) D^2 + (b1 x + b0) D with
    rational roots."""
    rng = random.Random(31)
    draw = []
    for _ in range(60):  # the weight (1 - x)^a (1 + x)^b
        a, b = rng.randint(-3, 6), rng.randint(-3, 6)
        draw.append((build_operator(FamilySpec.jacobi(-1, -2 - a - b, b - a)), rng.randint(0, 16)))
    for _ in range(40):  # |x|^(beta - 1) e^(alpha x): E = beta - 1 on both sides of -1
        alpha = rng.choice([-1, 1]) * Fraction(rng.randint(1, 6), rng.randint(1, 3))
        beta = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        draw.append((build_operator(FamilySpec.laguerre(alpha, beta)), rng.randint(0, 12)))
    for c, alpha, beta, n in romanovski_shape_draw()[:60]:
        draw.append((DiffOperator([Poly(), P(beta, alpha), c * P(1, 0, 1)]), n + 4))
    for _ in range(60):
        r1 = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        r2 = r1 + Fraction(rng.randint(1, 9), rng.randint(1, 3))
        c = rng.choice([Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 2)])
        b = P(Fraction(rng.randint(-12, 12), rng.randint(1, 4)), Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
        draw.append((DiffOperator([Poly(), b, c * P(-r1, 1) * P(-r2, 1)]), rng.randint(0, 12)))
    return draw


def divisor_draw():
    """Seeded operators whose weights have a divisor, each with a degree: chaudhry-qadir up to
    degree 20; Laguerre |x|^E e^(alpha x) with E = beta - 1 <= -1, laguerre(-1, 0) (E = -1) and
    laguerre(-1, -1) (E = -2) among them; and c (x - r1)(x - r2) D^2 + c ((E1 + 1)(x - r2) +
    (E2 + 1)(x - r1)) D, the weight |x - r1|^E1 |x - r2|^E2 on (r1, r2) with integer end
    exponents, one in -5..-1 and the other in -5..3."""
    rng = random.Random(33)
    draw = [(build_operator(CQ_SPEC), n) for n in (1, 2, 3, 7, 10, 14, 20)]
    draw += [(build_operator(FamilySpec.laguerre(-1, beta)), 12) for beta in (0, -1)]
    for _ in range(40):
        alpha = rng.choice([-1, 1]) * Fraction(rng.randint(1, 6), rng.randint(1, 3))
        beta = -Fraction(rng.randint(0, 12), rng.choice([1, 1, 2, 3]))
        draw.append((build_operator(FamilySpec.laguerre(alpha, beta)), rng.randint(2, 12)))
    for _ in range(60):
        r1 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        r2 = r1 + Fraction(rng.randint(1, 9), rng.randint(1, 4))
        e1, e2 = rng.randint(-5, -1), rng.randint(-5, 3)
        if rng.random() < 0.5:
            e1, e2 = e2, e1
        c = rng.choice([Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 2)])
        b = c * ((e1 + 1) * P(-r2, 1) + (e2 + 1) * P(-r1, 1))
        draw.append((DiffOperator([Poly(), b, c * P(-r1, 1) * P(-r2, 1)]), rng.randint(2, 12)))
    return draw


def _form_and_pairs(op, n):
    """(weight, eigentable, form, pairs) as the router builds them for op up to degree n: form
    is router_form's (rule, reduced, classes), and pairs every pair of two eigenfunctions
    within the reach, whose keys form_answers judges as the router does; None where the weight
    has no moment block."""
    try:
        w = derive_weight(op.coeffs[2], op.coeffs[1])
    except ValueError:
        return None
    route, _, reach, _ = _classify(w)
    if route not in ("exact", "laguerre", "romanovski"):
        return None
    table = eigentable(op, n)
    funcs = [r.monic for r in table]
    form = router_form(w, pair_of(op), {d: f for d, f in enumerate(funcs) if f})
    pairs = [
        (m, k) for m in range(n + 1) for k in range(m, n + 1)
        if funcs[m] is not None and funcs[k] is not None and m + k <= reach
    ]
    return w, table, form, pairs


def _router_values(w, op, table, pairs):
    """The router's value per integrable pair of table, op's eigentable, handed its
    eigenvalues: the block's rows, or in the certified regime Favard's diagonals and the
    certified zeros."""
    tol = orthogonality.DEFAULT_TOL
    funcs, eigenvalues = [r.monic for r in table], [r.eigenvalue for r in table]
    routes = orthogonality._route(w, pair_of(op), funcs, pairs, tol, eigenvalues)[1]
    return {pair: route[0] for pair, route in zip(pairs, routes) if route[2]}


def _is_shared_zero(value, rule):
    """value is the block's exact zero on rule's route: the shared Fraction(0) on the exact
    route, and on the moment route its float times the key's m_0, a float 0."""
    if rule[0] == "exact":
        return value is orthogonality._ZERO
    return type(value) is float and value == 0


class TestCertifiedEntries:
    """PAPER.md's argument at divisions (oracles.certified_zero) against the block's own
    values, on the pairs the router judges integrable (form_answers): the block values every
    such pair from its rows, and reads an exact zero wherever the argument holds."""

    @pytest.mark.parametrize(
        "draw, floors",
        [
            (certificate_draw, {"certified": 3000, "collided": 20, "divisors": 40, "gram": 120}),
            (divisor_draw, {"certified": 1000, "unequal": 100, "gram": 80}),
        ],
        ids=["certificate_draw", "divisor_draw"],
    )
    def test_certified_entries_equal_the_block(self, draw, floors):
        # every pair the router values, handed the eigentable's eigenvalues, is the block's
        # own value, a Fraction (a float on the moment route), and the pairs it refuses are
        # the negative keys; where certified_zero holds the block's value is an exact zero.
        # The divisor draw holds the entries that calling every key >= 0 a zero would break:
        # distinct eigenvalues, key 0 and unequal root orders at a divisor, and a nonzero
        # entry (laguerre(-1, 0)'s (0, n) are 1, -1, 2, ...)
        counts = Counter()
        for op, n in draw():
            built = _form_and_pairs(op, n)
            if built is None:
                continue
            w, table, form, pairs = built
            rule, _, classes = form
            caps = [k for _, k in rule[1]]
            kind = Fraction if rule[0] == "exact" else float
            ids = [r.eigenvalue for r in table]
            want = dict(zip(pairs, form_answers(w, pair_of(op), form, pairs)))
            got = _router_values(w, op, table, pairs)
            assert list(got) == [pair for pair in pairs if isinstance(want[pair], tuple)], op
            for (m, k), g in got.items():
                value, key = want[m, k]
                assert type(g) is type(value) is kind and g == value, (op, m, k)
                if m == k:
                    continue
                if certified_zero((ids[m], ids[k]), (classes[m], classes[k]), caps):
                    assert _is_shared_zero(value, rule), (op, m, k)
                    counts["certified"] += 1
                elif ids[m] != ids[k] and 0 in key and classes[m] != classes[k]:
                    counts["unequal"] += value != 0
            counts["divisors"] += bool(rule[1])
            counts["collided"] += len(set(ids)) < len(ids)
            if n <= 12:  # the Gram matrix is the router's with no eigenvalues, entry by entry
                cq = op == build_operator(CQ_SPEC)
                gram = gram_matrix(CQ_SPEC, n) if cq else gram_matrix(op, n)
                gram_pairs = [(e.m, e.n) for e in gram.entries]
                funcs = [r.monic for r in table]
                tol = orthogonality.DEFAULT_TOL
                routes = orthogonality._route(w, pair_of(op), funcs, gram_pairs, tol)[1]
                for e, route in zip(gram.entries, routes):
                    assert (e.value, e.method, e.integrable) == route[:3], (op, e.m, e.n)
                    assert e.value is None or type(e.value) is type(route[0])
                counts["gram"] += 1
        assert all(counts[name] > floor for name, floor in floors.items()), counts

    def test_boundary_vanishing_pairs_are_certified_zeros(self):
        # oracles.boundary_vanishing is one-way: where it says the boundary term of two
        # eigenfunctions of different eigenvalues vanishes, the router values the pair,
        # certified_zero holds and the block's own value is an exact zero.  It is
        # conservative (it asks p a's exponent at an end to be positive, or 0 with both
        # functions vanishing there), so it refuses pairs that certified_zero proves, such as
        # laguerre(-1, -1)'s with s_f = s_g = 1: no converse
        vanishing = beyond = 0
        for op, n in divisor_draw() + certificate_draw()[::4]:
            built = _form_and_pairs(op, n)
            if built is None:
                continue
            w, table, form, pairs = built
            rule, _, classes = form
            caps = [k for _, k in rule[1]]
            ids = [r.eigenvalue for r in table]
            own = dict(zip(pairs, form_answers(w, pair_of(op), form, pairs)))
            for m, k in pairs:
                if m == k or ids[m] == ids[k]:
                    continue
                rule_holds = certified_zero((ids[m], ids[k]), (classes[m], classes[k]), caps)
                f, g = table[m].monic, table[k].monic
                if boundary_vanishing(w, op.coeffs[2], (m, k), (f, g)).vanishes:
                    assert isinstance(own[m, k], tuple) and rule_holds, (op, m, k)
                    assert _is_shared_zero(own[m, k][0], rule), (op, m, k)
                    vanishing += 1
                elif rule_holds and isinstance(own[m, k], tuple):
                    assert _is_shared_zero(own[m, k][0], rule), (op, m, k)
                    beyond += 1
        assert vanishing > 1500 and beyond > 700

    @pytest.mark.parametrize("divided", [False, True])
    def test_equal_eigenvalues_and_gaps_reach_the_block(self, divided):
        # x^j + x^(j-1) are no eigenfunctions, so a value the router took from anything but
        # the block's rows shows itself.  Handed ids as eigenvalues (degree 4 repeats degree
        # 2's, degree 6 degree 5's), the router asks the block every integrable pair, those
        # that certified_zero passes among them, and returns its value on each.  Undivided:
        # Legendre's weight, one class.  Divided: |x - 1|^-2 on (0, 1), a divisor (1, 2),
        # with root orders s = 0 at degree 0, 2 at degree 4 and 1 elsewhere, so that key 0
        # with s_f != s_g (degree 0 against 4) fails the rule, key 0 with s_f == s_g and key 1
        # pass it, degree 4's diagonal lies above a gap in its class, and degree 4 leaves a
        # gap below 5 and 6
        ids = [0, 1, 2, 3, 2, 4, 4]
        if divided:
            pearson = P(0, -1, 1), P(-1)  # x (x - 1) D^2 - D: |x - 1|^-2 on (0, 1)
            w, orders = derive_weight(*pearson), [0, 1, 1, 1, 2, 1, 1]
        else:
            pearson = pair_of(FamilySpec.jacobi(-1, -2, 0))
            w, orders = LEGENDRE_W, [0] * 7
        base = {  # (x - 1)^s (x^(j-s) + x^(j-s-1)), and (x - 1)^s at j = s
            j: P(-1, 1) ** s * (P(0, 1) ** (j - s) + (P(0, 1) ** (j - s - 1) if j > s else P()))
            for j, s in enumerate(orders)
        }
        form = router_form(w, pearson, base)
        rule, reduced, classes = form
        assert [len(c) - 1 for _, c in map(reduced.get, range(7))] == [
            j - s for j, s in enumerate(orders)
        ]
        pairs = [(m, k) for m in range(7) for k in range(m, 7)]
        want = dict(zip(pairs, form_answers(w, pearson, form, pairs)))
        # the router on the labels as an eigentable whose eigenvalues repeat as ids do
        routed = routed_block(w, pearson, list(base.values()), pairs, ids)
        tol = orthogonality.DEFAULT_TOL
        routes = orthogonality._route(w, pearson, list(base.values()), pairs, tol, ids)[1]
        got = dict(zip(pairs, routes))
        assert routed[4] == [pair for pair in pairs if isinstance(want[pair], tuple)]
        k_r = 2 if divided else 0
        caps = [k for _, k in rule[1]]
        passed = 0
        for (m, k), e in want.items():
            if isinstance(e, str):
                assert orders[m] + orders[k] < k_r and not got[m, k][2], (m, k)
                continue
            assert e[1] == ((orders[m] + orders[k] - k_r,) if divided else ())
            assert got[m, k][:3] == (e[0], "exact", True) and type(got[m, k][0]) is Fraction
            # the block's entry is not 0 off the diagonal, so a certified zero would show
            assert m == k or e[0] != 0, (m, k)
            passed += m != k and certified_zero((ids[m], ids[k]), (classes[m], classes[k]), caps)
        assert passed >= 10


def romanovski_colliding(n, shift):
    """(x^2 + 1) D^2 + ((1 - K) x + 1/3) D with K = 1 - b1/a2 = 2n + shift: lambda_m and
    lambda_k collide at m + k = K, so lambda_0 .. lambda_n are distinct and lambda_(n+1)
    repeats lambda_n (shift 1, the diagonal (n, n) inside the reach) or lambda_(n-1)
    (shift 0, (n, n) just past it)."""
    return DiffOperator([Poly(), P(Fraction(1, 3), 1 - 2 * n - shift), P(1, 0, 1)])


class TestCertifiedRegime:
    """A Gram matrix in the certified regime (a block route, lambda_0 .. lambda_(n+1) pairwise
    distinct, and at each division (r, k_r) the exponent E_r = -k_r with no printed degree below
    the sum of the k_r) reads no eigenfunction: it builds no operator matrix and no eigentable
    and calls no block.  Outside it each runs once.  Either way every entry is
    the router's uncertified one: the block's rows on the eigentable.  A Romanovski report,
    a view of its Gram matrix, makes the same calls, and at a collision builds the eigentable
    once more, for its statuses."""

    @pytest.mark.parametrize("source, n, regime, report", [
        (classical_presets()["legendre"], 8, True, False),
        (classical_presets()["laguerre"], 8, True, False),
        (ROM_SPEC, 10, True, False),  # alpha = -13/2: no collision
        (CQ_SPEC, 8, True, False),  # the division (1, 1), degrees from 1
        (FamilySpec.laguerre(-1, -2), 8, False, False),  # |x|^-3 e^(-x): the division (0, 3)
        (FamilySpec.laguerre(-1, 0), 8, False, False),  # |x|^-1 e^(-x): degrees from 0
        (romanovski_colliding(5, 1), 5, False, False),
        (romanovski_colliding(5, 0), 5, False, False),
        (ROM_SPEC, 5, True, True),
        (FamilySpec.romanovski(-6, 0), 5, False, True),  # lambda_m = lambda_k at m + k = 7
    ], ids=["legendre", "laguerre", "romanovski", "chaudhry-qadir", "laguerre-divided",
            "laguerre-degree-0", "collision-at-2n+1", "collision-at-2n", "romanovski-report",
            "romanovski-report-collision"])
    def test_regime_reads_no_eigenfunction(self, monkeypatch, source, n, regime, report):
        op = source if isinstance(source, DiffOperator) else build_operator(source)
        w, pearson = weight_of(source), pair_of(op)
        degrees = range(1 if source == CQ_SPEC else 0, n + 1)
        funcs = [r.monic if d in degrees else None for d, r in enumerate(eigentable(op, n))]
        pairs = [(m, k) for i, m in enumerate(degrees) for k in degrees[i:]]
        uncertified = orthogonality._route(w, pearson, funcs, pairs, orthogonality.DEFAULT_TOL)[1]
        eigenvalues = orthogonality._eigenvalues(pearson, n)
        divisions = _classify(w)[1]
        indicial = all(w.power_exponent_at(r) == -k for r, k in divisions)
        lowest = degrees[0] >= sum(k for _, k in divisions)
        assert (len(set(eigenvalues)) == n + 2 and indicial and lowest) == regime
        calls = Counter()
        matrix, table = DiffOperator.matrix, orthogonality.eigentable
        block = orthogonality._moment_block
        monkeypatch.setattr(DiffOperator, "matrix",
                            lambda self, m: calls.update(["matrix"]) or matrix(self, m))
        monkeypatch.setattr(orthogonality, "eigentable",
                            lambda *args: calls.update(["eigentable"]) or table(*args))
        monkeypatch.setattr(orthogonality, "_moment_block",
                            lambda *args: calls.update(["block"]) or block(*args))
        gram = gram_matrix(source, n)
        assert calls == (Counter() if regime else Counter(matrix=1, eigentable=1, block=1))
        assert [(e.m, e.n) for e in gram.entries] == pairs
        for e, route in zip(gram.entries, uncertified):
            assert (e.value, e.method, e.integrable) == route[:3], (e.m, e.n)
            assert type(e.value) is type(route[0]), (e.m, e.n)
        if isinstance(source, DiffOperator):  # the collision sits at n + 1 alone
            assert len(set(eigenvalues[:-1])) == n + 1 and eigenvalues[-1] in eigenvalues[:-1]
        if report:
            calls.clear()
            rom = finite_orthogonality_report(source.alpha, source.beta, n)
            assert calls == (Counter() if regime else Counter(matrix=2, eigentable=2, block=1))
            off = [(e.m, e.n, e.value, e.relative) for e in gram.entries if e.m != e.n]
            assert [(p.m, p.n, p.value, p.relative) for p in rom.pairs] == off

    def test_moment_underflow_is_refused(self):
        # exp(-x) on (800, +inf), m_0 = e^-800, in the regime, and |x - 800|^-1 exp(-x) there,
        # with the division (800, 1), through the block: both read every entry as 0.0 and
        # answered; the mirror exp(-x) on (-800, +inf), m_0 = e^800, is refused as an overflow
        for b, formula in ((P(801, -1), "exp(-x)"), (P(800, -1), "|x - 800|^(-1) * exp(-x)")):
            refusal = f"^a moment entry on {re.escape(formula)} underflows a float$"
            with pytest.raises(ValueError, match=refusal):
                gram_matrix(DiffOperator([Poly(), b, P(-800, 1)]), 3)
        with pytest.raises(ValueError, match=r"^a moment entry on exp\(-x\) overflows a float$"):
            gram_matrix(DiffOperator([Poly(), P(-799, -1), P(800, 1)]), 3)


def divided_draw():
    """Seeded operators whose weights have a division, each with a degree: the Laguerre shape
    c (x - t) D^2 + c (E + 1 + s (x - t)) D, the weight |x - t|^E e^(s x), and the Jacobi
    shape c (x - r1)(x - r2) D^2 + c ((E1 + 1)(x - r2) + (E2 + 1)(x - r1)) D, the weight
    |x - r1|^E1 |x - r2|^E2 on (r1, r2), with E and E1 in -1..-4 or a non-integer <= -1, and
    E2 an integer in -2..3 or a non-integer, either end first."""
    rng = random.Random(57)
    scales = [Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 2)]
    divided = [-1, -2, -3, -4, Fraction(-3, 2), Fraction(-7, 3), Fraction(-11, 4)]
    draw = []
    for _ in range(60):
        t, c = Fraction(rng.randint(-6, 6), rng.randint(1, 3)), rng.choice(scales)
        e = rng.choice(divided)
        s = rng.choice([-1, 1]) * Fraction(rng.randint(1, 6), rng.randint(1, 3))
        draw.append((DiffOperator([Poly(), c * P(e + 1 - s * t, s), c * P(-t, 1)]), rng.randint(1, 14)))
    for _ in range(90):
        r1 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        r2 = r1 + Fraction(rng.randint(1, 9), rng.randint(1, 4))
        e1, e2 = rng.choice(divided), rng.choice([-2, -1, 0, 0, 1, 1, 2, 3, Fraction(1, 2), Fraction(-1, 3)])
        if rng.random() < 0.5:
            e1, e2 = e2, e1
        c = rng.choice(scales)
        b = c * ((e1 + 1) * P(-r2, 1) + (e2 + 1) * P(-r1, 1))
        draw.append((DiffOperator([Poly(), b, c * P(-r1, 1) * P(-r2, 1)]), rng.randint(1, 14)))
    return draw


def _answers(w, pearson, funcs, pairs, eigenvalues=None):
    """The router's (value, method, integrable) per pair, each value's type, and the
    refusal's text in place of them all where the router raises a ValueError."""
    try:
        routes = orthogonality._route(w, pearson, funcs, pairs, orthogonality.DEFAULT_TOL,
                                      eigenvalues)[1]
    except ValueError as refusal:
        return str(refusal)
    return [(*route[:3], type(route[0])) for route in routes]


class TestDividedRegime:
    """The certified regime at divisions: the indicial law gives every root order from (a, b),
    and the diagonals are Favard's on the shifted pair (a, b + sum 2 k_r a/(x - r))."""

    def test_indicial_law_gives_the_root_orders(self):
        # at a division (r, k_r), with E_r its exponent, every degree d whose eigenvalue no lower
        # degree shares has the root order -E_r at r where E_r is an integer in [-d, -1], and 0
        # otherwise; _reduce, which strips the eigentable, reads it capped at k_r
        counts = Counter()
        for op, _ in divided_draw():
            w = derive_weight(*pair_of(op))
            divisions = _classify(w)[1]
            assert divisions, op
            table = eigentable(op, 14)
            ids = [row.eigenvalue for row in table]
            unique = {d: row.monic for d, row in enumerate(table) if ids[d] not in ids[:d]}
            assert None not in unique.values(), op
            classes, _ = orthogonality._reduce(unique, divisions)
            for i, (r, k) in enumerate(divisions):
                e = w.power_exponent_at(r)
                for d, f in unique.items():
                    law = -e if e.denominator == 1 and -d <= e else 0
                    assert f.strip_root(r, d)[1] == law and classes[d][i] == min(law, k), (op, d)
                    counts["root" if law else "integer" if e.denominator == 1 else "fraction"] += 1
            counts["collided"] += len(unique) < len(table)
        floors = {"root": 1000, "integer": 100, "fraction": 700, "collided": 20}
        assert all(counts[name] >= floor for name, floor in floors.items()), counts

    def test_chaudhry_qadir_is_the_uncertified_route(self, monkeypatch):
        # gram_matrix at n = 1..40 builds no eigentable and calls no block, and every entry is
        # the router's with no eigenvalues given: the block's rows on the eigentable
        op = build_operator(CQ_SPEC)
        funcs = [r.monic for r in eigentable(op, 41)]
        calls, block = Counter(), orthogonality._moment_block
        monkeypatch.setattr(orthogonality, "eigentable",
                            lambda *args: calls.update(["eigentable"]) or eigentable(*args))
        monkeypatch.setattr(orthogonality, "_moment_block",
                            lambda *args: calls.update(["block"]) or block(*args))
        for n in range(1, 41):
            gram = gram_matrix(CQ_SPEC, n)
            assert not calls, n
            pairs = [(e.m, e.n) for e in gram.entries]
            want = _answers(CQ_W, pair_of(op), funcs[: n + 1], pairs)
            calls.clear()  # the uncertified route calls the block
            got = [(e.value, e.method, e.integrable, type(e.value)) for e in gram.entries]
            assert got == want, n

    def test_seeded_divisions_are_the_uncertified_route(self):
        # on pairs over the degrees lo..n, lo = sum(k_r) and one below it: with the eigenvalues
        # the router reads no eigenfunction exactly where the regime holds (distinct
        # eigenvalues, every E_r = -k_r, no degree below sum(k_r)), and its answers, values,
        # types and refusals alike, are the router's with no eigenvalues given
        counts = Counter()
        for op, n in divided_draw():
            w, pearson = derive_weight(*pair_of(op)), pair_of(op)
            route, divisions, _, _ = _classify(w)
            if route not in ("exact", "laguerre"):
                continue
            funcs = [r.monic for r in eigentable(op, n)]
            eigenvalues = orthogonality._eigenvalues(pearson, n)
            lo = sum(k for _, k in divisions)
            indicial = all(w.power_exponent_at(r) == -k for r, k in divisions)
            for start in (lo, lo - 1):
                if not 0 <= start <= n:
                    continue
                pairs = [(m, k) for m in range(start, n + 1) for k in range(m, n + 1)]
                read = []
                got = _answers(w, pearson, lambda: read.append(1) or funcs, pairs, eigenvalues)
                assert got == _answers(w, pearson, funcs, pairs), (op, start)
                regime = len(set(eigenvalues)) == n + 2 and indicial and start >= lo
                assert (not read) == regime, (op, start)
                if regime and not isinstance(got, str):
                    counts[route] += sum(m == k and a[2] for (m, k), a in zip(pairs, got))
                counts["outside"] += not regime
        floors = {"exact": 120, "laguerre": 200, "outside": 120}
        assert all(counts[name] >= floor for name, floor in floors.items()), counts


def pearson_draw():
    """Seeded second-order operators with a moment form, each with a degree: Jacobi
    c (x - r1)(x - r2) D^2 + c ((E1 + 1)(x - r2) + (E2 + 1)(x - r1)) D with integer end
    exponents in -5..4 (a divisor where one is <= -1), the jacobi family's (1 - x)^a (1 + x)^b,
    Laguerre |x|^(beta - 1) e^(alpha x) on both sides of E = -1, and Romanovski
    c (x^2 + 1) D^2 + (alpha x + beta) D (romanovski_shape_draw)."""
    rng = random.Random(37)
    draw = []
    for _ in range(300):
        r1 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        r2 = r1 + Fraction(rng.randint(1, 9), rng.randint(1, 4))
        e1, e2 = rng.randint(-5, 4), rng.randint(-5, 4)
        c = rng.choice([Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 2)])
        b = c * ((e1 + 1) * P(-r2, 1) + (e2 + 1) * P(-r1, 1))
        draw.append((DiffOperator([Poly(), b, c * P(-r1, 1) * P(-r2, 1)]), rng.randint(2, 12)))
    for _ in range(60):
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        draw.append((build_operator(FamilySpec.jacobi(-1, -2 - a - b, b - a)), rng.randint(2, 12)))
    for _ in range(150):
        alpha = rng.choice([-1, 1]) * Fraction(rng.randint(1, 6), rng.randint(1, 3))
        beta = Fraction(rng.randint(-12, 9), rng.choice([1, 1, 2, 3]))
        draw.append((build_operator(FamilySpec.laguerre(alpha, beta)), rng.randint(2, 12)))
    for c, alpha, beta, n in romanovski_shape_draw()[60:]:
        draw.append((DiffOperator([Poly(), P(beta, alpha), c * P(1, 0, 1)]), n + 4))
    return draw


class TestPearsonPair:
    def test_form_pair_is_the_operators_shifted(self, monkeypatch):
        # every key the block reads takes the operator's own (a, b), cleared to ints over
        # lcm(a.den, b.den), plus s_r a/(x - r) with s_r = k_r + key_r the pair's root order at
        # each divisor r, an end of the weight's interval: the same ints, with no scale between
        # the two.  The block reads its keys' moments in order of first appearance, one
        # _moment_ratios call each
        pairs = []
        ratios = orthogonality._moment_ratios

        def spy_ratios(pair, *args):
            pairs.append(pair)
            return ratios(pair, *args)

        monkeypatch.setattr(orthogonality, "_moment_ratios", spy_ratios)
        shapes, shifted, read = Counter(), 0, 0
        for op, n in pearson_draw():
            w, _, form, asked = _form_and_pairs(op, n)
            shapes[_classify(w)[0]] += 1
            start = len(pairs)
            answers = form_answers(w, pair_of(op), form, asked)
            keys = list(dict.fromkeys(answer[1] for answer in answers if isinstance(answer, tuple)))
            assert len(pairs) - start == len(keys), op
            read += len(keys)
            divisions = form[0][1]
            for key, pair in zip(keys, pairs[start:]):
                a, b = op.coeffs[2], op.coeffs[1]
                d = math.lcm(a.den, b.den)
                a, b = a * d, b * d
                for (r, k), e in zip(divisions, key):
                    assert r in (w.interval.lo, w.interval.hi), (op, r)
                    quotient, order = ref_strip_root(a.coeffs, r, 1)  # a/(x - r)
                    assert order == 1, (op, r)
                    b = b + (k + e) * Poly(quotient)
                shifted += any(k + e for (_, k), e in zip(divisions, key))
                want = [a.coeff(0), a.coeff(1), a.coeff(2), b.coeff(0), b.coeff(1)]
                assert b.degree <= 1 and all(type(v) is int for v in pair), (op, key)
                assert list(pair) == want, (op, key, pair)
        assert shapes == {"exact": 360, "laguerre": 150, "romanovski": 60}
        assert read == len(pairs) > 750 and shifted > 500

    def test_weights_pair_is_the_operators(self):
        # WeightExpr.pearson_pair, inner_product's pair, is the operator's (a, b) up to one scale
        for op, _ in pearson_draw():
            a, b = pair_of(op)
            wa, wb = derive_weight(a, b).pearson_pair()
            scale = a.leading() / wa.leading()
            assert (wa * scale, wb * scale) == (a, b), op

    @pytest.mark.parametrize(
        "draw, floor", [(pearson_draw, 300), (certificate_draw, 50)], ids=["pearson", "certificate"]
    )
    def test_form_divisors_are_the_integrability_rules(self, draw, floor):
        # the block takes each end's exponent from the rule, which sums it off the weight's
        # factors: it is E_r of the operator's pair (weights._exponent) at each end of the
        # weight's interval, and k = floor(-E_r) wherever it is positive is the rule's k at
        # every end, on every weight with a moment block, so each division's root is an end
        divided = 0
        for op, _ in draw():
            try:
                w = derive_weight(*pair_of(op))
            except ValueError:
                continue
            if _classify(w)[0] not in ("exact", "laguerre", "romanovski"):
                continue
            rule, _, _ = router_form(w, pair_of(op), {})
            ends = [r for r in (w.interval.lo, w.interval.hi) if r is not None]
            assert list(rule[3]) == [_exponent(*pair_of(op), r) for r in ends], op
            from_pair = [(r, math.floor(-e)) for r, e in zip(ends, rule[3]) if math.floor(-e) > 0]
            divisions = list(rule[1])
            assert from_pair == divisions, op
            divided += bool(divisions)
        assert divided > floor


class TestMomentRatios:
    # the recurrence reads the pair alone: on the two Bochner shapes that derive_weight (so
    # gram) refuses, each operator's own (a, b) gives its moment functional's m_k / m_0
    @pytest.mark.parametrize("a, b, want", [
        # Krall and Frink's Bessel functional, x^2 D^2 + (2x + 2) D: (-2)^k / (k + 1)!
        (P(0, 0, 1), P(2, 2), [Fraction((-2) ** k, math.factorial(k + 1)) for k in range(10)]),
        # the semicircle on (-sqrt 2, sqrt 2), (2 - x^2) D^2 - 3x D: C_j / 2^j at k = 2j
        (P(2, 0, -1), P(0, -3), [
            0 if k % 2 else Fraction(math.comb(k, k // 2), (k // 2 + 1) * 2 ** (k // 2))
            for k in range(10)
        ]),
    ], ids=["bessel", "semicircle"])
    def test_ratios_know_nothing_of_the_shape(self, a, b, want):
        op = DiffOperator([Poly(), b, a])
        with pytest.raises(UnsupportedLeadingCoefficient):
            gram_matrix(op, 2)
        pair = [int(a.coeff(i)) for i in range(3)] + [int(b.coeff(i)) for i in range(2)]
        den, nums = orthogonality._moment_ratios(pair, len(want) - 1)
        assert [Fraction(v, den) for v in nums] == want
        assert want[:7] in (
            [1, -1, Fraction(2, 3), Fraction(-1, 3), Fraction(2, 15), Fraction(-2, 45), Fraction(4, 315)],
            [1, 0, Fraction(1, 2), 0, Fraction(1, 2), 0, Fraction(5, 8)],
        )


def integrability_draw():
    """Seeded second-order operators, each with a degree, whose weights all have a moment form:
    c (x - r1)(x - r2) D^2 + c ((E1 + 1)(x - r2) + (E2 + 1)(x - r1)) D, the weight
    |x - r1|^E1 |x - r2|^E2 on (r1, r2) with rational ends and integer E1, E2 in -5..3 (their
    negative sums collide eigenvalues, so some degrees have no eigenfunction); c (x - t) D^2 +
    (b1 x + b0) D, a half line on either side of t with E = b0/c + b1 t/c - 1 <= -1; and the
    Romanovski operators of romanovski_shape_draw, near and past their reach."""
    rng = random.Random(532)
    draw = []
    for _ in range(50):
        r1 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        r2 = r1 + Fraction(rng.randint(1, 9), rng.randint(1, 4))
        e1, e2 = rng.randint(-5, 3), rng.randint(-5, 3)
        c = rng.choice([Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 2)])
        b = c * ((e1 + 1) * P(-r2, 1) + (e2 + 1) * P(-r1, 1))
        draw.append((DiffOperator([Poly(), b, c * P(-r1, 1) * P(-r2, 1)]), rng.randint(2, 10)))
    for _ in range(30):
        t = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        c = rng.choice([Fraction(1), Fraction(-2), Fraction(1, 2)])
        b1 = rng.choice([-1, 1]) * Fraction(rng.randint(1, 5), rng.randint(1, 3))
        e = rng.choice([-1, -2, -3]) - Fraction(rng.randint(0, 5), rng.randint(1, 3))  # E <= -1
        draw.append((DiffOperator([Poly(), P(c * (e + 1) - b1 * t, b1), c * P(-t, 1)]), rng.randint(2, 10)))
    for c, alpha, beta, n in romanovski_shape_draw()[60:]:
        draw.append((DiffOperator([Poly(), P(beta, alpha), c * P(1, 0, 1)]), n + 4))
    return draw


class TestIntegrabilityDecision:
    def test_gram_entries_match_the_root_order_verdict(self):
        # where a weight has a moment form, the router alone decides integrability (a negative
        # key, or past the Romanovski reach); every Gram entry's flag must equal the oracles'
        # integrability verdict on p times (x - r)^s at each root r of p, with s the
        # pair's summed root orders read by the oracle's synthetic division, times a degree
        # m + n - sum(s); a pair with no eigenfunction reads the degree verdict for m + n
        counts = {"exact": 0, "laguerre": 0, "romanovski": 0}
        refused = missing = 0
        for op, n in integrability_draw():
            w = derive_weight(op.coeffs[2], op.coeffs[1])
            shape = _classify(w)[0]
            counts[shape] += 1
            roots = sorted({pf.root for pf in w.power_factors})
            funcs = [r.monic for r in eigentable(op, n)]
            orders = [
                None if f is None else [ref_strip_root(f.coeffs, r, f.degree)[1] for r in roots]
                for f in funcs
            ]
            for e in gram_matrix(op, n).entries:
                if orders[e.m] is None or orders[e.n] is None:
                    want = integrability(w, e.m + e.n).integrable
                    missing += 1
                else:
                    s = [a + b for a, b in zip(orders[e.m], orders[e.n])]
                    factor = functools.reduce(
                        lambda acc, rs: acc * P(-rs[0], 1) ** rs[1], zip(roots, s), Poly.one()
                    )
                    want = integrability(w, e.m + e.n - sum(s), factor).integrable
                assert e.integrable == want, (op, e.m, e.n)
                refused += not want
        assert counts == {"exact": 50, "laguerre": 30, "romanovski": 60}
        assert refused > 2000 and missing > 300


def hand_built_draw():
    """Seeded hand-built weights, each with a table funcs[d] of degree d in 0..8 (None at
    random, a degree with no eigenfunction) whose roots at the weight's roots have orders
    0..3: finite intervals with roots at the ends, inside, repeated (two factors, one
    root) and outside; half lines with a power law or an exponential e^(c x) or e^(c x^2)
    of either sign; the real line with (x^2+1)^q, arctan, a Gaussian of either sign or a
    constant exponential of either sign, with or without power factors."""
    rng = random.Random(4201)
    rat = lambda num, den: Fraction(rng.randint(-num, num), rng.randint(1, den))
    draw = []
    for i in range(240):
        kind = ("finite", "half", "real")[i % 3]
        lo = rat(4, 2)
        hi = lo + Fraction(rng.randint(1, 6), rng.randint(1, 2))
        parts = {}
        if kind == "finite":
            interval, spots = Interval(lo, hi), [lo, hi, (lo + hi) / 2, hi + 1]
        elif kind == "half":
            interval = rng.choice([Interval(lo, None), Interval(None, lo)])
            spots = [lo, lo + 1, lo - 1]
            if rng.random() < 0.6:
                parts["exp_poly"] = P(*[0] * rng.randint(1, 2), rat(3, 2) or Fraction(1))
        else:
            interval, spots = Interval(None, None), [lo, hi]
            choice = rng.randrange(4)
            if choice == 0:
                parts["quad_exp"], parts["arctan_coeff"] = rat(12, 4), rat(4, 2)
            elif choice == 1:
                parts["exp_poly"] = P(rat(2, 1), rat(2, 1), rat(3, 2) or Fraction(-1))
            else:  # a constant exponential, with or without (x^2+1)^q
                parts["exp_poly"] = P(rat(3, 2) or Fraction(-1))
                if choice == 3:
                    parts["quad_exp"] = rat(12, 4)
        factors = []
        for _ in range(rng.randint(0 if kind == "real" else 1, 3)):
            exponent = rng.choice([Fraction(rng.randint(-5, 2)), rat(10, 3)])
            factors.append(PowerFactor(rng.choice(spots), exponent))
        w = WeightExpr(power_factors=tuple(factors), interval=interval, **parts)
        roots = sorted({pf.root for pf in factors})
        funcs = []
        for d in range(9):
            if rng.random() < 0.15:
                funcs.append(None)
                continue
            f = Poly.one()
            for r in roots:
                f *= P(-r, 1) ** min(rng.randint(0, 3), d - f.degree)
            funcs.append(f * P(*[rat(6, 3) for _ in range(d - f.degree)], 1))
        draw.append((w, funcs))
    return draw


class TestIntegrabilityRule:
    def test_gate_matches_the_oracle_on_hand_built_weights(self, monkeypatch):
        # the router's one decision reads weights' one rule (divisions, reach) with each
        # function's capped root orders, on every shape; the oracle reads p f g's endpoint
        # facts with f g formed, one condition per root and infinite end: they must agree on
        # every pair.  The node sweep is stubbed (only the verdicts are compared), so a
        # weight with no quadrature map passes its integrable pairs to it too
        monkeypatch.setattr(
            orthogonality, "_numeric_quad",
            lambda w, route, funcs, pairs, tol: [SimpleNamespace(value=0.0, err_est=0.0)] * len(pairs),
        )
        verdicts, shapes = Counter(), Counter()
        for w, funcs in hand_built_draw():
            pairs = list(combinations_with_replacement(range(len(funcs)), 2))
            route, routes = orthogonality._route(w, w.pearson_pair(), funcs, pairs, 1e-10)
            shapes[route] += 1
            for (i, j), route in zip(pairs, routes):
                f, g = funcs[i], funcs[j]
                if f is None or g is None:
                    want = integrability(w, i + j).integrable
                else:
                    want = integrability(w, factor=f * g).integrable
                assert route[2] == want, (w, i, j)
                verdicts[want, w.interval.finite, not w.exp_poly or w.exp_poly.degree == 0] += 1
        assert set(shapes) == {"exact", "finite", "laguerre", "romanovski", "gaussian", None}
        assert sorted(verdicts) == [(v, finite, flat) for v in (False, True)
                                    for finite in (False, True) for flat in (False, True)
                                    if not (finite and not flat)]
        assert min(verdicts.values()) > 100

    def test_constant_exponential_is_no_decay(self):
        # e^E with E constant is a constant factor: the power law decides at the infinite
        # ends.  exp(-1) on R admits no degree, and (x^2+1)^(-1) e admits degree 0 (its
        # integral is e pi) on no route the library has
        real_line = Interval(None, None)
        bare = WeightExpr(exp_poly=P(-1), interval=real_line)
        with pytest.raises(NonIntegrable, match=r"^p f g of degree 0 is not integrable"):
            inner_product(bare, Poly.one(), Poly.one())
        cauchy = WeightExpr(quad_exp=Fraction(-1), exp_poly=P(1), interval=real_line)
        formula = re.escape("(x^2+1)^(-1) * exp(1)")
        with pytest.raises(ValueError, match=f"^no quadrature map for {formula} on"):
            inner_product(cauchy, Poly.one(), Poly.one())
        with pytest.raises(NonIntegrable):
            inner_product(cauchy, Poly.one(), P(0, 1))


class TestRefusals:
    @pytest.mark.parametrize("call", [
        lambda: gram_matrix(FamilySpec.jacobi(-1, -2, 0), -1),
        lambda: gram_matrix(build_operator(ROM_SPEC), -1),
        lambda: finite_orthogonality_report(Fraction(-13, 2), 1, -1),
    ], ids=["gram_matrix", "gram_matrix_for_operator", "finite_orthogonality_report"])
    def test_negative_degree(self, call):
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            call()

    @pytest.mark.parametrize("coeffs", [
        [Poly(), Poly.one()],  # D
        [Poly(), Poly(), Poly(), Poly.one()],  # D^3
        [Poly(), P(0, -2), P(1, 0, -1), Poly(), P(0, 0, 0, 0, 1)],  # Legendre plus x^4 D^4
    ], ids=["order-1", "order-3", "order-4"])
    def test_gram_for_operator_needs_order_two(self, coeffs):
        with pytest.raises(ValueError, match="^gram matrices require a second-order operator$"):
            gram_matrix(DiffOperator(coeffs), 2)

    @pytest.mark.parametrize("weight, reason", [
        (WeightExpr(exp_poly=P(0, 1)), "weight has a transcendental factor"),
        (WeightExpr(arctan_coeff=Fraction(1)), "weight has a transcendental factor"),
        (WeightExpr(quad_exp=Fraction(1, 2)), r"weight has a \(x\^2\+1\) factor"),
        (WeightExpr(quad_exp=Fraction(-3), interval=Interval(Fraction(0), Fraction(2))),
         r"weight has a \(x\^2\+1\) factor"),
    ], ids=["exp", "arctan", "quad", "quad-on-(0,2)"])
    def test_exact_route_refuses_finite_weight_shapes(self, weight, reason):
        # _classify leaves these to quadrature on the interval, where the oracle refuses them
        assert _classify(weight)[0] == "finite"
        for f in (Poly.one(), Poly()):  # refused before the zero case
            with pytest.raises(NotPolynomialReducible, match=f"^{reason}$"):
                divide_and_integrate(weight, f, P(1, 1))
        assert inner_product(weight, Poly.one(), P(1, 1))[1] == "quadrature"

    def test_missing_entry_is_key_error(self):
        report = gram_matrix(CQ_SPEC, 3)  # degrees 1..3
        assert report.entry(3, 1) is report.entry(1, 3)
        for m, n in ((0, 1), (1, 4), (-1, 2)):
            with pytest.raises(KeyError, match=rf"no gram entry \({m}, {n}\)"):
                report.entry(m, n)


def no_route_draw():
    """Seeded second-order operators whose derived weight has no route: c (x - r) D^2 + b0 D,
    the weight |x - r|^(b0/c - 1) with no exponential on a half line, and c D^2 +
    (b1 x + b0) D with b1/c >= 0, e^((b1/(2c)) x^2 + (b0/c) x) on the real line, which does
    not decay at both ends."""
    rng = random.Random(35)
    draw = []
    for _ in range(25):
        c = rng.choice([Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(-2, 3)])
        r = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        b0 = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        draw.append((DiffOperator([Poly(), P(b0), c * P(-r, 1)]), rng.randint(0, 8)))
    for _ in range(25):
        c = rng.choice([Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(-2, 3)])
        b1 = c * rng.choice([Fraction(0), Fraction(rng.randint(1, 9), rng.randint(1, 4))])
        b0 = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        draw.append((DiffOperator([Poly(), P(b0, b1), c * P(1)]), rng.randint(0, 8)))
    return draw


class TestNoRouteWeights:
    def test_derived_weights_without_a_route_have_no_integrable_entry(self):
        # so the no-quadrature-map ValueError is raised only for a hand-built weight
        ops = [build_operator(spec) for spec in (
            FamilySpec.laguerre(0, 1), FamilySpec.laguerre(0, -3), FamilySpec.hermite(0, 1),
            FamilySpec.hermite(2, 0), FamilySpec.hermite(2, -1),
        )]
        draw = [(op, 6) for op in ops] + no_route_draw()
        for op, n in draw:
            w = derive_weight(op.coeffs[2], op.coeffs[1])
            assert _classify(w)[0] is None, w.formula()
            entries = gram_matrix(op, n).entries
            assert len(entries) == (n + 1) * (n + 2) // 2
            for e in entries:
                assert not e.integrable and e.value is None, (op, e)
        assert len(draw) == 55
