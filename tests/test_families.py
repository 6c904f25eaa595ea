import random
from fractions import Fraction

import pytest

from specpoly import (
    AffineNormalization,
    FamilyKind,
    FamilySpec,
    Poly,
    bochner_normalize,
    build_operator,
    classical_presets,
    eigentable,
    monic_eigenfunction,
    normalize_operator,
)

from oracles import monic_classical


def P(*coeffs):
    return Poly(coeffs)


# the polynomial each AffineNormalization.normal_form names
NORMAL_FORMS = {"x^2-1": P(-1, 0, 1), "x^2+1": P(1, 0, 1), "x^2": P(0, 0, 1), "x": P(0, 1), "1": P(1)}


class TestBuildOperator:
    def test_legendre_from_jacobi(self):
        op = build_operator(FamilySpec.jacobi(-1, -2, 0))
        assert op.coeffs[2] == P(1, 0, -1)
        assert op.coeffs[1] == P(0, -2)
        assert op.coeffs[0].is_zero()

    def test_chaudhry_qadir(self):
        op = build_operator(FamilySpec.chaudhry_qadir())
        assert op.coeffs[2] == P(0, 1, -1)
        assert op.coeffs[1] == P(1, -1)

    def test_romanovski(self):
        op = build_operator(FamilySpec.romanovski(Fraction(-13, 2), 1))
        assert op.coeffs[2] == P(1, 0, 1)
        assert op.coeffs[1] == P(1, "-13/2")

    def test_jacobi_eps_plus_one(self):
        op = build_operator(FamilySpec.jacobi(1, -2, 3))
        assert op.coeffs[2] == P(1, 0, 1)
        assert op.coeffs[1] == P(3, -2)

    def test_laguerre_and_hermite(self):
        lag = build_operator(FamilySpec.laguerre(-1, 1))
        assert lag.coeffs[2] == P(0, 1)
        assert lag.coeffs[1] == P(1, -1)
        her = build_operator(FamilySpec.hermite(-2, 0))
        assert her.coeffs[2] == Poly.one()
        assert her.coeffs[1] == P(0, -2)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            FamilySpec.jacobi(2, 0, 0)

    def test_a_spec_holds_only_its_family_parameters(self):
        # one operator, one spec: eps is Jacobi's alone, and chaudhry-qadir takes nothing
        for kind in (FamilyKind.LAGUERRE, FamilyKind.HERMITE, FamilyKind.ROMANOVSKI):
            with pytest.raises(ValueError, match=f"{kind.value} takes no eps"):
                FamilySpec(kind, Fraction(-1), Fraction(1), 1)
            assert FamilySpec(kind, Fraction(-1), Fraction(1), -1) == FamilySpec(kind, -1, 1)
        for alpha, beta in ((3, 2), (3, 0), (0, Fraction(1, 2))):
            with pytest.raises(ValueError, match="chaudhry-qadir takes no alpha or beta"):
                FamilySpec(FamilyKind.CHAUDHRY_QADIR, Fraction(alpha), Fraction(beta))
        with pytest.raises(ValueError, match="chaudhry-qadir takes no eps"):
            FamilySpec(FamilyKind.CHAUDHRY_QADIR, eps=1)

    def test_a_spec_stores_one_form_of_each_field(self):
        # the kind through FamilyKind and alpha, beta through rat, whatever form they come in:
        # equal specs hash alike, describe alike and build one operator
        for spec, same in (
            (FamilySpec("jacobi", -2, 0), FamilySpec.jacobi(-1, -2, 0)),
            (FamilySpec(FamilyKind.JACOBI, "1/2"), FamilySpec.jacobi(-1, "1/2", 0)),
            (FamilySpec("romanovski", Fraction(-13, 2), "1"), FamilySpec.romanovski("-13/2", 1)),
        ):
            assert spec == same and hash(spec) == hash(same), spec
            assert spec.kind is same.kind and type(spec.alpha) is type(spec.beta) is Fraction
            assert spec.describe() == same.describe()
            assert build_operator(spec) == build_operator(same)

    @pytest.mark.parametrize("args, error, message", [
        ((FamilyKind.JACOBI, 0.5), TypeError, "cannot interpret 0.5 as an exact rational"),
        ((FamilyKind.JACOBI, -2, 0, 1.0), TypeError, "eps must be an int, not 1.0"),
        (("bessel", -2, 0), ValueError, "'bessel' is not a valid FamilyKind"),
    ], ids=["float-alpha", "float-eps", "unknown-kind"])
    def test_a_spec_refuses_a_field_it_cannot_normalize(self, args, error, message):
        # refused when built, not later in build_operator or describe
        with pytest.raises(error, match=f"^{message}$"):
            FamilySpec(*args)

    def test_all_specs_validate(self):
        rng = random.Random(43)
        for _ in range(20):
            alpha = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            beta = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            for spec in (
                FamilySpec.jacobi(rng.choice([-1, 1]), alpha, beta),
                FamilySpec.laguerre(alpha, beta),
                FamilySpec.hermite(alpha, beta),
                FamilySpec.romanovski(alpha, beta),
            ):
                build_operator(spec)  # validates deg(a_k) <= k on construction


class TestSpectrumBetaIndependence:
    def test_beta_only_touches_subdiagonal(self):
        rng = random.Random(47)
        for _ in range(10):
            alpha = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            beta = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            base = build_operator(FamilySpec.jacobi(-1, alpha, 0)).spectrum(8)
            shifted = build_operator(FamilySpec.jacobi(-1, alpha, beta)).spectrum(8)
            assert base.values == shifted.values


class TestClassicalPresets:
    def test_preset_names(self):
        presets = classical_presets()
        assert set(presets) == {
            "legendre",
            "chebyshev1",
            "chebyshev2",
            "hermite",
            "laguerre",
            "chaudhry-qadir",
        }

    def test_legendre_operator(self):
        op = build_operator(classical_presets()["legendre"])
        assert op.coeffs[2] == P(1, 0, -1)
        assert op.coeffs[1] == P(0, -2)

    def test_chebyshev1_monic_degree_two(self):
        op = build_operator(classical_presets()["chebyshev1"])
        assert monic_eigenfunction(op, 2).monic == P("-1/2", 0, 1)

    def test_hermite_spectrum(self):
        op = build_operator(classical_presets()["hermite"])
        assert op.spectrum(6).values == tuple(Fraction(-2 * n) for n in range(7))

    def test_laguerre_spectrum(self):
        op = build_operator(classical_presets()["laguerre"])
        assert op.spectrum(6).values == tuple(Fraction(-n) for n in range(7))

    @pytest.mark.parametrize(
        "preset", ["legendre", "chebyshev1", "chebyshev2", "hermite", "laguerre"]
    )
    def test_eigenfunctions_match_recurrence_oracle(self, preset):
        op = build_operator(classical_presets()[preset])
        expected = monic_classical(preset, 8)
        for result, want in zip(eigentable(op, 8), expected):
            assert result.monic == want, (preset, result.degree)


class TestBochnerNormalize:
    def test_complete_the_square(self):
        norm = bochner_normalize(P(2, -2, 1))
        assert norm == AffineNormalization(Fraction(1), Fraction(1), Fraction(1), "x^2+1")

    def test_constant(self):
        norm = bochner_normalize(P(3))
        assert norm == AffineNormalization(Fraction(1), Fraction(0), Fraction(3), "1")

    def test_two_root_quadratic(self):
        norm = bochner_normalize(P(-8, 0, 2))
        assert norm == AffineNormalization(Fraction(2), Fraction(0), Fraction(8), "x^2-1")

    def test_linear(self):
        norm = bochner_normalize(P(-6, 3))
        assert norm.normal_form == "x"
        assert norm.c == 1
        assert norm.s == Fraction(1, 3)
        assert norm.t == 2

    def test_double_root(self):
        norm = bochner_normalize(P(1, -2, 1))
        assert norm.normal_form == "x^2"
        assert norm.t == 1

    def test_example_one_orientation_has_negative_c(self):
        norm = bochner_normalize(P(1, 0, -1))  # 1 - x^2
        assert norm.normal_form == "x^2-1"
        assert norm.c == -1
        assert norm.s > 0

    def test_rejects_degree_three(self):
        with pytest.raises(ValueError):
            bochner_normalize(Poly((0, 0, 0, 1)))

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="^cannot normalize the zero polynomial$"):
            bochner_normalize(Poly())

    def test_rejects_irrational_roots(self):
        with pytest.raises(ValueError):
            bochner_normalize(P(-2, 0, 1))  # roots +-sqrt(2)
        with pytest.raises(ValueError):
            bochner_normalize(P(2, 0, 1))  # x^2 + 2 needs s = sqrt(2)

    def test_round_trip_property(self):
        rng = random.Random(53)
        cases = [P(2, -2, 1), P(3), P(-8, 0, 2), P(-6, 3), P(1, -2, 1), P(1, 0, -1)]
        for _ in range(20):
            # synthesize a normalizable quadratic from random rational data
            s = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            t = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            c = Fraction(rng.choice([i for i in range(-5, 6) if i]), 1)
            nf = rng.choice([P(-1, 0, 1), P(1, 0, 1), P(0, 0, 1), P(0, 1), P(1)])
            cases.append((c * nf).affine_sub(1 / s, -t / s))
        for a in cases:
            norm = bochner_normalize(a)
            assert a.affine_sub(norm.s, norm.t) == norm.c * NORMAL_FORMS[norm.normal_form]


class TestNormalizeOperator:
    def test_leading_becomes_normal_form(self):
        op = build_operator(FamilySpec.jacobi(-1, -2, 0))
        normalized, norm, scale = normalize_operator(op)
        assert normalized.coeffs[2] == NORMAL_FORMS[norm.normal_form]
        assert norm.normal_form == "x^2-1"
        assert scale == -1  # 1-x^2 orientation flips the spectrum sign

    def test_eigenvalues_scale(self):
        op = build_operator(FamilySpec.jacobi(-1, -2, 0))
        normalized, _, scale = normalize_operator(op)
        original = op.spectrum(6).values
        transformed = normalized.spectrum(6).values
        assert transformed == tuple(scale * mu for mu in original)

    def test_shifted_scaled_quadratic(self):
        # a = 2x^2 - 8 with a shifted b; eigenfunctions transport through x = s*u + t
        op_coeffs = [Poly(), P(1, 1), P(-8, 0, 2)]
        from specpoly import DiffOperator

        op = DiffOperator(op_coeffs)
        normalized, norm, scale = normalize_operator(op)
        assert norm.s == 2 and norm.t == 0 and norm.c == 8
        assert normalized.coeffs[2] == P(-1, 0, 1)
        n = 4
        res_u = monic_eigenfunction(normalized, n)
        res_x = monic_eigenfunction(op, n)
        assert res_u.eigenvalue == scale * res_x.eigenvalue
        # the monic eigenfunction in u is the x one substituted and rescaled
        transported = res_x.monic.affine_sub(norm.s, norm.t)
        assert transported * (1 / transported.leading()) == res_u.monic

    def test_requires_second_order(self):
        from specpoly import DiffOperator

        with pytest.raises(ValueError):
            normalize_operator(DiffOperator([Poly(), Poly.one()]))
