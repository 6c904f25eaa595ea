"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance and runtime budget is pinned here.

Criterion 3 is known to fail for the six sweep points with n - k even: the
eigenspace there is genuinely 1-dimensional (defective collision), verified
independently by hand, by both in-package elimination routines, and by
sympy.  The criterion is kept exactly as stated rather than weakened; see
the parity-law test in test_eigen.py for the behavior that actually holds.
"""

import random
import time
from fractions import Fraction

from specpoly import (
    EigenStatus,
    FamilySpec,
    build_operator,
    classical_presets,
    derive_weight,
    eigenspace_basis,
    eigentable,
    gram_matrix,
    inner_product,
    monic_eigenfunction,
    pearson_check,
)

from oracles import log_slope_error, nullspace_oracle, random_operator, random_poly, spans_equal


class _Criterion:
    def __init__(self, number: int, description: str, budget_s: float):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(
            f"ACCEPTANCE {self.number:>2}: {self.description:<58} "
            f"{status} ({elapsed:.3f}s / budget {self.budget_s:g}s)"
        )
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget"
            )
        return False


def test_criterion_1_chaudhry_qadir_spectrum():
    with _Criterion(1, "chaudhry-qadir eigenvalues are exactly -n^2 on P_10", 1.0):
        op = build_operator(FamilySpec.chaudhry_qadir())
        values = op.spectrum(10).values
        assert values == tuple(Fraction(-n * n) for n in range(11))


def test_criterion_2_jacobi_eigenvalue_formula():
    with _Criterion(2, "jacobi spectrum equals -n(n-1)+n*alpha, 20 random (a,b)", 1.0):
        rng = random.Random(2024)
        for _ in range(20):
            alpha = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            beta = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            op = build_operator(FamilySpec.jacobi(-1, alpha, beta))
            values = op.spectrum(10).values
            for n in range(11):
                assert values[n] == -n * (n - 1) + n * alpha


def test_criterion_3_degeneracy_sweep():
    with _Criterion(3, "eigenspace dim == 2 for alpha=-(n+k-1), 2<=n<=6, 1<=k<n", 2.0):
        for n in range(2, 7):
            for k in range(1, n):
                alpha = Fraction(-(n + k - 1))
                op = build_operator(FamilySpec.jacobi(1, alpha, 0))
                mu = n * (n - 1) + alpha * n
                back_sub = monic_eigenfunction(op, n)
                assert back_sub.status is EigenStatus.DEGENERATE, (n, k)
                assert back_sub.eigenspace_dim == 2, (n, k)
                assert len(eigenspace_basis(op, mu, n)) == 2, (n, k)
                assert len(nullspace_oracle(op.matrix(n), mu)) == 2, (n, k)


def test_criterion_4_oracle_equivalence():
    with _Criterion(4, "eigenspace_basis spans match nullspace_oracle, 50 ops", 10.0):
        rng = random.Random(404)
        for _ in range(50):
            op = random_operator(rng, 3)
            n = rng.randint(0, 8)
            matrix = op.matrix(n)
            for mu in set(op.spectrum(n).values):
                fast = [
                    list(b.coeffs) + [Fraction(0)] * (n + 1 - len(b.coeffs))
                    for b in eigenspace_basis(op, mu, n)
                ]
                oracle = nullspace_oracle(matrix, mu)
                assert spans_equal(fast, oracle)


def test_criterion_5_legendre_exact_orthogonality():
    with _Criterion(5, "legendre gram 0..8: 36 off-diagonal exact zeros", 1.0):
        report = gram_matrix(FamilySpec.jacobi(-1, -2, 0), 8)
        off_diag = [e for e in report.entries if e.m != e.n]
        assert len(off_diag) == 36
        for e in off_diag:
            assert e.method == "exact"
            assert e.value == 0


def test_criterion_6_example_two_exact_orthogonality():
    with _Criterion(6, "chaudhry-qadir gram 1..8: vanish at 1, exact zeros", 1.0):
        spec = FamilySpec.chaudhry_qadir()
        table = eigentable(build_operator(spec), 8)
        for r in table[1:]:
            assert r.monic is not None and r.monic(1) == 0
        report = gram_matrix(spec, 8)
        assert report.degrees == tuple(range(1, 9))
        for e in report.entries:
            assert e.method == "exact"
            if e.m != e.n:
                assert e.value == 0


def test_criterion_7_romanovski_finite_orthogonality():
    with _Criterion(7, "romanovski a=-13/2 b=1: m+n<=7 orthogonal, >=8 flagged", 30.0):
        report = gram_matrix(FamilySpec.romanovski(Fraction(-13, 2), 1), 5, 1e-10)
        for e in report.entries:
            if e.m + e.n >= 8:
                assert not e.integrable, (e.m, e.n)
            elif e.m != e.n:
                assert e.integrable
                assert e.relative is not None and e.relative < 1e-8, (e.m, e.n)


def test_criterion_8_pearson_identity():
    with _Criterion(8, "pearson (pa)'=pb: presets + 20 random instances", 2.0):
        cases = list(classical_presets().values())
        rng = random.Random(808)
        while len(cases) < len(classical_presets()) + 20:
            alpha = Fraction(rng.randint(-12, 12), rng.randint(1, 5))
            beta = Fraction(rng.randint(-12, 12), rng.randint(1, 5))
            kind = rng.choice(["jacobi", "romanovski", "laguerre", "hermite"])
            if kind == "jacobi":
                cases.append(FamilySpec.jacobi(rng.choice([-1, 1]), alpha, beta))
            elif kind == "romanovski":
                cases.append(FamilySpec.romanovski(alpha, beta))
            elif kind == "laguerre":
                if alpha == 0:
                    continue
                cases.append(FamilySpec.laguerre(alpha, beta))
            else:
                cases.append(FamilySpec.hermite(alpha, beta))
        for spec in cases:
            op = build_operator(spec)
            a, b = op.coeffs[2], op.coeffs[1]
            weight = derive_weight(a, b)
            assert pearson_check(weight, a, b).ok, spec
            assert log_slope_error(weight, a, b) < 1e-6, spec


def test_criterion_9_self_adjointness():
    with _Criterion(9, "jacobi a=-2 b=0: |<Lf,g> - <f,Lg>| below 1e-8 scale", 10.0):
        spec = FamilySpec.jacobi(-1, -2, 0)
        op = build_operator(spec)
        weight = derive_weight(op.coeffs[2], op.coeffs[1])
        rng = random.Random(909)
        for _ in range(20):
            f = random_poly(rng, 5)
            g = random_poly(rng, 5)
            lf_g, _, _ = inner_product(weight, op.apply(f), g)
            f_lg, _, _ = inner_product(weight, f, op.apply(g))
            assert abs(float(lf_g) - float(f_lg)) < 1e-8 * (1 + abs(float(lf_g)))


def test_criterion_10_eigenfunction_residuals():
    with _Criterion(10, "apply(L,v) == mu*v exactly for all presets to deg 10", 1.0):
        for name, spec in classical_presets().items():
            op = build_operator(spec)
            for result in eigentable(op, 10):
                if result.status is EigenStatus.UNIQUE_MONIC:
                    assert result.monic is not None
                    lhs = op.apply(result.monic)
                    assert lhs == result.eigenvalue * result.monic, (
                        name,
                        result.degree,
                    )
