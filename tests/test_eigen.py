import functools
import math
import random
import time
from fractions import Fraction

import pytest

from specpoly import (
    DiffOperator,
    EigenResult,
    EigenStatus,
    FamilySpec,
    Poly,
    build_operator,
    classical_presets,
    eigenspace_basis,
    eigentable,
    monic_eigenfunction,
)
from specpoly import eigen as eigen_module
from specpoly.eigen import rref_kernel
from specpoly.operator import OperatorMatrix

import oracles
from oracles import (
    collision_status,
    monic_classical,
    nullspace_oracle,
    random_operator,
    random_rational,
    span_contains,
    spans_equal,
)
from test_payload_digests import collision_operators  # orders 1-4, forced collisions


def P(*coeffs):
    return Poly(coeffs)


HERMITE = DiffOperator([Poly(), P(0, -2), Poly.one()])
LEGENDRE = DiffOperator([Poly(), P(0, -2), P(1, 0, -1)])
DEGENERATE = DiffOperator([Poly(), P(0, -2), P(1, 0, 1)])  # (x^2+1)D^2 - 2xD
CHAUDHRY_QADIR = build_operator(FamilySpec.chaudhry_qadir())


class TestMonicEigenfunction:
    def test_hermite_degree_two(self):
        res = monic_eigenfunction(HERMITE, 2)
        assert res.status is EigenStatus.UNIQUE_MONIC
        assert res.monic == P("-1/2", 0, 1)
        assert res.eigenvalue == -4
        assert res.eigenspace_dim == 1

    def test_legendre_degree_two(self):
        res = monic_eigenfunction(LEGENDRE, 2)
        assert res.status is EigenStatus.UNIQUE_MONIC
        assert res.monic == P("-1/3", 0, 1)
        assert res.eigenvalue == -6

    def test_degenerate_two_dimensional(self):
        res = monic_eigenfunction(DEGENERATE, 2)
        assert res.status is EigenStatus.DEGENERATE
        assert res.eigenvalue == -2
        assert res.eigenspace_dim == 2
        assert res.monic == P(-1, 0, 1)  # canonical: free coordinates zeroed

    def test_monic_leading_coefficient_is_one(self):
        for op in (HERMITE, LEGENDRE, CHAUDHRY_QADIR):
            for n in range(6):
                res = monic_eigenfunction(op, n)
                assert res.monic is not None
                assert res.monic.leading() == 1
                assert res.monic.degree == n

    def test_eigen_identity_exact(self):
        for op in (HERMITE, LEGENDRE, CHAUDHRY_QADIR, DEGENERATE):
            for n in range(7):
                res = monic_eigenfunction(op, n)
                for v in res.basis:
                    assert op.apply(v) == res.eigenvalue * v

    def test_json_shape(self):
        data = monic_eigenfunction(LEGENDRE, 2).to_json()
        assert data["eigenvalue_of_L"] == "-6"
        assert data["lambda_ode_convention"] == "6"
        assert data["monic"] == ["-1/3", "0", "1"]
        assert data["status"] == "UniqueMonic"


class TestResultFields:
    # a result keeps the basis that proves its status: monic, status and dimension are
    # read off it, so no record can hold a status its basis contradicts
    def test_three_fields_and_read_only_properties(self):
        assert EigenResult._fields == ("degree", "eigenvalue", "basis")
        assert not hasattr(eigen_module, "_result")
        res = monic_eigenfunction(DEGENERATE, 2)
        for name in ("status", "monic", "eigenspace_dim"):
            assert isinstance(vars(EigenResult)[name], property), name
            with pytest.raises(AttributeError):
                setattr(res, name, getattr(res, name))

    def test_status_follows_the_basis(self):
        one, x, x2 = Poly.one(), P(0, 1), P(0, 0, 1)
        for basis, status, monic in [
            ((x2,), EigenStatus.UNIQUE_MONIC, x2),
            ((one, x2), EigenStatus.DEGENERATE, x2),
            ((one,), EigenStatus.NO_DEGREE_N, None),
            ((one, x), EigenStatus.NO_DEGREE_N, None),
        ]:
            res = EigenResult(2, Fraction(-2), basis)
            assert (res.status, res.monic, res.eigenspace_dim) == (status, monic, len(basis))


class TestEigenspaceBasis:
    def test_degenerate_span(self):
        basis = eigenspace_basis(DEGENERATE, -2, 2)
        assert len(basis) == 2
        assert spans_equal(
            [b.coeffs + (Fraction(0),) * (3 - len(b.coeffs)) for b in basis],
            [(0, 1, 0), (-1, 0, 1)],
        )

    def test_second_derivative_kills_p1(self):
        basis = eigenspace_basis(DiffOperator([Poly(), Poly(), Poly.one()]), 0, 1)
        assert len(basis) == 2
        assert {tuple(b.coeffs) for b in basis} == {(Fraction(1),), (Fraction(0), Fraction(1))}

    def test_legendre_eigenspace_is_one_dimensional(self):
        basis = eigenspace_basis(LEGENDRE, -6, 4)
        assert len(basis) == 1
        assert basis[0] * (1 / basis[0].leading()) == P("-1/3", 0, 1)

    def test_non_eigenvalue_gives_empty(self):
        assert eigenspace_basis(LEGENDRE, 17, 4) == []


class TestNullspaceOracle:
    def test_identity_matrix_mu_one(self):
        op = DiffOperator([Poly.one()])
        basis = nullspace_oracle(op.matrix(3), 1)
        assert len(basis) == 4

    def test_identity_matrix_mu_zero(self):
        op = DiffOperator([Poly.one()])
        assert nullspace_oracle(op.matrix(3), 0) == []

    def test_agrees_with_eigenspace_basis_on_random_operators(self):
        rng = random.Random(41)
        for _ in range(30):
            op = random_operator(rng, 3)
            n = rng.randint(0, 8)
            matrix = op.matrix(n)
            for mu in set(op.spectrum(n).values):
                oracle = nullspace_oracle(matrix, mu)
                fast = [
                    list(b.coeffs) + [Fraction(0)] * (n + 1 - len(b.coeffs))
                    for b in eigenspace_basis(op, mu, n)
                ]
                assert spans_equal(oracle, fast)
                assert len(oracle) == len(fast)


class TestNegativeDegree:
    @pytest.mark.parametrize("call, message", [
        (lambda op: eigentable(op, -1), "n must be >= 0"),
        (lambda op: monic_eigenfunction(op, -1), "n must be >= 0"),
        (lambda op: eigenspace_basis(op, 0, -1), "n must be >= 0"),
    ], ids=["eigentable", "monic_eigenfunction", "eigenspace_basis"])
    def test_is_refused(self, call, message):
        for op in (LEGENDRE, DEGENERATE, CHAUDHRY_QADIR):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call(op)


class TestEigentable:
    def test_chaudhry_qadir_table(self):
        results = eigentable(CHAUDHRY_QADIR, 3)
        assert [r.eigenvalue for r in results] == [0, -1, -4, -9]
        assert all(r.status is EigenStatus.UNIQUE_MONIC for r in results)

    def test_chaudhry_qadir_eigenfunctions_vanish_at_one(self):
        for r in eigentable(CHAUDHRY_QADIR, 8)[1:]:
            assert r.monic is not None
            assert r.monic(1) == 0

    def test_derivative_operator_statuses(self):
        op = DiffOperator([Poly(), Poly.one()])
        results = eigentable(op, 4)
        assert results[0].status is EigenStatus.UNIQUE_MONIC
        assert results[0].monic == Poly.one()
        for r in results[1:]:
            assert r.status is EigenStatus.NO_DEGREE_N
            assert r.monic is None
            assert r.eigenspace_dim == 1  # only the constants survive

    def test_romanovski_non_integer_alpha_all_unique(self):
        op = build_operator(FamilySpec.romanovski(Fraction(-13, 2), 1))
        results = eigentable(op, 5)
        assert all(r.status is EigenStatus.UNIQUE_MONIC for r in results)


class TestDegeneracySweep:
    # For alpha = -(n+k-1) the eigenvalues mu_n and mu_k collide.  With
    # beta = 0 the operator preserves parity, and the collision row is
    # obstructed exactly when n - k is even: the eigenspace is then only
    # 1-dimensional (the matrix is defective).  For n - k odd it is
    # genuinely 2-dimensional.  Cross-checked against sympy nullspaces.
    @pytest.mark.parametrize("n", range(2, 7))
    def test_eigenspace_dimension_follows_parity(self, n):
        for k in range(1, n):
            alpha = Fraction(-(n + k - 1))
            op = build_operator(FamilySpec.jacobi(1, alpha, 0))
            mu = n * (n - 1) + alpha * n
            expected = 2 if (n - k) % 2 == 1 else 1
            basis = eigenspace_basis(op, mu, n)
            assert len(basis) == expected, (n, k)
            oracle = nullspace_oracle(op.matrix(n), mu)
            assert len(oracle) == expected
            status = monic_eigenfunction(op, n).status
            if expected == 2:
                assert status is EigenStatus.DEGENERATE
            else:
                assert status is EigenStatus.NO_DEGREE_N

    def test_k_zero_can_be_defective(self):
        # alpha = -(n - 1) with n = 2 leaves only a 1-dimensional kernel:
        # no degree-2 eigenfunction exists even though mu_2 = mu_0
        op = build_operator(FamilySpec.jacobi(1, -1, 0))
        res = monic_eigenfunction(op, 2)
        assert res.status is EigenStatus.NO_DEGREE_N
        assert res.eigenspace_dim == 1

    def test_minus_eps_reported_without_assertion(self):
        # same eigenvalue collisions arise for eps = -1; record the computed
        # dimension and its agreement with the oracle, whatever it is
        for n in range(2, 5):
            for k in range(1, n):
                alpha = Fraction(-(n + k - 1))
                op = build_operator(FamilySpec.jacobi(-1, alpha, 0))
                mu = -n * (n - 1) + alpha * n
                basis = eigenspace_basis(op, mu, n)
                oracle = nullspace_oracle(op.matrix(n), mu)
                assert len(basis) == len(oracle) >= 1


def _jacobi_shape_grid():
    # a (x - r1)(x - r2) with end exponents E1, E2 multiples of 1/2 in [-12, 4] whose sum
    # is an integer (so K is); b is fixed by b(r_i) = (E_i + 1) a'(r_i)
    rng = random.Random(23)
    halves = [Fraction(h, 2) for h in range(-24, 9)]
    for e1 in halves:
        for e2 in halves:
            if (e1 + e2).denominator != 1:
                continue
            r1 = Fraction(rng.randint(-4, 3), rng.randint(1, 3))
            r2 = r1 + Fraction(rng.randint(1, 6), rng.randint(1, 2))
            a2 = rng.choice([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3)])
            b_r1, b_r2 = (e1 + 1) * a2 * (r1 - r2), (e2 + 1) * a2 * (r2 - r1)
            b1 = (b_r2 - b_r1) / (r2 - r1)
            yield (a2 * r1 * r2, -a2 * (r1 + r2), a2), (b_r1 - b1 * r1, b1)


def _romanovski_grid():
    # a2 (x^2 + 1) with b0 in {0, 1, -3/2, 2} (times a2) and E = b1/(2 a2) - 1 a multiple
    # of 1/2 in [-15, 1]
    rng = random.Random(24)
    for b0 in (Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(2)):
        for h in range(-30, 3):
            a2 = rng.choice([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3)])
            yield (a2, 0, a2), (b0 * a2, 2 * a2 * (Fraction(h, 2) + 1))


def _double_root_grid():
    # a2 (x - r)^2 with K = 1 - b1/a2 in [-2, 31] and b(r) = beta a2, beta in {0, 1, -2/3}
    rng = random.Random(25)
    for beta in (Fraction(0), Fraction(1), Fraction(-2, 3)):
        for K in range(-2, 32):
            r = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            a2 = rng.choice([Fraction(1), Fraction(-1), Fraction(2)])
            b1 = (1 - K) * a2
            yield (a2 * r * r, -2 * a2 * r, a2), (beta * a2 - b1 * r, b1)


@functools.lru_cache(maxsize=None)
def _law_tables():
    """(a, b, ((status, dim) per degree 0..24)) for every operator a D^2 + b D of the three
    grids, and the CPU seconds their eigentables took (time.process_time: the process's own
    work, which a busy host's other processes do not stretch)."""
    start, tables = time.process_time(), []
    for grid in (_jacobi_shape_grid, _romanovski_grid, _double_root_grid):
        for a, b in grid():
            table = eigentable(DiffOperator([Poly(), Poly(b), Poly(a)]), 24)
            tables.append((a, b, tuple((r.status.value, r.eigenspace_dim) for r in table)))
    return tables, time.process_time() - start


def _law_check(law):
    """(collisions, Degenerate ones, mismatches) of law(a, b, n) against the tables; a
    collision has dimension 2 when Degenerate and 1 when not."""
    collisions, degenerate, mismatches = 0, 0, []
    for a, b, table in _law_tables()[0]:
        for n, got in enumerate(table):
            status = law(a, b, n)
            if status != "UniqueMonic":
                collisions += 1
                degenerate += status == "Degenerate"
            if got != (status, 2 if status == "Degenerate" else 1):
                mismatches.append((a, b, n, got, status))
    return collisions, degenerate, mismatches


_FLIPPED = {"Degenerate": "NoDegreeNEigenfunction", "NoDegreeNEigenfunction": "Degenerate"}


class TestCollisionLaw:
    # the second-order collision law (tests/oracles.py), which reads each status off (a, b)
    # alone, is an independent check of the one status decision, EigenResult's
    def test_law_decides_every_collision(self):
        built = _law_tables()[1]  # the eigentables, timed once: before the law check's clock
        start = time.process_time()
        collisions, degenerate, mismatches = _law_check(collision_status)
        seconds = time.process_time() - start + built
        assert mismatches == []
        assert collisions >= 2000 and 0 < degenerate < collisions
        assert seconds < 2.0

    def test_law_explains_the_criterion_3_sweep(self):
        # jacobi(1, -(n+k-1), 0) is the Romanovski shape with b0 = 0 and E = -(n+k+1)/2,
        # an integer in [-n, -k-1] exactly when n - k is odd
        statuses = []
        for n in range(2, 7):
            for k in range(1, n):
                op = build_operator(FamilySpec.jacobi(1, -(n + k - 1), 0))
                law = collision_status(op.coeffs[2].coeffs, op.coeffs[1].coeffs, n)
                assert law == ("Degenerate" if (n - k) % 2 else "NoDegreeNEigenfunction")
                assert monic_eigenfunction(op, n).status.value == law, (n, k)
                statuses.append(law)
        assert statuses.count("NoDegreeNEigenfunction") == 6
        assert statuses.count("Degenerate") == 9

    @pytest.mark.parametrize("fault", ["flipped status", "exponent off by 1", "partner off by 1"])
    def test_planted_fault_is_seen(self, fault, monkeypatch):
        law = collision_status
        if fault == "flipped status":
            law = lambda a, b, n: _FLIPPED.get(s := collision_status(a, b, n), s)  # noqa: E731
        elif fault == "exponent off by 1":
            exponents = oracles.end_exponents
            shifted = lambda a, b: [e + 1 for e in exponents(a, b)]  # noqa: E731
            monkeypatch.setattr(oracles, "end_exponents", shifted)
        else:
            partner = oracles.collision_partner
            monkeypatch.setattr(oracles, "collision_partner", lambda a, b, n: partner(a, b, n) + 1)
        assert _law_check(law)[2]


class TestAgainstClassicalRecurrences:
    @pytest.mark.parametrize(
        "name, op",
        [
            ("hermite", HERMITE),
            ("legendre", LEGENDRE),
        ],
    )
    def test_monic_tables_match(self, name, op):
        expected = monic_classical(name, 8)
        for n, want in enumerate(expected):
            assert monic_eigenfunction(op, n).monic == want


def _padded(basis, n):
    return [list(b.coeffs) + [Fraction(0)] * (n + 1 - len(b.coeffs)) for b in basis]


def _collision_operators():
    # mu_j = a2 j(j-1) + alpha j, so alpha = -a2 n makes mu_j = mu_k for
    # j + k = n + 1: Jacobi (a2 = -1) at alpha = n, Romanovski (a2 = 1) at -n
    for n in range(2, 13):
        for beta in (Fraction(0), Fraction(1, 3)):
            yield build_operator(FamilySpec.jacobi(-1, n, beta))
            yield build_operator(FamilySpec.romanovski(-n, beta))


class TestSharedSolver:
    # eigentable solves every degree on one matrix for n_max; it must agree
    # with the per-degree solve and with the Bareiss oracle's eigenspace
    def test_table_matches_per_degree_and_oracle(self):
        rng = random.Random(47)
        collisions = list(_collision_operators())
        assert all(not op.spectrum(12).distinct for op in collisions)
        cases = [(op, 12) for op in [random_operator(rng, 3) for _ in range(50)] + collisions]
        # alpha = -40: mu_n = mu_(41-n), so degrees 21..40 collide far below
        # the diagonal; beta = 0 keeps parity (degenerate, zero residuals),
        # beta = 1/3 breaks it (defective)
        for beta in (Fraction(0), Fraction(1, 3)):
            cases.append((build_operator(FamilySpec.jacobi(1, -40, beta)), 40))
        for op, n_max in cases:
            table = eigentable(op, n_max)
            for k, res in enumerate(table):
                assert res == monic_eigenfunction(op, k)
                oracle = nullspace_oracle(op.matrix(k), res.eigenvalue)
                assert spans_equal(_padded(res.basis, k), oracle), (op, k)
                assert res.eigenspace_dim == len(oracle)

    @pytest.mark.parametrize("name", ["legendre", "hermite", "laguerre"])
    def test_degree_sixty_matches_recurrence(self, name):
        op = build_operator(classical_presets()[name])
        expected = monic_classical(name, 60)
        assert [r.monic for r in eigentable(op, 60)] == expected


class TestSingleDegreeCost:
    # a single-degree query back-substitutes only the degrees up to n whose diagonal is
    # its eigenvalue, and eigentable each degree once: neither is a full table solve
    def test_back_substitutions_on_the_collision_corpus(self, monkeypatch):
        solved, real = [], eigen_module._back_substitute
        monkeypatch.setattr(eigen_module, "_back_substitute",
                            lambda rows, shift, z: solved.append(z) or real(rows, shift, z))
        for op, n_max in collision_operators():
            diagonal = op.spectrum(n_max).values
            for n in range(n_max + 1):
                own = [z for z in range(n + 1) if diagonal[z] == diagonal[n]]
                solved.clear()
                monic_eigenfunction(op, n)
                assert solved == own, (op, n)
                for mu in (diagonal[n], max(diagonal) + 1):  # an eigenvalue, and none
                    solved.clear()
                    eigenspace_basis(op, mu, n)
                    assert solved == [z for z in own if mu == diagonal[n]], (op, mu, n)
            solved.clear()
            eigentable(op, n_max)
            assert solved == list(range(n_max + 1)), op


def _triple_collision(rng, roots, lower):
    """Order-3 operator with mu_j = (j-p)(j-q)(j-r) in falling factorials
    j(j-1)(j-2) - (s1-3) j(j-1) + (1-s1+s2) j - s3, so mu vanishes at three
    degrees; each a_k gets random lower-order terms when ``lower``."""
    p, q, r = roots
    s1, s2, s3 = p + q + r, p * q + p * r + q * r, p * q * r
    diagonal = [-s3, 1 - s1 + s2, 3 - s1, 1]
    return DiffOperator([
        Poly([random_rational(rng) if lower else 0 for _ in range(k)] + [diagonal[k]])
        for k in range(4)
    ])


class TestCanonicalBasis:
    # the banded kernel must return rref_kernel's standard basis of the whole
    # block (1 at its own free column, 0 at the others), not just its span
    def test_basis_equals_dense_rref_kernel(self):
        rng = random.Random(53)
        ops = [random_operator(rng, 3) for _ in range(40)]
        ops.append(DiffOperator([Poly(), Poly(), Poly(), Poly((0, 0, 0, 1))]))
        for roots in [(0, 1, 2), (1, 4, 6), (2, 5, 9), (0, 3, 7)]:
            ops.append(_triple_collision(rng, roots, lower=False))
            ops.extend(_triple_collision(rng, roots, lower=True) for _ in range(3))
            assert len(ops[-1].spectrum(9).multiplicity[0]) == 3
        n = 9
        for op in ops:
            diagonal = op.spectrum(n).values
            off = [max(diagonal) + 1, min(diagonal) - Fraction(1, 3)]
            for mu in sorted(set(diagonal)) + off:
                dense = rref_kernel(op.matrix(n).shifted_rows(mu))
                assert _padded(eigenspace_basis(op, mu, n), n) == dense, (op, mu)
            assert eigenspace_basis(op, off[0], n) == []
            for k, res in enumerate(eigentable(op, n)):
                dense = rref_kernel(op.matrix(k).shifted_rows(res.eigenvalue))
                assert _padded(res.basis, k) == dense, (op, k)


class TestGeneralOrder:
    def test_fourth_order_operator(self):
        # L = x^4 D^4 + D^2 + x D: mu_j = j(j-1)(j-2)(j-3) + j, all distinct
        op = DiffOperator([Poly(), P(0, 1), Poly.one(), Poly(), Poly((0, 0, 0, 0, 1))])
        spec = op.spectrum(8)
        for j in range(9):
            assert spec.values[j] == j * (j - 1) * (j - 2) * (j - 3) + j
        assert spec.distinct
        for res in eigentable(op, 8):
            assert res.status is EigenStatus.UNIQUE_MONIC
            assert op.apply(res.monic) == res.eigenvalue * res.monic

    def test_third_order_with_degenerate_spectrum(self):
        # L = x^3 D^3: mu_j = j(j-1)(j-2), so mu_0 = mu_1 = mu_2 = 0
        op = DiffOperator([Poly(), Poly(), Poly(), Poly((0, 0, 0, 1))])
        results = eigentable(op, 4)
        # 1, x, x^2 are all genuinely killed: eigenspace of 0 is 3-dimensional
        for n in range(3):
            res = results[n]
            assert res.status is (
                EigenStatus.UNIQUE_MONIC if n == 0 else EigenStatus.DEGENERATE
            )
            assert res.eigenspace_dim == n + 1
        assert results[3].status is EigenStatus.UNIQUE_MONIC
        assert results[4].status is EigenStatus.UNIQUE_MONIC


class TestKernelHelpers:
    def test_rref_kernel_full_space(self):
        basis = rref_kernel([[Fraction(0)] * 3 for _ in range(3)])
        assert len(basis) == 3

    def test_rref_kernel_trivial(self):
        rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert rref_kernel(rows) == []

    def test_span_contains(self):
        basis = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert span_contains(basis, [Fraction(5), Fraction(-3)])
        assert not span_contains([[Fraction(1), Fraction(0)]], [Fraction(0), Fraction(1)])
        assert span_contains([], [Fraction(0)])


def _big_rational(rng):
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


def _large_denominator_operators(rng):
    """Operators whose coefficients have large, mostly coprime denominators:
    random ones of order 1..3, triple collisions (x^3 D^3 plus lower terms,
    mu_j = c (j-p)(j-q)(j-r)), and Jacobi and Romanovski collisions scaled by
    a large-denominator c (beta = 0 degenerate, beta != 0 defective)."""
    ops = [
        DiffOperator([Poly([_big_rational(rng) for _ in range(k + 1)]) for k in range(order + 1)])
        for order in (1, 2, 3) for _ in range(6)
    ]
    for p, q, r in [(0, 1, 2), (1, 4, 6), (2, 5, 9)]:
        s1, s2, s3 = p + q + r, p * q + p * r + q * r, p * q * r
        c = _big_rational(rng) or Fraction(1)
        for lower in (False, True):
            ops.append(DiffOperator([
                Poly([_big_rational(rng) if lower else 0 for _ in range(k)] + [c * d])
                for k, d in enumerate([-s3, 1 - s1 + s2, 3 - s1, 1])
            ]))
    for n in (5, 8):
        for beta in (Fraction(0), _big_rational(rng)):
            for spec in (FamilySpec.jacobi(-1, n, beta), FamilySpec.romanovski(-n, beta)):
                c = _big_rational(rng) or Fraction(1)
                ops.append(DiffOperator([c * a for a in build_operator(spec).coeffs]))
    return ops


class TestLargeDenominators:
    # The kernel runs on the operator matrix cleared to integers over one
    # denominator D, and keeps each vector as integer numerators over one
    # denominator that every pivot rescales; denominators up to 10^6 make
    # those rescales and their signs matter on almost every row.
    def test_table_equals_bareiss_oracle(self):
        ops = _large_denominator_operators(random.Random(61))
        statuses = set()
        for op in ops:
            for k, res in enumerate(eigentable(op, 9)):
                # the oracle's back-solve gives the same standard basis
                assert _padded(res.basis, k) == nullspace_oracle(op.matrix(k), res.eigenvalue), (op, k)
                statuses.add(res.status)
        assert statuses == set(EigenStatus)

    def test_eigenspace_basis_at_foreign_denominators(self):
        # every diagonal entry's denominator divides D, so mu = p/q with q
        # coprime to D is no eigenvalue and its basis is empty; the diagonal
        # entries themselves give the nonempty bases
        rng = random.Random(67)
        n = 7
        for op in _large_denominator_operators(rng):
            matrix = op.matrix(n)
            d = matrix.denominator
            diagonal = set(op.spectrum(n).values)
            for q in (999_983, 1_000_003, 7):
                if d % q == 0:
                    continue
                mu = Fraction(rng.randint(-10**6, 10**6) * q + 1, q)
                assert mu not in diagonal
                assert eigenspace_basis(op, mu, n) == [] == nullspace_oracle(matrix, mu)
            for mu in diagonal:
                assert _padded(eigenspace_basis(op, mu, n), n) == nullspace_oracle(matrix, mu)


def _forced_collision(rng, roots, shift_one, parity=False):
    """Operator of order len(roots) with mu_j = c prod_r (j - r), so mu vanishes
    at every root, and random large-denominator lower terms.  Without
    ``shift_one`` no a_k has an x^(k-1) term, so M[i][i+1] = 0; with ``parity``
    a_k has only x^(k-2m) terms, so M[i][i+t] = 0 for every odd t."""
    order = len(roots)
    c = _big_rational(rng) or Fraction(1)
    mu = [c * math.prod(j - r for r in roots) for j in range(order + 1)]
    # mu_j = sum_k a_{k,k} j(j-1)...(j-k+1), so a_{k,k} = Delta^k mu(0) / k!
    top = [
        sum((-1) ** (k - i) * math.comb(k, i) * mu[i] for i in range(k + 1)) / math.factorial(k)
        for k in range(order + 1)
    ]
    return DiffOperator([
        Poly([_big_rational(rng) if (shift_one or i != k - 1) and not (parity and (k - i) % 2) else 0
              for i in range(k)] + [top[k]])
        for k in range(order + 1)
    ])


class TestIntegerLift:
    # A lift sum_z t_z v^(z) puts the t_z / q_z over one denominator and sums
    # the integer numerators of the v^(z).  Order-3 collisions give condition
    # matrices of two rows; order-4 ones without x^(k-1) terms and with
    # adjacent roots q, q + 1 (whose residual M[q][q+1] is then 0) give
    # kernel vectors that combine v^(z) of different denominators q_z.
    def test_multi_row_conditions_match_oracle(self, monkeypatch):
        seen = {3: set(), 4: set()}  # (condition rows, most nonzero t_z in a kernel vector)
        order = None

        def spy(rows):
            kernel = rref_kernel(rows)
            seen[order].add((len(rows), max((sum(1 for t in v if t) for v in kernel), default=0)))
            return kernel

        monkeypatch.setattr(eigen_module, "rref_kernel", spy)
        rng = random.Random(73)
        cases = [((0, 2, 5), True), ((1, 3, 7), True), ((0, 1, 2), True),
                 ((0, 2, 3, 6), False), ((1, 4, 5, 8), False), ((0, 3, 4, 9), False)]
        for roots, shift_one in cases:
            order = len(roots)
            for _ in range(3):
                op = _forced_collision(rng, roots, shift_one)
                assert len(op.spectrum(9).multiplicity[0]) == order
                for k, res in enumerate(eigentable(op, 9)):
                    want = nullspace_oracle(op.matrix(k), res.eigenvalue)
                    assert _padded(res.basis, k) == want, (op, k)
                    assert eigenspace_basis(op, 0, k) == [
                        Poly(v) for v in nullspace_oracle(op.matrix(k), 0)]
        assert any(rows >= 2 for rows, _ in seen[3])
        assert any(rows >= 2 and mixed >= 2 for rows, mixed in seen[4])


class TestWideBands:
    # Orders 5 and 6 at n_max = 30: a row sum chains up to five per-row
    # denominator factors f_(i+1) ... f_(i+t-1), and large denominators leave
    # almost no f equal to 1.  Random lower terms make the forced collisions
    # defective; parity-symmetric ones (M[i][i+t] = 0 for odd t) leave a
    # collision of opposite parity degenerate with zero residuals.
    def test_tables_equal_bareiss_oracle(self, monkeypatch):
        conditions = []

        def spy(rows):
            conditions.append(len(rows))
            return rref_kernel(rows)

        monkeypatch.setattr(eigen_module, "rref_kernel", spy)
        rng = random.Random(83)
        ops = [
            DiffOperator([Poly([_big_rational(rng) for _ in range(k + 1)]) for k in range(order + 1)])
            for order in (5, 6)
        ]
        for roots in [(1, 6, 11, 19, 26), (0, 4, 9, 15, 22, 27)]:
            ops.append(_forced_collision(rng, roots, shift_one=True))
        for roots in [(3, 28, 31, 36, 40), (2, 7, 28, 31, 36, 40)]:
            ops.append(_forced_collision(rng, roots, shift_one=False, parity=True))
        statuses = set()
        for op in ops:
            for k, res in enumerate(eigentable(op, 30)):
                assert _padded(res.basis, k) == nullspace_oracle(op.matrix(k), res.eigenvalue), (op, k)
                statuses.add(res.status)
        assert statuses == set(EigenStatus)
        assert max(conditions) >= 4

    def test_opposite_parity_collision_needs_no_conditions(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("rref_kernel called on zero residuals")

        monkeypatch.setattr(eigen_module, "rref_kernel", refuse)
        op = _forced_collision(random.Random(89), (3, 28, 31, 36, 40), shift_one=False, parity=True)
        table = eigentable(op, 30)
        assert [k for k, res in enumerate(table) if res.status is not EigenStatus.UNIQUE_MONIC] == [28]
        assert table[28].status is EigenStatus.DEGENERATE and table[28].eigenspace_dim == 2
        assert _padded(table[28].basis, 28) == nullspace_oracle(op.matrix(28), 0)


class TestOneBackSubstitution:
    # eigentable back-substitutes each degree once on the shared band; a
    # collision degree reuses the lower v^(z) of its eigenvalue
    def test_one_pass_per_degree(self, monkeypatch):
        calls = []

        def spy(rows, shift, z):
            calls.append(z)
            return back_substitute(rows, shift, z)

        back_substitute = eigen_module._back_substitute
        monkeypatch.setattr(eigen_module, "_back_substitute", spy)
        cases = [
            (build_operator(FamilySpec.jacobi(-1, 20, Fraction(9, 2))), 20),  # defective
            (build_operator(FamilySpec.romanovski(-20, Fraction(-13, 5))), 20),  # defective
            (build_operator(FamilySpec.jacobi(-1, 20, 0)), 20),  # parity: degenerate
            (_triple_collision(random.Random(97), (2, 5, 9), lower=True), 12),
        ]
        statuses = set()
        for op, n in cases:
            calls.clear()
            table = eigentable(op, n)
            assert calls == list(range(n + 1)), op
            for k, res in enumerate(table):
                assert res == monic_eigenfunction(op, k), (op, k)
                assert _padded(res.basis, k) == nullspace_oracle(op.matrix(k), res.eigenvalue), (op, k)
                statuses.add(res.status)
        assert statuses == set(EigenStatus)

    def test_defective_pair_needs_no_rref(self, monkeypatch):
        # conditions [[0, r]], r != 0: the lone nonzero column is a pivot, and
        # the kernel is the lower degree's own v^(z)
        def refuse(rows):
            raise AssertionError("rref_kernel called on a lone nonzero column")

        monkeypatch.setattr(eigen_module, "rref_kernel", refuse)
        for spec in (FamilySpec.jacobi(-1, 20, Fraction(9, 2)), FamilySpec.romanovski(-20, Fraction(-13, 5))):
            table = eigentable(build_operator(spec), 20)
            for k in range(11, 21):
                assert table[k].status is EigenStatus.NO_DEGREE_N
                assert table[k].basis == (table[21 - k].monic,)


class TestBandOnly:
    # the solver reads the band; the dense Fraction matrix is for the public
    # API and the tests, and building it in the solver would cost (n+1)^2
    def test_solver_never_builds_the_dense_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense OperatorMatrix.entries built")

        ops = [HERMITE, LEGENDRE, DEGENERATE, CHAUDHRY_QADIR, *_collision_operators()]
        ops += _large_denominator_operators(random.Random(79))
        monkeypatch.setattr(OperatorMatrix, "entries", property(refuse))
        for op in ops:
            table = eigentable(op, 12)
            assert monic_eigenfunction(op, 12) == table[12]
            for mu in {r.eigenvalue for r in table} | {Fraction(1, 999_983)}:
                eigenspace_basis(op, mu, 12)
        with pytest.raises(AssertionError):
            LEGENDRE.matrix(3).entries


class TestIntegerFormOut:
    """Eigenfunctions leave the solver as integer numerators over one denominator;
    their floats and strings are those of the reduced Fraction coefficients."""

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec.jacobi(-1, -2, 0),  # legendre
            FamilySpec.jacobi(-1, Fraction(-13, 6), Fraction(-7, 6)),
            FamilySpec.romanovski(-80, Fraction(-27, 7)),
        ],
        ids=["legendre", "jacobi", "romanovski"],
    )
    def test_floats_and_strings_at_degree_80(self, spec):
        table = eigentable(build_operator(spec), 80)
        polys = [p for r in table for p in r.basis]
        assert len(polys) >= 81
        for p in polys:
            assert math.gcd(p.den, *p.nums) == 1 and p.nums[-1] != 0
            assert [v / p.den for v in p.nums] == [float(c) for c in p.coeffs]
            assert p.to_strings() == [str(Fraction(v, p.den)) for v in p.nums]


def _assert_canonical(p):
    assert p.den > 0 and p.nums[-1] != 0 and math.gcd(p.den, *p.nums) == 1, p
    assert p == Poly(p.coeffs), p


class TestCanonicalFormOut:
    # back-substitution builds each v^(z) in the canonical form with no final
    # gcd: the per-row gcd(s, d) alone keeps the numerators and q_0 coprime.
    # Large, mostly coprime denominators leave almost no row factor f_i = 1,
    # and forced collisions send the lifts through rref_kernel.
    def test_every_basis_vector_is_canonical(self):
        rng = random.Random(101)
        ops = _large_denominator_operators(rng)
        ops += [
            DiffOperator([Poly([_big_rational(rng) for _ in range(k + 1)]) for k in range(5)])
            for _ in range(4)
        ]
        for roots in [(0, 2, 5, 7), (1, 3, 4, 8)]:
            ops.append(_forced_collision(rng, roots, shift_one=True))
        assert {op.order for op in ops} == {1, 2, 3, 4}
        n = 9
        for op in ops:
            table = eigentable(op, n)
            for k, res in enumerate(table):
                monic = monic_eigenfunction(op, k)
                for p in (*res.basis, *monic.basis, *filter(None, [res.monic, monic.monic])):
                    _assert_canonical(p)
            for mu in {res.eigenvalue for res in table}:
                for p in eigenspace_basis(op, mu, n):
                    _assert_canonical(p)
