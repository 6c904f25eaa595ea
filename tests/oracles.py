"""Independent oracles used across the test suite.

The three-term recurrences below are the textbook definitions of the monic
classical polynomials, written down directly; they share no code with the
eigensolver they check.  The kernel and span checks use fraction-free
Bareiss elimination over integers (Bareiss 1968) on the whole dense block,
independent of the solver's banded back-substitution and of the rational
Gauss-Jordan ``rref_kernel`` it runs on a collision's condition matrix.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Sequence

from specpoly import DiffOperator, OperatorMatrix, Poly


def monic_classical(name: str, n_max: int) -> list[Poly]:
    """Monic classical polynomials up to degree n_max via recurrences.

    monic p_{n+1} = (x - a_n) p_n - c_n p_{n-1} with the standard
    coefficients for each family.
    """
    x = Poly.x()

    def shift(n: int) -> Fraction:
        return Fraction(2 * n + 1) if name == "laguerre" else Fraction(0)

    def c(n: int) -> Fraction:
        if name == "legendre":
            return Fraction(n * n, 4 * n * n - 1)
        if name == "hermite":
            return Fraction(n, 2)
        if name == "chebyshev1":
            return Fraction(1, 2) if n == 1 else Fraction(1, 4)
        if name == "chebyshev2":
            return Fraction(1, 4)
        if name == "laguerre":
            return Fraction(n * n)
        raise ValueError(name)

    polys = [Poly.one()]
    if n_max >= 1:
        polys.append(x - Poly((shift(0),)))
    for n in range(1, n_max):
        polys.append((x - Poly((shift(n),))) * polys[n] - c(n) * polys[n - 1])
    return polys[: n_max + 1]


def random_rational(rng: random.Random, max_num: int = 6, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_poly(rng: random.Random, max_degree: int) -> Poly:
    return Poly([random_rational(rng) for _ in range(max_degree + 1)])


def random_operator(rng: random.Random, max_order: int) -> DiffOperator:
    """A random valid operator: deg(a_k) <= k, a_N nonzero."""
    order = rng.randint(0, max_order)
    coeffs = []
    for k in range(order + 1):
        coeffs.append(Poly([random_rational(rng) for _ in range(k + 1)]))
    if coeffs[-1].is_zero():
        coeffs[-1] = Poly.monomial(order)
    return DiffOperator(coeffs)


def _exact_div(a: int, b: int) -> int:
    q, rem = divmod(a, b)
    if rem:
        raise ArithmeticError("Bareiss division was not exact")
    return q


def _bareiss_echelon(int_rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free integer row echelon form; returns (rows, pivot columns)."""
    m = len(int_rows)
    ncols = len(int_rows[0])
    work = [list(r) for r in int_rows]
    pivot_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, m) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        for i in range(r + 1, m):
            for j in range(c + 1, ncols):
                work[i][j] = _exact_div(
                    work[r][c] * work[i][j] - work[i][c] * work[r][j], prev
                )
            work[i][c] = 0
        prev = work[r][c]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    return work[:r], pivot_cols


def _cleared(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Each row (of Fractions or ints) scaled by the lcm of its
    denominators, as integers."""
    out = []
    for row in rows:
        scale = lcm(*(v.denominator for v in row))
        out.append([v.numerator * (scale // v.denominator) for v in row])
    return out


def nullspace_oracle(matrix: OperatorMatrix, mu) -> list[list[Fraction]]:
    """Kernel of M - mu*I by integer Bareiss elimination and back-solve.

    Brute force on purpose: it ignores the triangular structure and uses a
    different elimination (fraction-free over cleared integers) so it can
    cross-check the banded solver.
    """
    ncols = matrix.n + 1
    echelon, pivot_cols = _bareiss_echelon(_cleared(matrix.shifted_rows(mu)))
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis: list[list[Fraction]] = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri in range(len(echelon) - 1, -1, -1):
            pc = pivot_cols[ri]
            acc = sum(
                (Fraction(echelon[ri][j]) * v[j] for j in range(pc + 1, ncols)),
                Fraction(0),
            )
            v[pc] = -acc / echelon[ri][pc]
        basis.append(v)
    return basis


def _rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(_bareiss_echelon(_cleared(rows))[1]) if rows else 0


def span_contains(basis: Sequence[Sequence[Fraction]], vector: Sequence[Fraction]) -> bool:
    """Exact membership test: is ``vector`` in the span of ``basis``?"""
    return _rank([*basis, vector]) == _rank(basis)


def spans_equal(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> bool:
    """Do two sets of vectors span the same subspace?  Stacking them raises
    neither rank."""
    return _rank(a) == _rank([*a, *b]) == _rank(b)
