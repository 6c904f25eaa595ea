"""Independent oracles used across the test suite.

The three-term recurrences below are the textbook definitions of the monic
classical polynomials, written down directly; they share no code with the
eigensolver they check.  The kernel and span checks use fraction-free
Bareiss elimination over integers (Bareiss 1968) on the whole dense block,
independent of the solver's banded back-substitution and of the rational
Gauss-Jordan ``rref_kernel`` it runs on a collision's condition matrix.
``divide_and_integrate`` is the exact inner product computed the direct
way, one polynomial product and one definite integral per pair, against
which the library's moment assembly is checked.  ``log_eval_reference``
is ``WeightExpr.log_eval`` as it was before the weight cached its float
form: it converts and compares the Fraction fields at every call, and the
cached version must agree with it bit for bit.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import lcm
from typing import Sequence

from specpoly import (
    DiffOperator,
    ExactDivisionError,
    NotPolynomialReducible,
    OperatorMatrix,
    Poly,
    WeightExpr,
)


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


def divide_and_integrate(weight: WeightExpr, f: Poly, g: Poly) -> Fraction:
    """Exact integral of p*f*g when the weight cancels into f*g.

    Negative integer power exponents must divide f*g exactly; positive
    integer exponents multiply in.  On the interval interior each |x - r|
    has constant sign, which contributes the appropriate factor of -1 for
    odd exponents at the right endpoint.
    """
    iv = weight.interval
    if not iv.finite:
        raise NotPolynomialReducible("interval is not finite")
    if not weight.exp_poly.is_zero() or weight.arctan_coeff != 0:
        raise NotPolynomialReducible("weight has a transcendental factor")
    if weight.quad_exp is not None and weight.quad_exp != 0:
        raise NotPolynomialReducible("weight has a (x^2+1) factor")
    h = f * g
    if h.is_zero():
        return Fraction(0)
    sign = 1
    for pf in weight.power_factors:
        e = pf.exponent
        if e == 0:
            continue
        if e.denominator != 1:
            raise NotPolynomialReducible(
                f"non-integer exponent {e} at root {pf.root}"
            )
        k = int(e)
        if pf.root <= iv.lo:
            factor_sign = 1
        elif pf.root >= iv.hi:
            factor_sign = -1
        else:
            # root strictly inside: |x-r|^k is a polynomial only for even k >= 0
            if k > 0 and k % 2 == 0:
                h = h * Poly((-pf.root, 1)) ** k
                continue
            raise NotPolynomialReducible(
                f"root {pf.root} lies inside {iv.describe()}"
            )
        if k > 0:
            h = h * Poly((-pf.root, 1)) ** k
        else:
            for _ in range(-k):
                try:
                    h = h.divide_linear(pf.root)
                except ExactDivisionError as exc:
                    raise NotPolynomialReducible(
                        f"f*g is not divisible by (x - {pf.root})^{-k}"
                    ) from exc
        if factor_sign < 0 and k % 2 != 0:
            sign = -sign
    return weight.constant * sign * h.definite_integral(iv.lo, iv.hi)


def log_eval_reference(
    weight: WeightExpr, x: float, d_lo: float | None = None, d_hi: float | None = None
) -> float:
    """log p(x), converting the weight's Fractions on every call."""
    out = math.log(weight.constant)
    for pf in weight.power_factors:
        if d_lo is not None and weight.interval.lo is not None and pf.root == weight.interval.lo:
            dist = d_lo
        elif d_hi is not None and weight.interval.hi is not None and pf.root == weight.interval.hi:
            dist = d_hi
        else:
            dist = abs(x - float(pf.root))
        out += float(pf.exponent) * math.log(dist)
    if weight.quad_exp is not None and weight.quad_exp != 0:
        xsq = x * x
        log_quad = math.log1p(xsq) if math.isfinite(xsq) else 2.0 * math.log(abs(x))
        out += float(weight.quad_exp) * log_quad
    if not weight.exp_poly.is_zero():
        out += weight.exp_poly.eval_float(x)
    if weight.arctan_coeff != 0:
        out += float(weight.arctan_coeff) * math.atan(x)
    return out
