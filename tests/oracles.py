"""Independent oracles used across the test suite.

The three-term recurrences below are the textbook definitions of the monic
classical polynomials, written down directly; they share no code with the
eigensolver they check.  The kernel and span checks use fraction-free
Bareiss elimination over integers (Bareiss 1968) on the whole dense block,
independent of the solver's banded back-substitution and of the rational
Gauss-Jordan ``rref_kernel`` it runs on a collision's condition matrix.
``collision_status`` is the second-order collision law on its own: from the
coefficients of a D^2 + b D alone (no library call) it names the degree a
degree n collides with and, by the end exponents E_r = b(r)/a'(r) - 1, whether
that collision is Degenerate, against which every eigentable status is checked.
``divide_and_integrate`` is the exact inner product computed the direct
way, one polynomial product and one definite integral per pair, against
which the library's moment assembly is checked; its refusal,
``NotPolynomialReducible``, is its own (the library's router decides a
weight's route once, and its moment form returns a refused pair's reason
text, the same text this oracle raises).  ``log_eval_reference``
is ``WeightExpr.log_eval`` as it was before the weight cached its float
form: it converts and compares the Fraction fields at every call, and the
cached version must agree with it bit for bit.  ``moment_scale`` is
``integral p (1+x^2)^(t/2)`` on a real-line weight as one ``tanh_sinh``
call: at t = 0 the moment route's closed-form m_0 (Cauchy's beta integral)
must agree with it to 1e-12, and at t = m + n it is the scale against which
a Romanovski pair beside a divergent diagonal is checked by quadrature (the
library computes no such scale: every one of those pairs is an exact zero).
``tanh_sinh`` is the scalar tanh-sinh integrator, one integrand at a time,
frozen here as the library kept it before its Gram sweep formed each pair's
terms itself (``_tanh_sinh_sweep`` and ``_node`` with it); the library has no
scalar entry point.
``pair_quadrature`` is one Gram entry by ``tanh_sinh`` with the scalar
integrand the library used before its sweep took node pairs (two calls per node
pair, ``signed_exp`` per value), which the product sweep must match bit for bit,
including the root division at an end where the weight's exponent is <= -1.
On a real-line weight without a Gaussian factor it and ``moment_scale`` sweep
``x = tan u`` (``_tan_abscissa``, ``_log1p_sq``), a map the library lacks: it
refuses such weights, and takes the Romanovski shape by its moment route, which
these two cross-check.
The ``ref_*`` functions are ``Poly`` arithmetic on plain tuples of ``Fraction``
coefficients, ascending with no trailing zero, the format ``Poly`` stored before it
kept integer numerators over one denominator; ``Poly`` must agree with them.
``boundary_vanishing`` is PAPER.md's boundary-term rule read at the interval's
ends, as the library kept it before its certificate at divisions: it asks
p a's exponent at a finite end to be positive (or zero with both functions
vanishing there) and, at an infinite end, decay or a negative power, so it is a
one-way oracle of ``certified_zero``, which proves more pairs than it passes.
``certified_zero`` is the same argument at the divisions of the integrability
rule, as the library's router applied it to every eigentable before only its
certified regime kept it: two eigenfunctions of different eigenvalues whose key
s_f + s_g - k_r at each division (r, k_r) is at least 1, or 0 with s_f == s_g.
Where it holds, the moment block's own value of the pair must be an exact zero.
``integrability`` is the library's integrability verdict as it was before the one
rule (weights' divisions and reach) replaced it: it reads the endpoint facts of
p * factor * q for a polynomial q of a given degree, one condition per root of p in
the interval's closure and per infinite end, and asks each root's exponent, raised
by its multiplicity in factor, to exceed -1 and each infinite end to decay or carry
an asymptotic power below -1; the gate's verdict must equal it on every pair.
``favard_diagonals`` is Favard's theorem read off the eigentable: a monic orthogonal
family obeys p_(k+1) = (x - beta_k) p_k - gamma_k p_(k-1), so the top two coefficients
c_k, d_k of p_k = x^k + c_k x^(k-1) + d_k x^(k-2) give beta_k = c_k - c_(k+1) and
gamma_k = d_k - d_(k+1) - beta_k c_k, and G_kk = G_00 gamma_1 ... gamma_k; it shares no
code with the library's moment form, which computes those diagonals from moments.
``interior_points`` and ``weight_value`` are numeric spot-check helpers, and
``log_slope_error`` is a numeric Pearson check: the central difference of
``log p`` against (b - a')/a, which does not go through
``WeightExpr.pearson_pair`` as the library's exact check does.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from itertools import zip_longest
from math import lcm
from typing import Callable, Sequence

from specpoly import (
    DEFAULT_TOL,
    DiffOperator,
    EigenStatus,
    Interval,
    NoConvergence,
    OperatorMatrix,
    Poly,
    WeightExpr,
)
from specpoly._record import Record
from specpoly.quadrature import QuadResult
from specpoly.ratpoly import horner


def monic_classical(name: str, n_max: int) -> list[Poly]:
    """Monic classical polynomials up to degree n_max via recurrences.

    monic p_{n+1} = (x - a_n) p_n - c_n p_{n-1} with the standard
    coefficients for each family.
    """
    x = Poly((0, 1))

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


def _trim(coeffs) -> tuple[Fraction, ...]:
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def ref_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return _trim(x + y for x, y in zip_longest(a, b, fillvalue=Fraction(0)))


def ref_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return _trim(x - y for x, y in zip_longest(a, b, fillvalue=Fraction(0)))


def ref_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def ref_pow(a: Sequence[Fraction], n: int) -> tuple[Fraction, ...]:
    out: tuple[Fraction, ...] = (Fraction(1),)
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_derivative(a: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return _trim(i * c for i, c in enumerate(a) if i)


def ref_call(a: Sequence[Fraction], x: Fraction) -> Fraction:
    return sum((c * x**i for i, c in enumerate(a)), Fraction(0))


def ref_affine_sub(a: Sequence[Fraction], s: Fraction, t: Fraction) -> tuple[Fraction, ...]:
    """sum_i a_i (s u + t)^i by the binomial theorem."""
    out = [Fraction(0)] * len(a)
    for i, c in enumerate(a):
        for k in range(i + 1):
            out[k] += c * math.comb(i, k) * s**k * t ** (i - k)
    return _trim(out)


def ref_strip_root(a: Sequence[Fraction], root: Fraction, limit: int) -> tuple[tuple[Fraction, ...], int]:
    """Synthetic division by (x - root) while the remainder is 0, at most limit times."""
    if not a:
        return (), limit
    k = 0
    while k < limit:
        quot, acc = [Fraction(0)] * (len(a) - 1), Fraction(0)
        for i in range(len(a) - 1, 0, -1):
            acc = acc * root + a[i]
            quot[i - 1] = acc
        if acc * root + a[0]:
            break
        a, k = tuple(quot), k + 1
    return tuple(a), k


def random_operator(rng: random.Random, max_order: int) -> DiffOperator:
    """A random valid operator: deg(a_k) <= k, a_N nonzero."""
    order = rng.randint(0, max_order)
    coeffs = []
    for k in range(order + 1):
        coeffs.append(Poly([random_rational(rng) for _ in range(k + 1)]))
    if coeffs[-1].is_zero():
        coeffs[-1] = Poly((0,) * order + (1,))
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


def _quadratic(a: Sequence, b: Sequence) -> tuple[Fraction, ...]:
    """(a0, a1, a2, b0, b1) of a D^2 + b D from ascending coefficients; a2 != 0."""
    a0, a1, a2 = (Fraction(c) for c in (*a, 0, 0, 0)[:3])
    b0, b1 = (Fraction(c) for c in (*b, 0, 0)[:2])
    if not a2:
        raise ValueError("the collision law needs a2 != 0")
    return a0, a1, a2, b0, b1


def collision_partner(a: Sequence, b: Sequence, n: int) -> Fraction:
    """K - n, K = 1 - b1/a2: mu_n - mu_k = (n - k)((n + k - 1) a2 + b1) vanishes for
    k != n only there, so degree n collides with a lower degree exactly when this is
    an integer in [0, n)."""
    _, _, a2, _, b1 = _quadratic(a, b)
    return 1 - b1 / a2 - n


def end_exponents(a: Sequence, b: Sequence) -> list[Fraction]:
    """The rational end exponents E_r = b(r)/a'(r) - 1 at the two simple roots r of a.

    With c = -a1/(2 a2) and disc = a1^2 - 4 a0 a2 != 0, a'(r) = +-sqrt(disc) and
    b(r) = b(c) + b1 (r - c), so E_r = b1/(2 a2) - 1 +- b(c)/sqrt(disc).  Rational roots
    give both; otherwise (irrational or complex roots) E_r is rational, and then real and
    the same at both roots, only where b(c) = 0."""
    a0, a1, a2, b0, b1 = _quadratic(a, b)
    disc = a1 * a1 - 4 * a0 * a2
    p, q = math.isqrt(max(disc.numerator, 0)), math.isqrt(disc.denominator)
    if disc > 0 and p * p == disc.numerator and q * q == disc.denominator:
        roots = [(-a1 + s * Fraction(p, q)) / (2 * a2) for s in (1, -1)]
        return [(b0 + b1 * r) / (2 * a2 * r + a1) - 1 for r in roots]
    return [b1 / (2 * a2) - 1] if b0 - b1 * a1 / (2 * a2) == 0 else []


def collision_status(a: Sequence, b: Sequence, n: int) -> str:
    """The eigen status of degree n for a D^2 + b D (a2 != 0) by the second-order
    collision law alone, from the ascending coefficients of a and b.

    A degree that collides with no lower one is UniqueMonic.  Expanded in (x - r)^j at a
    simple root r of a the operator has two bands, and row j couples to j + 1 by
    (j + 1) a'(r) (j + 1 + E_r); so back-substitution from degree n reaches the colliding
    degree k = K - n with a residual that vanishes exactly when some E_r is an integer in
    [-n, -k-1] (Degenerate; NoDegreeNEigenfunction otherwise).  At a double root r the
    couplings are (j + 1) b(r): Degenerate exactly when b(r) = 0.  Szego, Orthogonal
    Polynomials, section 4.22, is the Jacobi case."""
    k = collision_partner(a, b, n)
    if k.denominator != 1 or not 0 <= k < n:
        return "UniqueMonic"
    a0, a1, a2, b0, b1 = _quadratic(a, b)
    if a1 * a1 == 4 * a0 * a2:
        degenerate = b0 - b1 * a1 / (2 * a2) == 0
    else:
        degenerate = any(e.denominator == 1 and -n <= e <= -k - 1 for e in end_exponents(a, b))
    return "Degenerate" if degenerate else "NoDegreeNEigenfunction"


class NotPolynomialReducible(ValueError):
    """divide_and_integrate's refusal: p*f*g does not reduce to a polynomial."""


def divide_and_integrate(weight: WeightExpr, f: Poly, g: Poly) -> Fraction:
    """Exact integral of p*f*g when the weight cancels into f*g.

    The integer power exponents are summed per root; a negative sum must
    divide f*g exactly, a positive one multiplies in.  On the interval
    interior each |x - r| has constant sign, which contributes the
    appropriate factor of -1 for odd exponents at the right endpoint.
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
    exponents: dict[Fraction, int] = {}  # the summed exponent per root
    for pf in weight.power_factors:
        e = pf.exponent
        if e == 0:
            continue
        if e.denominator != 1:
            raise NotPolynomialReducible(
                f"non-integer exponent {e} at root {pf.root}"
            )
        exponents[pf.root] = exponents.get(pf.root, 0) + int(e)
    sign = 1
    for root, k in exponents.items():
        if root <= iv.lo:
            factor_sign = 1
        elif root >= iv.hi:
            factor_sign = -1
        else:
            # root strictly inside: |x-r|^k is a polynomial only for even k >= 0
            if k > 0 and k % 2 == 0:
                h = h * Poly((-root, 1)) ** k
                continue
            raise NotPolynomialReducible(
                f"root {root} lies inside {iv.describe()}"
            )
        if k > 0:
            h = h * Poly((-root, 1)) ** k
        else:
            h, order = h.strip_root(root, -k)
            if order < -k:
                raise NotPolynomialReducible(f"f*g is not divisible by (x - {root})^{-k}")
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


# ---------------------------------------------------------------------------
# the scalar tanh-sinh integrator, frozen as the library had it before its Gram sweep
# formed each pair's terms itself: tanh_sinh integrates one f(x, d_lo, d_hi), and
# _tanh_sinh_sweep several integrands given as lists of values per node pair


_U_MAX = 6.6  # beyond this point on the u axis every node weight underflows to zero


@functools.lru_cache(maxsize=1024)
def _node(u: float) -> tuple[float, float, float]:
    """Return (t, 1 - t, weight) for abscissa parameter u > 0."""
    s = (math.pi / 2.0) * math.sinh(u)
    if s > 350.0:
        # e^(-2s) may underflow; both the distance and the weight go with it
        em = math.exp(-2.0 * s)
        d = 2.0 * em
        w = 2.0 * math.pi * math.cosh(u) * em
    else:
        em = math.exp(-2.0 * s)
        d = 2.0 * em / (1.0 + em)
        cs = math.cosh(s)
        w = (math.pi / 2.0) * math.cosh(u) / (cs * cs)
    return 1.0 - d, d, w


def tanh_sinh(
    f: Callable[[float, float, float], float],
    lo: float,
    hi: float,
    tol: float = DEFAULT_TOL,
    max_levels: int = 12,
) -> QuadResult:
    """Integrate f(x, d_lo, d_hi), with d_lo/d_hi the node's exact distances to the ends,
    over (lo, hi) until two levels differ by at most tol * (1 + integral of |f|), the
    stopping rule of specpoly.quadrature's module docstring."""
    (res,) = _tanh_sinh_sweep(
        lambda x_hi, x_lo, d_near, d_far, _: ([f(x_hi, d_far, d_near)], [f(x_lo, d_near, d_far)]),
        1, lo, hi, tol, max_levels,
    )
    if isinstance(res, NoConvergence):
        raise res
    return res


def _tanh_sinh_sweep(
    f: Callable, count: int, lo: float, hi: float, tol: float, max_levels: int = 12
) -> list[QuadResult | NoConvergence]:
    """Integrate integrands 0..count-1 over (lo, hi) on one sweep of the nodes;
    f(x_hi, x_lo, d_near, d_far, active) -> (values at x_hi, values at x_lo) gives
    the active ones' values at a node pair."""
    if not lo < hi:
        raise ValueError(f"bounds out of order: {lo} >= {hi}")
    if not 0 < tol < math.inf:  # also refuses nan
        raise ValueError(f"tol must be a finite positive number, not {tol}")
    mid = (lo + hi) / 2.0
    rad = (hi - lo) / 2.0
    tiny = 1e-4 * tol  # a term this small, relative to 1 + |total|, extends the streak
    isfinite = math.isfinite
    evals = [0] * count
    out: list = [None] * count  # each integrand's QuadResult or NoConvergence

    def row_sums(h: float, odd_only: bool, active: list[int]) -> tuple[list[float], list[float]]:
        """Each integrand's row total and the row total of its |terms|."""
        totals = [0.0] * count
        sizes = [0.0] * count
        streak = [0] * count
        if active and not odd_only:  # the centre node belongs to the first row only
            centre, _ = f(mid, mid, rad, rad, active)
            for i, v in zip(active, centre):
                totals[i] += (math.pi / 2.0) * v
                sizes[i] += abs((math.pi / 2.0) * v)
                evals[i] += 1
        k = 1
        step = 2 if odd_only else 1
        seen = 0  # node pairs evaluated in this row
        while active and k * h <= _U_MAX:
            t, d, w = _node(k * h)
            if w == 0.0 or d == 0.0:
                break
            x_hi, x_lo = mid + rad * t, mid - rad * t
            values_hi, values_lo = f(x_hi, x_lo, rad * d, rad * (2.0 - d), active)
            seen += 1
            gone = []
            for i, v_hi, v_lo in zip(active, values_hi, values_lo):
                term_hi = w * v_hi
                term_lo = w * v_lo
                pair = term_hi + term_lo
                if not isfinite(pair) and not (isfinite(term_hi) and isfinite(term_lo)):
                    out[i] = NoConvergence(
                        f"integrand not finite at a quadrature node (x near {x_hi!r} / {x_lo!r})",
                        math.nan, math.inf,
                    )
                    gone.append(i)
                    continue
                total = totals[i] = totals[i] + pair
                size = abs(term_hi) + abs(term_lo)
                sizes[i] += size
                if size <= tiny * (1.0 + abs(total)):
                    streak[i] += 1
                    if streak[i] >= 3:
                        gone.append(i)
                else:
                    streak[i] = 0
            if gone:
                for i in gone:
                    evals[i] += 2 * seen
                active = [i for i in active if i not in gone]
            k += step
        for i in active:
            evals[i] += 2 * seen
        return totals, sizes

    h = 1.0
    pending = list(range(count))
    totals, sizes = row_sums(h, False, pending)
    estimate = [rad * h * total for total in totals]
    l1 = [rad * h * size for size in sizes]  # the estimate of the integral of |f|
    err = [math.inf] * count
    for level in range(1, max_levels + 1):
        pending = [i for i in pending if out[i] is None]
        if not pending:
            break
        h /= 2.0
        sums, sizes = row_sums(h, True, pending)
        for i in pending:
            if out[i] is None:
                estimate_new = estimate[i] / 2.0 + rad * h * sums[i]
                l1[i] = l1[i] / 2.0 + rad * h * sizes[i]
                err[i] = abs(estimate_new - estimate[i])
                estimate[i] = estimate_new
                if err[i] <= tol * (1.0 + l1[i]):
                    out[i] = QuadResult(estimate_new, err[i], level, evals[i])
    for i in range(count):
        if out[i] is None:
            message = f"no convergence after {max_levels} levels (last error {err[i]:.3e})"
            out[i] = NoConvergence(message, estimate[i], err[i])
    return out


def signed_exp(sign: float, log_mag: float) -> float:
    """sign * e^log_mag: 0 for a zero sign or magnitude, an infinity past 708."""
    if sign == 0.0 or log_mag == -math.inf:
        return 0.0
    if log_mag > 708.0:
        return math.copysign(math.inf, sign)
    return sign * math.exp(log_mag)


def _tan_abscissa(u: float, d_lo: float, d_hi: float) -> float:
    """tan(u) on (-pi/2, pi/2), accurate near the endpoints."""
    if d_hi < 0.8:
        return 1.0 / math.tan(d_hi)
    if d_lo < 0.8:
        return -1.0 / math.tan(d_lo)
    return math.tan(u)


def _log1p_sq(t: float) -> float:
    """log(1 + t^2) without overflow."""
    sq = t * t
    return math.log1p(sq) if math.isfinite(sq) else 2.0 * math.log(abs(t))


def pair_quadrature(weight: WeightExpr, f: Poly, g: Poly, tol: float) -> QuadResult:
    """Tanh-sinh of p f g over the weight's interval by ``tanh_sinh``, with the scalar
    integrand the library used before its Gram sweep took node pairs: one call per node,
    which maps the node to x (on the real line x = centre + scale artanh(t) over (-1, 1) for
    a Gaussian factor e^(c2 x^2 + c1 x), c2 < 0, else x = tan u, which the library lacks),
    evaluates f and g to a sign and log|.| (off [-1, 1] through the reversed polynomial at
    1/x), and returns signed_exp of the product sign and log p + log J + log|f| + log|g|.
    Neither has a half-line map.  At a finite end where p's exponent is <= -1, a root of f
    or g there is divided out (``ref_strip_root``) and its order s comes back as s log d
    from the node's exact distance d to that end, with the sign (x - hi)^s at the upper."""
    iv, exp = weight.interval, weight.exp_poly
    ends = [r if r is not None and weight.power_exponent_at(r) <= -1 else None for r in (iv.lo, iv.hi)]
    polys = []
    for p in (f, g):
        coeffs, orders = p.coeffs, []
        for r in ends:
            s = 0
            if r is not None and coeffs:
                coeffs, s = ref_strip_root(coeffs, r, len(coeffs) - 1)
            orders.append(s)
        polys.append((tuple(map(float, coeffs)), orders))

    def log_abs(c: tuple, orders: list, x: float, d_lo: float, d_hi: float) -> tuple[float, float]:
        if iv.finite or abs(x) <= 1.0:
            v, log_scale = horner(c, x), 0.0
        else:
            v, log_scale = horner(c[::-1], 1.0 / x), (len(c) - 1) * math.log(abs(x))
            if x < 0 and (len(c) - 1) % 2:
                v = -v
        if not v:
            return 0.0, -math.inf
        log_mag = log_scale + math.log(abs(v))
        s_lo, s_hi = orders
        if s_lo:
            log_mag += s_lo * (math.log(d_lo) if d_lo else -math.inf)
        if s_hi:
            log_mag += s_hi * (math.log(d_hi) if d_hi else -math.inf)
            v = -v if s_hi % 2 else v
        return (math.copysign(1.0, v), log_mag) if log_mag != -math.inf else (0.0, -math.inf)

    def value(x: float, lw: float, log_jac: float, d_lo=None, d_hi=None) -> float:
        (s_f, l_f), (s_g, l_g) = (log_abs(c, orders, x, d_lo, d_hi) for c, orders in polys)
        return signed_exp(s_f * s_g, lw + log_jac + l_f + l_g)

    if iv.finite:
        lo, hi = float(iv.lo), float(iv.hi)

        def h(x: float, d_lo: float, d_hi: float) -> float:
            return value(x, weight.log_eval(x, d_lo, d_hi), 0.0, d_lo, d_hi)

    elif iv.lo is None and iv.hi is None and len(exp.coeffs) == 3 and exp.coeffs[2] < 0:
        # the Gaussian's centre -c1/(2 c2) and width 2/sqrt(-c2); dx/dt = scale/(1 - t^2)
        lo, hi = -1.0, 1.0
        centre = float(-exp.coeffs[1] / (2 * exp.coeffs[2]))
        scale = 2.0 / math.sqrt(float(-exp.coeffs[2]))

        def h(t: float, d_lo: float, d_hi: float) -> float:
            x = centre + scale * ((math.log(d_lo) - math.log(d_hi)) / 2.0)
            log_jac = math.log(scale) - math.log(d_lo) - math.log(d_hi)
            return value(x, weight.log_eval(x), log_jac)

    else:
        lo, hi = -math.pi / 2, math.pi / 2

        def h(u: float, d_lo: float, d_hi: float) -> float:
            x = _tan_abscissa(u, d_lo, d_hi)
            return value(x, weight.log_eval(x), _log1p_sq(x)) if math.isfinite(x) else 0.0

    return tanh_sinh(h, lo, hi, tol)


def moment_scale(weight: WeightExpr, total_degree: int, tol: float) -> float | None:
    """integral p(x) (1+x^2)^(total_degree/2) dx, the scale of an off-diagonal
    pair whose diagonal norms diverge.

    Smooth and finite exactly when the pair itself is integrable; only the
    real-line case ever needs it.
    """
    iv = weight.interval
    if not (iv.lo is None and iv.hi is None):
        return None
    half = total_degree / 2.0

    def g(u: float, d_lo: float, d_hi: float) -> float:
        x = _tan_abscissa(u, d_lo, d_hi)
        if not math.isfinite(x):
            return 0.0
        total = weight.log_eval(x) + (half + 1.0) * _log1p_sq(x)
        return signed_exp(1.0, total)

    try:
        return tanh_sinh(g, -math.pi / 2, math.pi / 2, tol).value
    except NoConvergence:
        return None


def favard_diagonals(table) -> list[Fraction]:
    """G_kk / G_00 = gamma_1 ... gamma_k for k = 0, 1, ... (module docstring), from the
    top two coefficients of the table's monic eigenfunctions (table[k] of degree k), for
    every k with p_0 .. p_(k+1) unique."""
    top = []  # (c_k, d_k) while p_0 .. p_k are unique
    for k, row in enumerate(table):
        if row.status is not EigenStatus.UNIQUE_MONIC:
            break
        top.append((row.monic.coeff(k - 1), row.monic.coeff(k - 2)))
    diagonals = [Fraction(1)]
    for k in range(1, len(top) - 1):
        (c, d), (c_next, d_next) = top[k], top[k + 1]
        beta = c - c_next
        diagonals.append(diagonals[-1] * (d - d_next - beta * c))
    return diagonals


def certified_zero(
    eigenvalues: tuple[Fraction, Fraction],
    classes: tuple[Sequence[int], Sequence[int]],
    caps: Sequence[int],
) -> bool:
    """Does PAPER.md's argument make <f, g> an exact zero, for eigenfunctions f and g of
    L = a D^2 + b D with these eigenvalues and these root orders s_f, s_g (capped at k_r)
    at the divisions (r, k_r) of the weight's integrability rule, caps the k_r?  The pair
    must be one the router values (no key s_f + s_g - k_r below 0, and inside the reach).
    (lambda_f - lambda_g) p f g = (p a (f' g - f g'))', and the boundary term vanishes at
    every end without a division; at a division, a simple root of a, it has the order
    E_r + s_f + s_g (more when s_f == s_g) with -1 < E_r + k_r <= 0, so it vanishes where
    the key is >= 1 or s_f == s_g."""
    (lambda_f, lambda_g), (s_f, s_g) = eigenvalues, classes
    return lambda_f != lambda_g and all(
        s + t - k >= 1 or s == t and s + t >= k for s, t, k in zip(s_f, s_g, caps)
    )


class BoundaryVerdict(Record):
    vanishes: bool
    conditions: tuple[tuple[str, bool, str], ...]


def boundary_vanishing(
    weight: WeightExpr,
    a: Poly,
    deg_pair: tuple[int, int] = (0, 0),
    funcs: tuple[Poly, Poly] | None = None,
) -> BoundaryVerdict:
    """Does the boundary term p*a*(u v' - u' v) vanish at the endpoints?

    Finite endpoint r: the exponent of |x - r| in p*a must be positive; if
    it is exactly zero the term still vanishes when both candidate
    functions (if supplied) vanish at r.  Infinite end: a decaying
    exponential factor wins, otherwise the asymptotic power of
    p*a*(u v' - u' v), p times a polynomial of degree deg(a) + m + n - 1,
    must be negative.  The finite ends come first, then -inf, then +inf.
    """
    m, n = deg_pair
    iv, exp_poly = weight.interval, weight.exp_poly
    conditions = []
    for r in (iv.lo, iv.hi):
        if r is None:
            continue
        e = weight.power_exponent_at(r) + a.strip_root(r, max(a.degree, 0))[1]
        if e > 0:
            ok, detail = True, f"p*a exponent {e} > 0"
        elif e == 0 and funcs is not None:
            ok = funcs[0](r) == 0 and funcs[1](r) == 0
            detail = (
                "p*a finite; both functions vanish here"
                if ok
                else "p*a finite and a function is nonzero here"
            )
        else:
            ok, detail = False, f"p*a exponent {e} <= 0"
        conditions.append((f"x={r}", ok, detail))
    asym = m + n - 1 + max(a.degree, 0) + sum(pf.exponent for pf in weight.power_factors)
    asym += 2 * weight.quad_exp if weight.quad_exp is not None else Fraction(0)
    for loc, end, sign in (("-inf", iv.lo, -1), ("+inf", iv.hi, 1)):
        if end is not None:
            continue
        if not exp_poly.is_zero():  # e^E decays or grows at this end
            ok = exp_poly.leading() * sign ** exp_poly.degree < 0
            detail = f"exponential factor {'decays' if ok else 'grows'}"
        else:
            ok = asym < 0
            detail = f"boundary term asymptotic power {asym} {'<' if ok else '>='} 0"
        conditions.append((loc, ok, detail))
    return BoundaryVerdict(all(ok for _, ok, _ in conditions), tuple(conditions))


class IntegrabilityVerdict(Record):
    integrable: bool
    conditions: tuple[tuple[str, bool, str], ...]  # (location, ok, detail)


def _endpoint_facts(
    weight: WeightExpr, poly: Poly, degree: int
) -> list[tuple[str, Fraction | None, Fraction, bool | None]]:
    """(location, point, exponent, decay) per endpoint of p * poly * q, q of degree
    `degree` with no root counted: at each root r of p inside the weight's [lo, hi],
    point r and decay None; at each infinite end, point None and decay True or False
    when e^E decays or grows there, else None with exponent the asymptotic power (a
    constant E neither decays nor grows).  The arctan factor is bounded and plays no
    role."""
    iv = weight.interval
    facts = []
    for r in sorted({pf.root for pf in weight.power_factors}):
        if (iv.lo is None or iv.lo <= r) and (iv.hi is None or r <= iv.hi):
            mult = poly.strip_root(r, max(poly.degree, 0))[1]
            facts.append((f"x={r}", r, weight.power_exponent_at(r) + mult, None))
    asym = degree + max(poly.degree, 0) + sum(pf.exponent for pf in weight.power_factors)
    asym += 2 * weight.quad_exp if weight.quad_exp is not None else Fraction(0)
    exp_poly = weight.exp_poly
    for name, end, sign in (("-inf", iv.lo, -1), ("+inf", iv.hi, 1)):
        if end is None:  # a constant E (degree 0) is a constant factor
            decay = exp_poly.leading() * sign**exp_poly.degree < 0 if exp_poly.degree > 0 else None
            facts.append((name, None, asym, decay))
    return facts


def integrability(
    weight: WeightExpr, total_degree: int = 0, factor: Poly = Poly.one()
) -> IntegrabilityVerdict:
    """Is factor * (polynomial of degree total_degree) * weight integrable over
    the weight's interval?

    Every power exponent at a finite root, plus the root's multiplicity in
    factor, must exceed -1; each infinite end needs a decaying exponential
    factor, or else an asymptotic power below -1.
    """
    conditions = []
    for loc, r, e, decay in _endpoint_facts(weight, factor, total_degree):
        if decay is not None:
            ok, detail = decay, f"exponential factor {'decays' if decay else 'grows'}"
        elif r is None:
            ok = e < -1
            detail = f"asymptotic power {e} {'<' if ok else '>='} -1"
        else:
            ok = e > -1
            detail = f"power exponent {e} {'>' if ok else '<='} -1"
        conditions.append((loc, ok, detail))
    return IntegrabilityVerdict(all(ok for _, ok, _ in conditions), tuple(conditions))


def interior_points(iv: Interval, count: int) -> list[float]:
    """count deterministic points inside iv: evenly spaced on a finite
    interval, through tan on a half line or the real line."""
    ticks = [(i + 1) / (count + 1) for i in range(count)]
    if iv.finite:
        lo, hi = float(iv.lo), float(iv.hi)
        return [lo + (hi - lo) * t for t in ticks]
    if iv.lo is None and iv.hi is None:
        return [math.tan(math.pi * (t - 0.5)) for t in ticks]
    if iv.hi is None:
        return [float(iv.lo) + math.tan(math.pi * t / 2) for t in ticks]
    return [float(iv.hi) - math.tan(math.pi * t / 2) for t in ticks]


def weight_value(weight: WeightExpr, x: float) -> float:
    """p(x) as a float, for x inside the weight's interval."""
    return math.exp(weight.log_eval(x))


def log_slope_error(weight: WeightExpr, a: Poly, b: Poly, count: int = 20) -> float:
    """The largest gap, over count interior points, between the central
    difference of log p and (b - a')/a (exact at the float point), relative
    to 1 + |(b - a')/a|.  The step is 1e-4 of the smaller of 1 + |x| and the
    distance to the nearest finite endpoint or root of a factor with a nonzero
    exponent, so the truncation error stays near 1e-9 of the slope."""
    iv, da = weight.interval, a.derivative()
    singular = [float(end) for end in (iv.lo, iv.hi) if end is not None]
    singular += [float(pf.root) for pf in weight.power_factors if pf.exponent]
    worst = 0.0
    for x in interior_points(iv, count):
        dist = [abs(x - r) for r in singular]
        h = 1e-4 * min([1 + abs(x), *dist])
        hi, lo = x + h, x - h
        slope = (weight.log_eval(hi) - weight.log_eval(lo)) / (hi - lo)
        at = Fraction(x)
        want = float((b(at) - da(at)) / a(at))
        worst = max(worst, abs(slope - want) / (1 + abs(want)))
    return worst
