"""Exact arithmetic for the output checks, written apart from specpoly.

The checks must not trust the code they check, so nothing here imports
specpoly.  Polynomials are lists of Fractions in ascending degree with no
trailing zeros; the zero polynomial is the empty list.
"""

from __future__ import annotations

import math
from fractions import Fraction


def trim(p: list) -> list:
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def add(p: list, q: list) -> list:
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def scale(p: list, c) -> list:
    return trim([c * v for v in p])


def mul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def deriv(p: list) -> list:
    return trim([i * c for i, c in enumerate(p)][1:])


def evaluate(p: list, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def integrate(p: list, lo, hi) -> Fraction:
    anti = [Fraction(0)] + [c / (i + 1) for i, c in enumerate(p)]
    return evaluate(anti, Fraction(hi)) - evaluate(anti, Fraction(lo))


def compose(p: list, s, t) -> list:
    """p(s u + t)."""
    out: list = []
    for c in reversed(p):
        out = add(mul(out, [t, s]), [c])
    return out


def divide_by_root(p: list, r) -> list:
    """p / (x - r); raises ArithmeticError unless r is a root of p."""
    quot = [Fraction(0)] * max(len(p) - 1, 0)
    acc = Fraction(0)
    for i in range(len(p) - 1, 0, -1):
        acc = acc * r + p[i]
        quot[i - 1] = acc
    if acc * r + (p[0] if p else 0) != 0:
        raise ArithmeticError(f"x = {r} is not a root")
    return trim(quot)


# -- second-order operators a y'' + b y' -----------------------------------


def family_coefficients(kind: str, eps: int, alpha, beta) -> tuple[list, list]:
    """(a, b) for the operator families, from the table in the README."""
    if kind == "chaudhry-qadir":
        return trim([0, 1, -1]), trim([1, -1])
    a = {"jacobi": [1, 0, eps], "romanovski": [1, 0, 1], "laguerre": [0, 1], "hermite": [1]}[kind]
    return trim(a), trim([beta, alpha])


def apply_op(a: list, b: list, y: list) -> list:
    d1 = deriv(y)
    return add(mul(a, deriv(d1)), mul(b, d1))


def eigenvalue(a: list, b: list, j: int) -> Fraction:
    """Diagonal entry j of the operator matrix: a_2 j(j-1) + b_1 j."""
    a2 = a[2] if len(a) > 2 else Fraction(0)
    b1 = b[1] if len(b) > 1 else Fraction(0)
    return a2 * j * (j - 1) + b1 * j


def rank(rows: list) -> int:
    work = [list(r) for r in rows]
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c] != 0:
                f = work[i][c] / work[r][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def shifted_matrix(a: list, b: list, n: int, mu) -> list:
    """Rows of M - mu I where column j of M holds L(x^j) on P_n."""
    cols = [apply_op(a, b, [Fraction(0)] * j + [Fraction(1)]) for j in range(n + 1)]
    return [
        [(cols[j][i] if i < len(cols[j]) else 0) - (mu if i == j else 0) for j in range(n + 1)]
        for i in range(n + 1)
    ]


def kernel_facts(a: list, b: list, n: int) -> tuple[int, bool]:
    """(dim ker(M - mu_n I), whether a kernel vector has degree exactly n).

    A kernel vector with c_n = 1 exists iff column n lies in the span of
    the other columns, i.e. dropping it leaves the rank unchanged.
    """
    rows = shifted_matrix(a, b, n, eigenvalue(a, b, n))
    full = rank(rows)
    without_last = rank([r[:-1] for r in rows])
    return n + 1 - full, without_last == full


def monic_eigenfunction(a: list, b: list, n: int) -> list:
    """Back-substitution for distinct eigenvalues (used for chaudhry-qadir)."""
    rows = shifted_matrix(a, b, n, eigenvalue(a, b, n))
    c = [Fraction(0)] * (n + 1)
    c[n] = Fraction(1)
    for i in range(n - 1, -1, -1):
        acc = sum(rows[i][j] * c[j] for j in range(i + 1, n + 1))
        c[i] = -acc / rows[i][i]
    return trim(c)


# -- reference polynomials and norms ----------------------------------------


def three_term(n_max: int, shift, gamma) -> list:
    """Monic p_0..p_n_max from p_{k+1} = (x - shift(k)) p_k - gamma(k) p_{k-1}."""
    polys = [[Fraction(1)]]
    prev: list = []
    for k in range(n_max):
        nxt = add(mul([-Fraction(shift(k)), Fraction(1)], polys[k]), scale(prev, -Fraction(gamma(k))))
        prev = polys[k]
        polys.append(nxt)
    return polys


PRESET_RECURRENCES = {
    # monic Legendre, physicists' Hermite (weight e^(-x^2)), Laguerre L^(0)
    "legendre": (lambda k: 0, lambda k: Fraction(k * k, 4 * k * k - 1) if k else 0),
    "hermite": (lambda k: 0, lambda k: Fraction(k, 2)),
    "laguerre": (lambda k: 2 * k + 1, lambda k: k * k),
}


def jacobi_norm_exact(n: int, a: int, b: int) -> Fraction:
    """Squared norm of the monic Jacobi polynomial, weight (1-x)^a (1+x)^b,
    for integer a, b >= 0."""
    f = math.factorial
    return Fraction(
        2 ** (2 * n + a + b + 1) * f(n) * f(n + a) * f(n + b) * f(n + a + b),
        f(2 * n + a + b) * f(2 * n + a + b + 1),
    )


def jacobi_norm_float(n: int, a: float, b: float) -> float:
    """The same norm for real a, b > -1, from log-gamma."""
    lg = math.lgamma
    if n == 0:
        log = (a + b + 1) * math.log(2) + lg(a + 1) + lg(b + 1) - lg(a + b + 2)
    else:
        log = (
            (2 * n + a + b + 1) * math.log(2) + lg(n + 1) + lg(n + a + 1) + lg(n + b + 1)
            + lg(n + a + b + 1) - lg(2 * n + a + b + 1) - lg(2 * n + a + b + 2)
        )
    return math.exp(log)


def hermite_norm(n: int, A: float, B: float) -> float:
    """Squared norm of the monic orthogonal polynomial of degree n for the
    weight exp(A x^2/2 + B x), A < 0."""
    s = abs(A)
    return math.exp(B * B / (2 * s)) * math.sqrt(2 * math.pi / s) * math.factorial(n) / s**n


def rel_diff(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)
