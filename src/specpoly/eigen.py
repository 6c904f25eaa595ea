"""Exact polynomial eigenfunctions via banded back-substitution.

The matrix of a valid operator on P_n is upper triangular, and since
deg(a_k) <= k row i has entries only in columns i..i+N (N = order).  For
U = M - mu I let Z be the indices z with U[z][z] = 0, ascending; for
mu = mu_n without a collision Z is just [n].  Each z in Z gives a vector
v^(z): c_z = 1, 0 above z and at the rest of Z, and back-substitution over
the band solves each row below z that has a nonzero diagonal.  A row in Z
cannot be solved and records its residual instead.  If every residual is
zero the v^(z) are the kernel basis; otherwise ``rref_kernel`` solves the
small condition matrix (a row per zero-diagonal row with a nonzero
residual, a column per z) and each of its kernel vectors t lifts to
sum_z t_z v^(z).  The highest nonzero coordinate of such a lift is the
highest z with t_z != 0, so the free columns and the standard kernel basis
(1 at its own free column, 0 at the others) are those that Gauss-Jordan on
all of U would give.  For mu = mu_n:

  * column n free: an eigenfunction of exact degree n, whose basis vector
    (c_n = 1, other free coordinates 0) is the canonical monic one;
  * kernel dimension >= 2: a genuinely degenerate eigenspace;
  * column n not free: no eigenfunction of exact degree n even though
    mu_n sits on the diagonal.

Each z costs O(z*N) integer products: every solved row keeps its own
denominator factor, as in Bareiss's fraction-free elimination (Math. Comp.
22, 1968), and no pivot rescales the coefficients already filled; |Z| <= N
unless the diagonal is constant.  One matrix for n_max, stored as its
integer band over one denominator (``OperatorMatrix``), serves all of
``eigentable``: its leading (n+1)x(n+1) block is the matrix on P_n.  Each
v^(z) and each lift stays in integers, and leaves as integer numerators over
q_0 (a lift: over one lcm) that become a ``Poly`` with one gcd; no
coefficient Fraction and no float is built.  The Bareiss cross-check lives
in ``tests/oracles.py``.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import accumulate
from math import gcd, prod
from operator import mul, truediv
from typing import Sequence

from ._record import Record
from .operator import DiffOperator, OperatorMatrix
from .ratpoly import Poly, RatLike, common_denominator, rat

__all__ = [
    "EigenStatus",
    "EigenResult",
    "monic_eigenfunction",
    "eigenspace_basis",
    "eigentable",
    "rref_kernel",
]


class EigenStatus(str, enum.Enum):
    UNIQUE_MONIC = "UniqueMonic"
    DEGENERATE = "Degenerate"
    NO_DEGREE_N = "NoDegreeNEigenfunction"


class EigenResult(Record):
    """Outcome of the degree-n eigenfunction search.

    ``monic`` is the unique monic eigenfunction (UniqueMonic) or the
    canonical degree-n representative with free coordinates zeroed
    (Degenerate); it is None when no eigenfunction of exact degree n
    exists.  ``basis`` spans the full eigenspace of ``eigenvalue`` in P_n.
    """

    degree: int
    eigenvalue: Fraction
    status: EigenStatus
    monic: Poly | None
    eigenspace_dim: int
    basis: tuple[Poly, ...]

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "eigenvalue_of_L": str(self.eigenvalue),
            "lambda_ode_convention": str(-self.eigenvalue),
            "status": self.status.value,
            "monic": self.monic.to_strings() if self.monic is not None else None,
            "eigenspace_dim": self.eigenspace_dim,
            "basis": [p.to_strings() for p in self.basis],
        }


# ---------------------------------------------------------------------------
# exact kernels


def rref_kernel(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Kernel basis of a rational matrix via Gauss-Jordan elimination.

    Returns the standard basis: one vector per free column, with 1 at its
    own free column and 0 at every other free column, ordered by free
    column index.  The eigensolver calls it only on the condition matrix
    of a collision, with one column per zero diagonal entry.
    """
    m = len(rows)
    if m == 0:
        return []
    ncols = len(rows[0])
    work = [list(r) for r in rows]
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, m) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot = work[r]
        pv = pivot[c]
        # zero entries of the pivot row change nothing: skip them
        nonzero = [j for j, v in enumerate(pivot) if v != 0]
        for j in nonzero:
            pivot[j] = pivot[j] / pv
        for i in range(m):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                row = work[i]
                for j in nonzero:
                    row[j] = row[j] - f * pivot[j]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis: list[list[Fraction]] = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pr, pc in enumerate(pivot_cols):
            v[pc] = -work[pr][fc]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# eigenfunction recovery

_ZERO = Fraction(0)


def _banded_kernel(matrix: OperatorMatrix, mu: Fraction, n: int) -> list[tuple[int, list[int]]]:
    """Standard kernel basis of M - mu I on the leading (n+1)x(n+1) block, each
    vector as (denominator, integer numerators), coordinates 0..n or fewer.

    Runs on D (M - mu I), D M the integer band, with v^(z)_j = c_j / q_j,
    q_j = f_j q_(j+1) and q_z = 1.  Row i takes s = q_(i+1) sum_t D M_i,i+t
    v_(i+t), whose term t carries c_(i+t) f_(i+1) ... f_(i+t-1); a pivot d sets
    g = gcd(s, d), c_i = -s/g (s/g when d < 0) and f_i = |d|/g, and changes no
    filled c_j.  A residual Fraction(s, q_(i+1)) is D times the true one in
    every row, which leaves the kernel alone.  Each v^(z) leaves over q_0, as
    c_j f_0 ... f_(j-1); a lift sum_z t_z v^(z) sums those in integers over one lcm."""
    d_m, rows = matrix.denominator, matrix.band
    if d_m % mu.denominator:
        return []  # every diagonal entry's denominator divides D: U is invertible
    shift = mu.numerator * (d_m // mu.denominator)
    diag = [rows[i][0] - shift for i in range(n + 1)]
    zeros = [z for z, d in enumerate(diag) if d == 0]
    pairs = []  # (c, f) of v^(zeros[k]), integers, f_j = 1 where c_j is no pivot
    residuals: list[list[Fraction]] = []  # residuals[k][m]: row zeros[m] under v^(zeros[k])
    for z in zeros:
        c, f = [0] * (z + len(rows[0])), [1] * (z + len(rows[0]))  # the band reaches past z
        c[z] = 1
        res = {}
        for i in range(z - 1, -1, -1):
            row = rows[i]
            if len(row) == 3:  # a row of order 2 reads both band terms inline
                s = row[1] * c[i + 1] + row[2] * c[i + 2] * f[i + 1]
            else:  # any other order, or one of the band's last rows
                s, p = 0, 1
                for t in range(1, len(row)):
                    s += row[t] * c[i + t] * p
                    p *= f[i + t]
            d = diag[i]
            if not d:
                res[i] = Fraction(s, prod(f[i + 1 : z]))
                continue
            g = gcd(s, d)
            c[i] = -s // g if d > 0 else s // g
            f[i] = abs(d) // g
        pairs.append((c, f))
        residuals.append([res.get(i, _ZERO) for i in zeros])
    vectors, qs = [], []  # v^(zeros[k]) = vectors[k] / qs[k], integers over q_0
    for z, (c, f) in zip(zeros, pairs):
        ps = list(accumulate(f[:z], mul, initial=1))  # ps[j] = f_0 ... f_(j-1), ps[z] = q_0
        vectors.append(list(map(mul, c, ps)) + [0] * (n - z))
        qs.append(ps[z])
    conditions = [list(col) for col in zip(*residuals) if any(col)]
    if not conditions:
        return list(zip(qs, vectors))
    return [
        (den, [sum(map(mul, ws, col)) for col in zip(*vectors)])
        for den, ws in (common_denominator(map(truediv, ts, qs)) for ts in rref_kernel(conditions))
    ]


def _solve_degree(matrix: OperatorMatrix, n: int) -> EigenResult:
    """The degree-n eigenproblem on the leading (n+1)x(n+1) block of ``matrix``."""
    mu = Fraction(matrix.band[n][0], matrix.denominator)
    basis = tuple(Poly._from_ints(den, v) for den, v in _banded_kernel(matrix, mu, n))
    dim = len(basis)
    # n is the last zero diagonal entry, so only its basis vector reaches
    # degree n, with c_n = 1
    top = basis[-1]
    if top.degree != n:
        return EigenResult(n, mu, EigenStatus.NO_DEGREE_N, None, dim, basis)
    status = EigenStatus.UNIQUE_MONIC if dim == 1 else EigenStatus.DEGENERATE
    return EigenResult(n, mu, status, top, dim, basis)


def monic_eigenfunction(op: DiffOperator, n: int) -> EigenResult:
    """Monic eigenfunction of degree n for mu_n = M[n][n], or a diagnosis.

    When mu_n collides with no lower diagonal entry, banded triangular
    back-substitution yields the unique monic eigenfunction.  Otherwise the
    kernel of M - mu_n I decides between Degenerate (canonical monic
    representative, dimension >= 2), UniqueMonic with an incidental
    collision, and NoDegreeNEigenfunction.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _solve_degree(op.matrix(n), n)


def eigenspace_basis(op: DiffOperator, mu: RatLike, n: int) -> list[Poly]:
    """Basis of ker(M - mu I) inside P_n; empty when mu is not an eigenvalue."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [Poly._from_ints(den, v) for den, v in _banded_kernel(op.matrix(n), rat(mu), n)]


def eigentable(op: DiffOperator, n_max: int) -> list[EigenResult]:
    """One EigenResult per degree 0..n_max, all from one matrix on P_n_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    matrix = op.matrix(n_max)
    return [_solve_degree(matrix, n) for n in range(n_max + 1)]
