"""Exact polynomial eigenfunctions via triangular back-substitution.

The matrix of a valid operator on P_n is upper triangular, so the monic
eigenfunction of degree n solves (M - mu_n I)c = 0 with c_n = 1 by plain
back-substitution whenever no lower diagonal entry collides with mu_n.
When collisions occur the triangular shortcut is unreliable (a later row's
consistency can hinge on how earlier free coordinates were chosen), so we
fall back to the exact kernel of M - mu_n I:

  * the kernel contains a vector with nonzero top coordinate iff column n
    is free in reduced row echelon form (a pivot in the last column would
    read c_n = 0), and then the standard basis vector for that free column
    is the canonical representative: c_n = 1, all other free coords 0;
  * kernel dimension >= 2 means a genuinely degenerate eigenspace;
  * no such vector means there is no eigenfunction of exact degree n even
    though mu_n sits on the diagonal.

``eigentable`` builds one matrix for n_max and solves each degree n on its
leading (n+1)x(n+1) block, which is exactly the matrix on P_n.  Since
deg(a_k) <= k, row i has entries only in columns i..i+N (N = order), so
back-substitution sums over that band: O(n*N) per degree.  ``rref_kernel``
(rational Gauss-Jordan that touches only the nonzero entries of each pivot
row) is the library's only elimination; the independent fraction-free
Bareiss cross-check lives with the tests (``tests/oracles.py``).

Everything is Fraction arithmetic; no floating point enters this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .operator import DiffOperator, OperatorMatrix
from .ratpoly import Poly, RatLike, rat

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


@dataclass(frozen=True)
class EigenResult:
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
    column index.
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


def _solve_degree(matrix: OperatorMatrix, n: int, band: int) -> EigenResult:
    """The degree-n eigenproblem on the leading (n+1)x(n+1) block of
    ``matrix``; row i has entries only in columns i..i+band."""
    entries = matrix.entries
    mu = entries[n][n]
    if all(entries[i][i] != mu for i in range(n)):
        c = [Fraction(0)] * (n + 1)
        c[n] = Fraction(1)
        for i in range(n - 1, -1, -1):
            row = entries[i]
            band_end = min(i + band, n) + 1
            acc = sum((row[j] * c[j] for j in range(i + 1, band_end) if row[j]), Fraction(0))
            c[i] = -acc / (row[i] - mu)
        monic = Poly(c)
        return EigenResult(n, mu, EigenStatus.UNIQUE_MONIC, monic, 1, (monic,))

    kernel = rref_kernel(matrix.shifted_rows(mu, n))
    basis = tuple(Poly(v) for v in kernel)
    dim = len(kernel)
    top = [v for v in kernel if v[n] != 0]
    if not top:
        return EigenResult(n, mu, EigenStatus.NO_DEGREE_N, None, dim, basis)
    # standard kernel basis: the unique vector supported on free column n
    monic = Poly(top[0]).monic()
    status = EigenStatus.UNIQUE_MONIC if dim == 1 else EigenStatus.DEGENERATE
    return EigenResult(n, mu, status, monic, dim, basis)


def monic_eigenfunction(op: DiffOperator, n: int) -> EigenResult:
    """Monic eigenfunction of degree n for mu_n = M[n][n], or a diagnosis.

    Fast path: when mu_n collides with no lower diagonal entry, banded
    triangular back-substitution yields the unique monic eigenfunction.
    Otherwise the kernel of M - mu_n I decides between Degenerate (canonical
    monic representative, dimension >= 2), UniqueMonic with an incidental
    collision, and NoDegreeNEigenfunction.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _solve_degree(op.matrix(n), n, op.order)


def eigenspace_basis(op: DiffOperator, mu: RatLike, n: int) -> list[Poly]:
    """Basis of ker(M - mu I) inside P_n; empty when mu is not an eigenvalue."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rows = op.matrix(n).shifted_rows(rat(mu))
    return [Poly(v) for v in rref_kernel(rows)]


def eigentable(op: DiffOperator, n_max: int) -> list[EigenResult]:
    """One EigenResult per degree 0..n_max, all from one matrix on P_n_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    matrix = op.matrix(n_max)
    return [_solve_degree(matrix, n, op.order) for n in range(n_max + 1)]
