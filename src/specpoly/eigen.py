"""Exact polynomial eigenfunctions via banded back-substitution.

The matrix of a valid operator on P_n is upper triangular, and since
deg(a_k) <= k row i has entries only in columns i..i+N (N = order).  For
U = M - mu I let Z be the indices z with U[z][z] = 0, ascending; for
mu = mu_n without a collision Z is just [n].  Each z in Z gives a vector
v^(z): c_z = 1, 0 above z and at the rest of Z, and back-substitution over
the band solves each row below z that has a nonzero diagonal.  A row in Z
cannot be solved and records its residual instead.  v^(z) depends on z and
mu = M[z][z] alone, so one loop, run on 0..n_max by ``eigentable`` and on Z
alone by a single-degree query, back-substitutes each degree once and keeps
v^(z) while M[z][z] repeats higher up: a collision reuses it.

In the condition matrix (a row per row of Z, a column of residuals per z)
a zero column is free, and its basis vector lifts to v^(z) itself; a lone
nonzero column is a pivot.  Two or more nonzero columns go to
``rref_kernel``, whose kernel vectors t lift to sum_z t_z v^(z), of degree
the highest z with t_z != 0.  So the free columns and the standard kernel
basis (1 at its own free column, 0 at the others) are those that
Gauss-Jordan on all of U would give.  For mu = mu_n:

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
v^(z) leaves as integer numerators over q_0, a canonical ``Poly`` with no gcd,
and a lift sums those; no coefficient Fraction and no float is built.  The
Bareiss cross-check lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, prod

from ._record import Record
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


class EigenResult(Record):
    """Outcome of the degree-n eigenfunction search: ``basis`` spans the eigenspace
    of ``eigenvalue`` in P_n, by degree, and fixes the rest.  ``monic`` is its last
    vector where that has degree n (the unique monic eigenfunction, or the canonical
    representative with free coordinates zeroed), else None; ``status`` is then
    NoDegreeNEigenfunction, else UniqueMonic for one vector and Degenerate for more.
    """

    degree: int
    eigenvalue: Fraction
    basis: tuple[Poly, ...]

    @property
    def monic(self) -> Poly | None:
        top = self.basis[-1]
        return top if top.degree == self.degree else None

    @property
    def status(self) -> EigenStatus:
        if self.monic is None:
            return EigenStatus.NO_DEGREE_N
        return EigenStatus.UNIQUE_MONIC if len(self.basis) == 1 else EigenStatus.DEGENERATE

    @property
    def eigenspace_dim(self) -> int:
        return len(self.basis)

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
    column index.  The eigensolver calls it only on the nonzero columns of
    a collision's condition matrix, when there are two or more.
    """
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivot_cols: list[int] = []
    for c in range(ncols):
        r = len(pivot_cols)
        pivot_row = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot, pv = work[r], work[r][c]
        # zero entries of the pivot row change nothing: skip them
        nonzero = [j for j, v in enumerate(pivot) if v != 0]
        for j in nonzero:
            pivot[j] = pivot[j] / pv
        for i, row in enumerate(work):
            if i != r and row[c] != 0:
                f = row[c]
                for j in nonzero:
                    row[j] = row[j] - f * pivot[j]
        pivot_cols.append(c)
    basis: list[list[Fraction]] = []
    for fc in (c for c in range(ncols) if c not in pivot_cols):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pr, pc in enumerate(pivot_cols):
            v[pc] = -work[pr][fc]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# eigenfunction recovery

Column = tuple[Poly, dict[int, Fraction]]  # v^(z) and its nonzero residuals by row


def _back_substitute(rows: Sequence[Sequence[int]], shift: int, z: int) -> Column:
    """v^(z) of U = D (M - mu I) for the integer band ``rows`` = D M and
    shift = D mu = rows[z][0], with its nonzero residuals at the rows below z
    whose diagonal is zero.

    Runs with v^(z)_j = c_j / q_j, q_j = f_j q_(j+1) and q_z = 1.  Row i takes
    s = q_(i+1) sum_t D M_i,i+t v_(i+t), whose term t carries c_(i+t) f_(i+1)
    ... f_(i+t-1); a pivot d sets g = gcd(s, d), c_i = -s/g (s/g when d < 0)
    and f_i = |d|/g, and changes no filled c_j.  A residual Fraction(s,
    q_(i+1)) is D times the true one in every row, which leaves the kernel
    alone.  v^(z) leaves over q_0 = f_0 ... f_(z-1), as c_j f_0 ... f_(j-1), a
    form canonical as it stands: each row has gcd(c_i, f_i) = 1, and f_i = 1
    where c_i = 0.  A prime p | q_0 has a first k with p | f_k, and divides
    neither c_k nor f_0 ... f_(k-1): not the numerator at k.  The one at z is q_0 > 0."""
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
        d = row[0] - shift
        if not d:
            if s:
                res[i] = Fraction(s, prod(f[i + 1 : z]))
            continue
        g = gcd(s, d)
        c[i] = -s // g if d > 0 else s // g
        f[i] = abs(d) // g
    nums, q = [], 1
    for c_j, f_j in zip(c, f[:z]):
        nums.append(c_j * q)
        q *= f_j
    return Poly._canonical(q, (*nums, q)), res


def _kernel(columns: Sequence[Column]) -> list[Poly]:
    """Standard kernel basis, by degree, from the columns of Z in order."""
    basis = [v for v, res in columns if not res]  # zero columns: free, each its own v^(z)
    live = [k for k, (_, res) in enumerate(columns) if res]
    if len(live) < 2:  # none, or a lone nonzero column: a pivot
        return basis
    rows = sorted({i for k in live for i in columns[k][1]})
    conditions = [[columns[k][1].get(i, Fraction(0)) for k in live] for i in rows]
    for ts in rref_kernel(conditions):
        basis.append(sum((t * columns[k][0] for t, k in zip(ts, live) if t), Poly()))
    return sorted(basis, key=lambda v: v.degree)


def _table(matrix: OperatorMatrix, degrees: Sequence[int]) -> list[EigenResult]:
    """One EigenResult per degree in the ascending ``degrees``, one back-substitution
    per degree; a degree collides only with the listed lower degrees, and one that no
    lower degree collides with has v^(z) alone as its basis, with no kernel read."""
    rows = matrix.band
    last = {rows[z][0]: z for z in degrees}
    lower: dict[int, list[Column]] = {}  # columns by D M[z][z], while it repeats higher up
    table = []
    for z in degrees:
        shift = rows[z][0]
        mu, column = Fraction(shift, matrix.denominator), _back_substitute(rows, shift, z)
        columns = lower.pop(shift, None)
        if columns is None:  # no lower degree collides: v^(z) is the unique monic eigenfunction
            columns = [column]
            table.append(EigenResult(z, mu, (column[0],)))
        else:
            columns.append(column)
            table.append(EigenResult(z, mu, tuple(_kernel(columns))))
        if last[shift] > z:
            lower[shift] = columns
    return table


def monic_eigenfunction(op: DiffOperator, n: int) -> EigenResult:
    """Monic eigenfunction of degree n for mu_n = M[n][n], or a diagnosis.

    When mu_n collides with no lower diagonal entry, banded triangular
    back-substitution yields the unique monic eigenfunction.  Otherwise the
    kernel of M - mu_n I decides between Degenerate (canonical monic
    representative, dimension >= 2), UniqueMonic with an incidental
    collision, and NoDegreeNEigenfunction.
    """
    matrix = op.matrix(n)
    rows = matrix.band
    return _table(matrix, [z for z in range(n + 1) if rows[z][0] == rows[n][0]])[-1]


def eigenspace_basis(op: DiffOperator, mu: RatLike, n: int) -> list[Poly]:
    """Basis of ker(M - mu I) inside P_n; empty when mu is not an eigenvalue."""
    matrix = op.matrix(n)
    shift, rows = rat(mu) * matrix.denominator, matrix.band  # no int equals a non-integer shift
    degrees = [z for z in range(n + 1) if rows[z][0] == shift]
    return list(_table(matrix, degrees)[-1].basis) if degrees else []


def eigentable(op: DiffOperator, n_max: int) -> list[EigenResult]:
    """One EigenResult per degree 0..n_max from one matrix on P_n_max."""
    return _table(op.matrix(n_max), range(n_max + 1))
