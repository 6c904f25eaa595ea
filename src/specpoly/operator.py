"""Differential operators L(y) = sum_k a_k(x) y^(k) with deg(a_k) <= k.

The degree bound is what makes everything work: such an operator maps the
space P_n of polynomials of degree at most n into itself, its matrix in the
monomial basis is upper triangular, and the diagonal entry in column j is

    mu_j = sum_k a_{k,k} * j(j-1)...(j-k+1)

where a_{k,k} is the x^k coefficient of a_k.  Those diagonal entries are
the operator's eigenvalues on P_n.

Eigenvalues here are always eigenvalues of L itself (L y = mu y).  The ODE
convention L(y) + lambda y = 0 flips the sign; consumers that print results
surface both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .ratpoly import Poly, RatLike, common_denominator, rat

__all__ = [
    "DegreeViolation",
    "EmptyOperator",
    "DiffOperator",
    "OperatorMatrix",
    "Spectrum",
    "falling_factorial",
]


class DegreeViolation(ValueError):
    """Coefficient a_k has degree > k, so L would not preserve P_n."""

    def __init__(self, k: int, deg: int):
        super().__init__(f"coefficient of y^({k}) has degree {deg} > {k}")
        self.k = k
        self.deg = deg


class EmptyOperator(ValueError):
    """All coefficients are zero."""


def falling_factorial(j: int, k: int) -> int:
    """j(j-1)...(j-k+1); equals 1 for k = 0 and 0 for k > j."""
    if j < 0 or k < 0:
        raise ValueError("falling factorial arguments must be >= 0")
    out = 1
    for i in range(k):
        out *= j - i
    return out


class DiffOperator:
    """Validated operator; ``coeffs[k]`` multiplies the k-th derivative."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Poly, ...]

    def __init__(self, coeffs: Iterable[Poly | Sequence[RatLike]]):
        polys = [c if isinstance(c, Poly) else Poly(c) for c in coeffs]
        while polys and polys[-1].is_zero():
            polys.pop()
        if not polys:
            raise EmptyOperator("operator has no nonzero coefficients")
        for k, a_k in enumerate(polys):
            if a_k.degree > k:
                raise DegreeViolation(k, int(a_k.degree))
        object.__setattr__(self, "coeffs", tuple(polys))

    def __setattr__(self, name, value):
        raise AttributeError("DiffOperator is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DiffOperator) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        terms = ", ".join(f"a{k}={p.pretty()}" for k, p in enumerate(self.coeffs))
        return f"DiffOperator({terms})"

    # -- action on polynomials ------------------------------------------------

    def apply(self, p: Poly) -> Poly:
        """Exact L(p) = sum_k a_k * p^(k)."""
        out = Poly()
        deriv = p
        for k, a_k in enumerate(self.coeffs):
            if k > 0:
                deriv = deriv.derivative()
            if not a_k.is_zero() and not deriv.is_zero():
                out = out + a_k * deriv
        return out

    def matrix(self, n: int) -> OperatorMatrix:
        """Matrix of L on P_n in the monomial basis; column j is L(x^j).

        Built from the closed form rather than by applying L: a_k x^i times
        the k-th derivative of x^j is a_{k,i} j(j-1)...(j-k+1) x^(j-k+i), so

            M[j-k+i][j] += a_{k,i} * falling_factorial(j, k)

        and column j has entries only in rows j-N..j (N = order).  The matrix
        on P_n is the leading (n+1)x(n+1) block of the one on any larger P_m.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        rows = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
        for k, a_k in enumerate(self.coeffs):
            for j in range(k, n + 1):
                ff = falling_factorial(j, k)
                for i, a_ki in enumerate(a_k.coeffs):
                    rows[j - k + i][j] += a_ki * ff
        return OperatorMatrix(n=n, entries=tuple(tuple(r) for r in rows))

    def spectrum(self, n: int) -> Spectrum:
        """Eigenvalues mu_0..mu_n from the closed-form diagonal formula."""
        if n < 0:
            raise ValueError("n must be >= 0")
        diag_coeffs = [a_k.coeff(k) for k, a_k in enumerate(self.coeffs)]
        values = tuple(
            sum(
                (c * falling_factorial(j, k) for k, c in enumerate(diag_coeffs)),
                Fraction(0),
            )
            for j in range(n + 1)
        )
        return Spectrum(values=values)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"a": [p.to_strings() for p in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> DiffOperator:
        if not isinstance(data, dict) or "a" not in data:
            raise ValueError('operator JSON must be an object with key "a"')
        return cls([Poly.from_strings(item) for item in data["a"]])


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense (n+1)x(n+1) matrix of L on P_n; upper triangular by construction."""

    n: int
    entries: tuple[tuple[Fraction, ...], ...]

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    @property
    def diagonal(self) -> tuple[Fraction, ...]:
        return tuple(self.entries[i][i] for i in range(self.n + 1))

    @cached_property
    def cleared(self) -> tuple[int, list[list[int]]]:
        """(D, rows of D*M as integers), D the lcm of every entry's denominator."""
        d, flat = common_denominator(v for row in self.entries for v in row)
        return d, [flat[i : i + self.n + 1] for i in range(0, len(flat), self.n + 1)]

    def shifted_rows(self, mu: RatLike) -> list[list[Fraction]]:
        """Rows of M - mu*I as mutable lists, ready for elimination."""
        mu = rat(mu)
        rows = [list(row) for row in self.entries]
        for i, row in enumerate(rows):
            row[i] -= mu
        return rows


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues by degree plus the collision structure."""

    values: tuple[Fraction, ...]

    @property
    def multiplicity(self) -> dict[Fraction, tuple[int, ...]]:
        out: dict[Fraction, list[int]] = {}
        for j, mu in enumerate(self.values):
            out.setdefault(mu, []).append(j)
        return {mu: tuple(js) for mu, js in out.items()}

    @property
    def distinct(self) -> bool:
        return len(set(self.values)) == len(self.values)

    def degrees_for(self, mu: RatLike) -> tuple[int, ...]:
        mu = rat(mu)
        return tuple(j for j, v in enumerate(self.values) if v == mu)
