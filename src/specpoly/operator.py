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

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from ._record import Record
from .ratpoly import Poly, RatLike, rat

__all__ = [
    "DegreeViolation",
    "EmptyOperator",
    "DiffOperator",
    "OperatorMatrix",
    "Spectrum",
]


class DegreeViolation(ValueError):
    """Coefficient a_k has degree > k, so L would not preserve P_n."""

    def __init__(self, k: int, deg: int):
        super().__init__(f"coefficient of y^({k}) has degree {deg} > {k}")
        self.k = k
        self.deg = deg


class EmptyOperator(ValueError):
    """All coefficients are zero."""


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

            M[j-k+i][j] += a_{k,i} * j(j-1)...(j-k+1)

        and column j has entries only in rows j-N..j (N = order), the band that
        ``OperatorMatrix`` stores.  The matrix on P_n is the leading
        (n+1)x(n+1) block of the one on any larger P_m.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        d, order = lcm(*(a_k.den for a_k in self.coeffs)), self.order
        band = [[0] * (min(order, n - i) + 1) for i in range(n + 1)]
        ffs = [1] * (n + 1)  # j(j-1)...(j-k+1) by j: j times order k-1's at j-1
        for k, a_k in enumerate(self.coeffs):
            if k:
                ffs = [0] + [j * ffs[j - 1] for j in range(1, n + 1)]
            for i, a_ki in enumerate(a_k.nums):
                if a_ki:  # row j - k + i, k - i to the right of the diagonal
                    a_ki *= d // a_k.den
                    for j in range(k, n + 1):
                        band[j - k + i][k - i] += a_ki * ffs[j]
        g = gcd(d, *(v for row in band for v in row))  # D the lcm of the entries' denominators
        if g != 1:
            band = [[v // g for v in row] for row in band]
        # tuple(list) reuses CPython's freed small tuples; tuple(genexpr) hoards them
        return OperatorMatrix(n, d // g, tuple(tuple(row) for row in band))

    def spectrum(self, n: int) -> Spectrum:
        """Eigenvalues mu_0..mu_n: the diagonal of the matrix on P_n."""
        return Spectrum(self.matrix(n).diagonal)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"a": [p.to_strings() for p in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> DiffOperator:
        if not isinstance(data, dict) or "a" not in data:
            raise ValueError('operator JSON must be an object with key "a"')
        item, polys = data["a"], []  # item: what a refusal names
        try:
            for item in data["a"]:
                polys.append(Poly.from_strings(item))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"operator JSON: {item!r} is not a list of rationals ({exc})") from exc
        return cls(polys)


class OperatorMatrix(Record):
    """M on P_n as band[i][t] = D*M[i][i+t] for 0 <= t <= min(order, n-i), all
    other entries 0; D = ``denominator``, the lcm of the entries' denominators."""

    n: int
    denominator: int
    band: tuple[tuple[int, ...], ...]

    def entry(self, i: int, j: int) -> Fraction:
        row = self.band[i]
        return Fraction(row[j - i], self.denominator) if 0 <= j - i < len(row) else Fraction(0)

    @property
    def diagonal(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(row[0], self.denominator) for row in self.band)

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense (n+1)x(n+1) rows, built on first use; the solver reads only the band."""
        return tuple(tuple(self.entry(i, j) for j in range(self.n + 1)) for i in range(self.n + 1))

    def shifted_rows(self, mu: RatLike) -> list[list[Fraction]]:
        """Rows of M - mu*I as mutable lists, ready for elimination."""
        mu = rat(mu)
        rows = [list(row) for row in self.entries]
        for i, row in enumerate(rows):
            row[i] -= mu
        return rows


class Spectrum(Record):
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
