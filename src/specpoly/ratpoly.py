"""Dense univariate polynomials over exact rationals.

A polynomial is a tuple of ``fractions.Fraction`` coefficients in ascending
degree order: ``(1, 0, Fraction(-1, 3))`` is ``1 - x^2/3``.  The zero
polynomial is the empty tuple and its degree is ``-inf`` (never a finite
number, so ``p.degree <= k`` style checks behave sensibly).  Trailing zero
coefficients are stripped on construction, so equal values always have
equal representations.

Scalars are plain ``Fraction`` everywhere: always reduced, positive
denominator, value equality for free.  The string forms ``"p/q"`` and
``"p"`` used in JSON output are exactly what ``str(Fraction)`` produces.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Sequence, Union

__all__ = [
    "Poly",
    "RatLike",
    "rat",
    "rational_sqrt",
    "MINUS_INF",
    "ExactDivisionError",
]

RatLike = Union[Fraction, int, str]

MINUS_INF = float("-inf")


def rat(value: RatLike) -> Fraction:
    """Coerce an int, "p/q" string, or Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    num = isqrt(q.numerator)
    den = isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def common_denominator(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """(d, [v*d for v in values]) with d the lcm of the denominators."""
    values = list(values)
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def horner(coeffs: Sequence[float], x: float) -> float:
    """Double-precision Horner evaluation of ascending float coefficients."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _synthetic_division(
    coeffs: Sequence[Fraction], root: Fraction
) -> tuple[list[Fraction], Fraction]:
    """(quotient, remainder) of the nonzero ascending coeffs by (x - root)."""
    quot = [Fraction(0)] * (len(coeffs) - 1)
    acc = Fraction(0)
    for i in range(len(coeffs) - 1, 0, -1):
        acc = acc * root + coeffs[i]
        quot[i - 1] = acc
    return quot, acc * root + coeffs[0]


class ExactDivisionError(ArithmeticError):
    """Division that was required to be exact left a nonzero remainder."""

    def __init__(self, message: str, remainder: Fraction):
        super().__init__(message)
        self.remainder = remainder


class Poly:
    """Immutable dense polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> Poly:
        return cls(())

    @classmethod
    def one(cls) -> Poly:
        return cls((1,))

    @classmethod
    def x(cls) -> Poly:
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int, c: RatLike = 1) -> Poly:
        """c * x^k"""
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls((0,) * k + (rat(c),))

    @classmethod
    def from_strings(cls, items: Sequence[str]) -> Poly:
        """Parse the serialized form: coefficient strings, ascending degree."""
        return cls(Fraction(s) for s in items)

    def to_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    # -- structure -----------------------------------------------------

    @property
    def degree(self) -> int | float:
        """Degree, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x^k (zero beyond the stored degree)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def monic(self) -> Poly:
        lead = self.leading()
        return self if lead == 1 else self * (1 / lead)

    # -- ring arithmetic -------------------------------------------------

    def __add__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> Poly:
        return Poly(-c for c in self.coeffs)

    def __mul__(self, other: Poly | RatLike) -> Poly:
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        c = rat(other)
        return Poly(a * c for a in self.coeffs)

    def __rmul__(self, other: RatLike) -> Poly:
        return self.__mul__(other)

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- calculus ----------------------------------------------------------

    def derivative(self, k: int = 1) -> Poly:
        """Exact k-th derivative; k = 0 returns self."""
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        p = self
        for _ in range(k):
            if not p.coeffs:
                return p
            p = Poly(i * c for i, c in enumerate(p.coeffs) if i > 0)
        return p

    def antiderivative(self) -> Poly:
        """Antiderivative with zero constant term."""
        return Poly([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def definite_integral(self, lo: RatLike, hi: RatLike) -> Fraction:
        """Exact integral over [lo, hi] via the antiderivative."""
        lo, hi = rat(lo), rat(hi)
        if lo > hi:
            raise ValueError(f"integration bounds out of order: {lo} > {hi}")
        anti = self.antiderivative()
        return anti(hi) - anti(lo)

    # -- evaluation and substitution ----------------------------------------

    def __call__(self, x: RatLike) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_float(self, x: float) -> float:
        """Double-precision Horner evaluation."""
        return horner([float(c) for c in self.coeffs], x)

    def affine_sub(self, s: RatLike, t: RatLike) -> Poly:
        """Return q with q(u) = p(s*u + t), computed exactly.  Requires s != 0."""
        s, t = rat(s), rat(t)
        if s == 0:
            raise ValueError("affine substitution requires a nonzero scale")
        arg = Poly((t, s))
        # Horner in the polynomial ring
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * arg + Poly((c,))
        return acc

    def divide_linear(self, root: RatLike) -> Poly:
        """Synthetic division by (x - root); the division must be exact.

        Raises ExactDivisionError (carrying the remainder p(root)) when
        root is not actually a root.
        """
        root = rat(root)
        if not self.coeffs:
            return Poly()
        quot, remainder = _synthetic_division(self.coeffs, root)
        if remainder != 0:
            raise ExactDivisionError(
                f"{self} is not divisible by (x - {root}): remainder {remainder}",
                remainder,
            )
        return Poly(quot)

    def strip_root(self, root: RatLike, limit: int) -> tuple[Poly, int]:
        """(q, k) with self = (x - root)^k q and k <= limit as large as possible.

        One synthetic division per factor tried; its remainder is the test.
        The zero polynomial is divisible any number of times: (0, limit).
        """
        root = rat(root)
        if not self.coeffs:
            return self, limit
        coeffs, k = self.coeffs, 0
        while k < limit:
            quot, remainder = _synthetic_division(coeffs, root)
            if remainder != 0:
                break
            coeffs, k = quot, k + 1
        return (Poly(coeffs) if k else self), k

    # -- display ------------------------------------------------------------

    def pretty(self, var: str = "x") -> str:
        """Human-readable form, highest degree first, e.g. 'x^2 - 1/3'."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                xpow = var if k == 1 else f"{var}^{k}"
                term = xpow if mag == 1 else f"{mag}*{xpow}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"{sign} {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.pretty()})"
