"""Dense univariate polynomials over exact rationals.

A polynomial is stored as integer numerators over one common denominator,
as FLINT's ``fmpq_poly`` stores it (W. Hart, *FLINT: Fast Library for Number
Theory*): ``den`` is an int > 0 and ``nums`` a tuple of ints in ascending
degree order, with no trailing zero and ``gcd(den, *nums) == 1``, so ``den``
is the lcm of the coefficients' denominators.  ``1 - x^2/3`` is ``den = 3,
nums = (3, 0, -1)``.  The zero polynomial is ``den = 1, nums = ()`` and its
degree is ``-inf`` (never a finite number, so ``p.degree <= k`` style checks
behave sensibly).  The form is canonical, so equal values always have equal
representations, and arithmetic runs on ints with one gcd per result.

``coeffs`` is the same polynomial as a tuple of reduced ``fractions.Fraction``
coefficients: the ones a ``Poly`` was built from, or built from the integer
form on first read.  Scalars are plain ``Fraction`` everywhere: always
reduced, positive denominator, value equality for free.  The string forms
``"p/q"`` and ``"p"`` used in JSON output are exactly what ``str(Fraction)``
produces.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

__all__ = [
    "Poly",
    "RatLike",
    "rat",
    "MINUS_INF",
]

RatLike = Union[Fraction, int, str]

MINUS_INF = float("-inf")

_set = object.__setattr__  # Poly.__setattr__ refuses every assignment


def rat(value: RatLike) -> Fraction:
    """Coerce an int, "p/q" string, or Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


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


def _divide_linear(nums: Sequence[int], p: int, q: int) -> list[int] | None:
    """The integer quotient of sum nums[i] x^i by the primitive q x - p, or None when
    q x - p does not divide it.  By Gauss's lemma a quotient over the rationals is
    then one over the integers, so a division by q that leaves a remainder ends it."""
    quot = [0] * (len(nums) - 1)
    acc = 0
    for i in range(len(nums) - 1, 0, -1):  # the x^i coefficient: q Q_(i-1) - p Q_i = N_i
        acc, rem = divmod(nums[i] + p * acc, q)
        if rem:
            return None
        quot[i - 1] = acc
    return quot if nums[0] + p * acc == 0 else None


def _strip_linear(nums: Sequence[int], p: int, q: int, limit: int) -> tuple[Sequence[int], int]:
    """(numerators, k) with k <= limit divisions of the nonzero sum nums[i] x^i by the
    primitive q x - p, as many as go, and the quotient times q^k, whose sum over the same
    denominator is the polynomial divided by (x - p/q)^k."""
    k = 0
    while k < limit and (quot := _divide_linear(nums, p, q)) is not None:
        nums, k = quot, k + 1
    return ([v * q**k for v in nums] if k and q != 1 else nums), k


class Poly:
    """Immutable dense polynomial: integer numerators over one denominator."""

    __slots__ = ("den", "nums", "_coeffs")

    den: int
    nums: tuple[int, ...]

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [c if type(c) is Fraction else rat(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # the lcm of reduced denominators leaves the numerators no common factor with it
        den = lcm(*(c.denominator for c in cs))
        _set(self, "den", den)
        _set(self, "nums", tuple([c.numerator * (den // c.denominator) for c in cs]))
        _set(self, "_coeffs", tuple(cs))

    @classmethod
    def _from_ints(cls, den: int, nums: Iterable[int]) -> Poly:
        """sum nums[i] x^i / den for an int den > 0, brought to the canonical form."""
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [v // g for v in nums]
        return cls._canonical(den, tuple(nums))

    @classmethod
    def _canonical(cls, den: int, nums: tuple[int, ...]) -> Poly:
        """sum nums[i] x^i / den for a den and nums already in the canonical form."""
        p = object.__new__(cls)
        _set(p, "den", den)
        _set(p, "nums", nums)
        _set(p, "_coeffs", None)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced Fractions, ascending degree; built once."""
        cs = self._coeffs
        if cs is None:
            den = self.den
            cs = tuple([Fraction(v, den) for v in self.nums])
            _set(self, "_coeffs", cs)
        return cs

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
        return len(self.nums) - 1 if self.nums else MINUS_INF

    def is_zero(self) -> bool:
        return not self.nums

    def leading(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x^k (zero beyond the stored degree)."""
        return Fraction(self.nums[k], self.den) if 0 <= k < len(self.nums) else Fraction(0)

    def monic(self) -> Poly:
        lead = self.leading()
        return self if lead == 1 else self * (1 / lead)

    # -- ring arithmetic -------------------------------------------------

    def __add__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        a, b, den = self.nums, other.nums, self.den
        if den != other.den:
            den = lcm(den, other.den)
            a = [v * (den // self.den) for v in a]
            b = [v * (den // other.den) for v in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._from_ints(den, out)

    def __sub__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> Poly:
        return Poly._from_ints(self.den, [-v for v in self.nums])

    def __mul__(self, other: Poly | RatLike) -> Poly:
        if isinstance(other, Poly):
            a, b = self.nums, other.nums
            if not a or not b:
                return Poly()
            out = [0] * (len(a) + len(b) - 1)
            for i, u in enumerate(a):
                if u:
                    for j, v in enumerate(b, i):
                        out[j] += u * v
            return Poly._from_ints(self.den * other.den, out)
        c = rat(other)
        return Poly._from_ints(self.den * c.denominator, [v * c.numerator for v in self.nums])

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
        return isinstance(other, Poly) and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.den, self.nums))

    def __bool__(self) -> bool:
        return bool(self.nums)

    # -- calculus ----------------------------------------------------------

    def derivative(self, k: int = 1) -> Poly:
        """Exact k-th derivative; k = 0 returns self."""
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        p = self
        for _ in range(k):
            if not p.nums:
                return p
            p = Poly._from_ints(p.den, [i * v for i, v in enumerate(p.nums) if i])
        return p

    def antiderivative(self) -> Poly:
        """Antiderivative with zero constant term."""
        m = lcm(*range(1, len(self.nums) + 1))
        return Poly._from_ints(self.den * m, [0] + [v * (m // i) for i, v in enumerate(self.nums, 1)])

    def definite_integral(self, lo: RatLike, hi: RatLike) -> Fraction:
        """Exact integral over [lo, hi] via the antiderivative."""
        lo, hi = rat(lo), rat(hi)
        if lo > hi:
            raise ValueError(f"integration bounds out of order: {lo} > {hi}")
        anti = self.antiderivative()
        return anti(hi) - anti(lo)

    # -- evaluation and substitution ----------------------------------------

    def __call__(self, x: RatLike) -> Fraction:
        """Exact evaluation at x = p/q: Horner on sum nums[i] p^i q^(deg-i), one Fraction."""
        x = rat(x)
        if not self.nums:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        acc, scale = self.nums[-1], 1
        for v in self.nums[-2::-1]:
            scale *= q
            acc = acc * p + v * scale
        return Fraction(acc, self.den * scale)

    def eval_float(self, x: float) -> float:
        """Double-precision Horner evaluation."""
        return horner([v / self.den for v in self.nums], x)

    def affine_sub(self, s: RatLike, t: RatLike) -> Poly:
        """Return q with q(u) = p(s*u + t), computed exactly.  Requires s != 0."""
        s, t = rat(s), rat(t)
        if s == 0:
            raise ValueError("affine substitution requires a nonzero scale")
        arg = Poly((t, s))
        # Horner in the polynomial ring, on the numerators
        acc = Poly()
        for v in reversed(self.nums):
            acc = acc * arg + Poly._from_ints(1, (v,))
        return acc * Fraction(1, self.den)

    def strip_root(self, root: RatLike, limit: int) -> tuple[Poly, int]:
        """(q, k) with self = (x - root)^k q and k <= limit as large as possible.

        With root = p/r in lowest terms, each factor tried is one exact integer
        division of the numerators by r x - p, which fails on a remainder; k of
        them leave q = r^k (quotient) / den.  The zero polynomial is divisible
        any number of times: (0, limit).
        """
        root = rat(root)
        if not self.nums:
            return self, limit
        nums, k = _strip_linear(self.nums, root.numerator, root.denominator, limit)
        return (Poly._from_ints(self.den, nums), k) if k else (self, 0)

    # -- display ------------------------------------------------------------

    def pretty(self, var: str = "x") -> str:
        """Human-readable form, highest degree first, e.g. 'x^2 - 1/3'."""
        if not self.nums:
            return "0"
        parts: list[str] = []
        cs = self.coeffs
        for k in range(len(cs) - 1, -1, -1):
            c = cs[k]
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
