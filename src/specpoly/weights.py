"""Sturm-Liouville weights from the Pearson equation (pa)' = pb.

For a second-order operator a(x) y'' + b(x) y' the weight making it
formally self-adjoint satisfies (pa)' = pb, i.e.

    p = exp( integral (b - a') / a dx )

The integrand is a proper rational function with denominator a, so exact
partial fractions give p in closed form.  Supported leading coefficients:

    two distinct rational roots r1 < r2   p = |x-r1|^e1 |x-r2|^e2 with
                                          e_i = b(r_i)/a'(r_i) - 1,
                                          on (r1, r2)
    c*(x^2+1)                             p = (x^2+1)^e exp(h*arctan x) with
                                          e = (b1-2c)/(2c), h = b0/c, on R
    linear, root r                        p = |x-r|^(b(r)/a1 - 1) exp((b1/a1) x),
                                          half line starting at r
    nonzero constant c                    p = exp((b1/2c) x^2 + (b0/c) x), on R

The shape of a is the normal form families.bochner_normalize assigns it,
so the two modules cannot disagree on it.  A double root (the x^2 normal
form) is deliberately unsupported.  Irrational roots, and complex roots no
rational substitution maps onto x^2+1, are refused with bochner_normalize's
reason: there is no rational normal form to work in.  A quadratic that is
c*(x^2+1) only after a rational substitution, like (x-1)^2 + 1, is refused
too: normalize the operator first.

Weights are stored as symbolic factor collections with exact rational
exponents and are projectively meaningful only; the constant is fixed to 1.
All evaluation is restricted to the interior of the interval of definition,
where |x - r| factors have constant sign.

One walk over a weight's fields, _classify, gives its route (the shape
orthogonality integrates it on), the one rule that decides integrability,
(divisions, reach), and p's summed exponent E at each finite end, which the
moment form takes; orthogonality's router reads it once per Gram matrix,
Romanovski report or inner_product call.  A division (r, k) is a root r of p
in the interval's closure where E <= -1, with k = floor(-E): p f g is
integrable at r exactly when f g has the root r s >= k times, so that
E + s > -1.  The reach is the largest degree of f g that the infinite ends
admit: every degree on a finite interval or where e^E decays, none (-1) where
it grows, else the power law deg + (power exponent sum) + 2 quad_exp < -1; a
constant E neither decays nor grows.  The arctan factor is bounded and plays
no role.  Whether the boundary term p a (f' g - f g') of two eigenfunctions
vanishes, which orthogonality rests on, is decided where the pairs are: the
router judges it once per class pair, beside the pair's key, and reads the
eigenvalues off the operator's Pearson pair.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction

from ._record import Record
from .families import bochner_normalize
from .ratpoly import Poly, horner

__all__ = [
    "UnsupportedLeadingCoefficient",
    "PowerFactor",
    "Interval",
    "WeightExpr",
    "derive_weight",
    "pearson_check",
]

_ZERO = Fraction(0)  # the summed exponent at an end no factor is rooted at


class UnsupportedLeadingCoefficient(ValueError):
    """Leading coefficient outside the supported Pearson shapes."""


class PowerFactor(Record):
    """One factor |x - root|^exponent."""

    root: Fraction
    exponent: Fraction


class Interval(Record):
    """Open interval; None endpoint means unbounded on that side."""

    lo: Fraction | None
    hi: Fraction | None

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and not self.lo < self.hi:
            raise ValueError(f"empty interval ({self.lo}, {self.hi})")

    @property
    def finite(self) -> bool:
        return self.lo is not None and self.hi is not None

    def describe(self) -> str:
        lo = str(self.lo) if self.lo is not None else "-inf"
        hi = str(self.hi) if self.hi is not None else "+inf"
        return f"({lo}, {hi})"


class WeightExpr(Record):
    """Symbolic weight: constant * prod |x-r|^e * (x^2+1)^q * e^E(x) * e^(h*arctan x)."""

    constant: Fraction = Fraction(1)
    power_factors: tuple[PowerFactor, ...] = ()
    quad_exp: Fraction | None = None
    exp_poly: Poly = Poly()  # Poly is immutable: one shared default is safe
    arctan_coeff: Fraction = Fraction(0)
    interval: Interval = Interval(Fraction(-1), Fraction(1))

    def power_exponent_at(self, root: Fraction) -> Fraction:
        return sum(
            (pf.exponent for pf in self.power_factors if pf.root == root), Fraction(0)
        )

    def log_eval(
        self, x: float, d_lo: float | None = None, d_hi: float | None = None
    ) -> float:
        """log p(x) for x in the interval interior.

        ``d_lo``/``d_hi`` are accurate distances to the interval endpoints;
        when given, power factors rooted at an endpoint use them instead of
        the cancellation-prone x - root.  Can return -inf/+inf when a
        factor under/overflows or a distance is 0; callers pair this with
        quadrature weights that vanish fast enough.
        """
        out, powers, quad, exp_cs, arctan = self._float_form
        for e, r, at_lo, at_hi in powers:
            if at_lo and d_lo is not None:
                dist = d_lo
            elif at_hi and d_hi is not None:
                dist = d_hi
            else:
                dist = abs(x - r)
            out += e * (math.log(dist) if dist else -math.inf)
        if quad is not None:
            xsq = x * x
            log_quad = math.log1p(xsq) if math.isfinite(xsq) else 2.0 * math.log(abs(x))
            out += quad * log_quad
        if exp_cs is not None:
            out += horner(exp_cs, x)
        if arctan is not None:
            out += arctan * math.atan(x)
        return out

    @cached_property
    def _float_form(self) -> tuple:
        """log_eval's terms as floats: log(constant); (exponent, root, root is lo, root
        is hi) per nonzero-exponent factor; quad_exp, exp_poly, arctan_coeff (None if 0)."""
        lo, hi = self.interval.lo, self.interval.hi
        powers = tuple(
            (float(pf.exponent), float(pf.root), pf.root == lo, pf.root == hi)
            for pf in self.power_factors
            if pf.exponent
        )
        quad = float(self.quad_exp) if self.quad_exp else None
        arctan = float(self.arctan_coeff) if self.arctan_coeff else None
        exp_cs = tuple(map(float, self.exp_poly.coeffs)) or None
        return math.log(self.constant), powers, quad, exp_cs, arctan

    def pearson_pair(self) -> tuple[Poly, Poly]:
        """(a, b) with (p a)' = p b: a = prod (x - r) over the finite ends and the distinct
        roots of factors with a nonzero exponent, times x^2 + 1 with an (x^2+1) or arctan
        factor, and b = num + a', p'/p = num/a summed as num/a + g/f = (num f + g a)/(a f).
        Built once per weight: the same tuple on every call."""
        return self._pearson

    @cached_property
    def _pearson(self) -> tuple[Poly, Poly]:
        roots = {r for r in (self.interval.lo, self.interval.hi) if r is not None}
        roots.update(pf.root for pf in self.power_factors if pf.exponent)
        num, a = self.exp_poly.derivative(), Poly.one()
        for r in sorted(roots):
            linear = Poly((-r, 1))
            num, a = num * linear + a * self.power_exponent_at(r), a * linear
        if self.quad_exp is not None or self.arctan_coeff:
            quad = Poly((1, 0, 1))
            slope = Poly((self.arctan_coeff, 2 * (self.quad_exp or 0)))
            num, a = num * quad + slope * a, a * quad
        return a, num + a.derivative()

    def formula(self) -> str:
        parts: list[str] = []
        if self.constant != 1:
            parts.append(str(self.constant))
        for pf in self.power_factors:
            base = f"|x - {pf.root}|" if pf.root != 0 else "|x|"
            if pf.root < 0:
                base = f"|x + {-pf.root}|"
            parts.append(f"{base}^({pf.exponent})")
        if self.quad_exp is not None and self.quad_exp != 0:
            parts.append(f"(x^2+1)^({self.quad_exp})")
        if not self.exp_poly.is_zero():
            parts.append(f"exp({self.exp_poly.pretty()})")
        if self.arctan_coeff != 0:
            parts.append(f"exp({self.arctan_coeff}*arctan(x))")
        return " * ".join(parts) if parts else "1"

    def to_json(self) -> dict:
        return {
            "constant": str(self.constant),
            "power_factors": [
                {"root": str(pf.root), "exp": str(pf.exponent)}
                for pf in self.power_factors
            ],
            "quad_exp": str(self.quad_exp) if self.quad_exp is not None else None,
            "exp_poly": self.exp_poly.to_strings(),
            "arctan_coeff": str(self.arctan_coeff),
            "interval": self.interval.to_json(),
            "formula": self.formula(),
        }


def derive_weight(a: Poly, b: Poly) -> WeightExpr:
    """Solve (pa)' = pb for the weight, exactly.  The shape of a is
    families.bochner_normalize's normal form; see the module docstring for
    the supported ones."""
    if a.degree > 2:
        raise UnsupportedLeadingCoefficient("weight derivation requires deg(a) <= 2")
    try:
        norm = bochner_normalize(a)
    except ValueError as exc:
        raise UnsupportedLeadingCoefficient(str(exc)) from exc
    if b.degree > 1:
        raise ValueError("weight derivation requires deg(b) <= 1")
    s, t, c = norm.s, norm.t, norm.c
    if norm.normal_form == "x^2-1":  # roots t - s < t + s
        ends = (t - s, t + s)
        factors = tuple(PowerFactor(r, e) for r in ends if (e := _exponent(a, b, r)))
        return WeightExpr(power_factors=factors, interval=Interval(*ends))
    b1, b0 = b.coeff(1), b.coeff(0)
    if norm.normal_form == "x^2+1":
        if (s, t) != (1, 0):
            raise UnsupportedLeadingCoefficient(
                "complex-root quadratic is not c*(x^2+1); normalize first"
            )
        return WeightExpr(
            quad_exp=(b1 - 2 * c) / (2 * c),
            arctan_coeff=b0 / c,
            interval=Interval(None, None),
        )
    if norm.normal_form == "x^2":
        raise UnsupportedLeadingCoefficient(
            "double root (x^2 normal form): weight not developed for this shape"
        )
    if norm.normal_form == "x":  # root t, slope 1/s
        exponent = _exponent(a, b, t)
        factors = (PowerFactor(t, exponent),) if exponent != 0 else ()
        # pick the half line on which the exponential factor decays
        interval = Interval(None, t) if b1 * s > 0 else Interval(t, None)
        return WeightExpr(power_factors=factors, exp_poly=Poly((0, b1 * s)), interval=interval)
    return WeightExpr(
        exp_poly=Poly((0, b0 / c, b1 / (2 * c))), interval=Interval(None, None)
    )


def _exponent(a: Poly, b: Poly, r: Fraction) -> Fraction:
    """E_r = b(r)/a'(r) - 1, the exponent of the weight with (p a)' = p b at a simple root
    r of a, in ints: for r = p/q, q a.den a'(r) = a1 q + 2 a2 p and q b.den b(r) = b0 q + b1 p.
    An a of degree > 2 or a b of degree > 1 does not unpack."""
    _, a1, a2 = (*a.nums, *[0] * (3 - len(a.nums)))
    b0, b1 = (*b.nums, *[0] * (2 - len(b.nums)))
    p, q = r.numerator, r.denominator
    slope = (a1 * q + 2 * a2 * p) * b.den
    return Fraction((b0 * q + b1 * p) * a.den - slope, slope)


def _classify(weight: WeightExpr) -> tuple[str | None, tuple, float, tuple[Fraction, ...]]:
    """(route, divisions, reach, exponents) in one walk over the fields, the one place each
    is decided.  The route names a shape derive_weight builds (orthogonality's module
    docstring): "exact", a finite interval whose weight is its constant times |x - r|^E at
    the ends with integer E, and "finite" on any other; "romanovski" or "laguerre", the
    moment route; "gaussian", the sinh map; None, no route.  (divisions, reach) is the module
    docstring's rule; exponents, E at each finite end in interval order (() on R)."""
    iv, factors, exp_poly = weight.interval, weight.power_factors, weight.exp_poly
    quad = weight.quad_exp
    summed: dict[Fraction, Fraction] = {}  # root -> p's summed exponent there, in one pass
    for pf in factors:
        summed[pf.root] = summed[pf.root] + pf.exponent if pf.root in summed else pf.exponent
    divisions = tuple(
        (r, math.floor(-e))
        for r, e in sorted(summed.items())
        if e <= -1 and (iv.lo is None or iv.lo <= r) and (iv.hi is None or r <= iv.hi)
    )
    exponents = tuple([summed.get(r, _ZERO) for r in (iv.lo, iv.hi) if r is not None])
    if iv.finite:
        polynomial = not (exp_poly or weight.arctan_coeff or quad) and all(
            pf.root in (iv.lo, iv.hi) and pf.exponent.denominator == 1
            for pf in factors if pf.exponent
        )
        return "exact" if polynomial else "finite", divisions, math.inf, exponents
    if iv.lo is None and iv.hi is None:
        if quad is not None and not factors and not exp_poly:
            route = "romanovski"
        else:
            route = "gaussian" if exp_poly.degree == 2 and exp_poly.leading() < 0 else None
    else:
        anchor = iv.lo if iv.hi is None else iv.hi
        plain = not (quad or weight.arctan_coeff) and exp_poly.degree == 1
        route = "laguerre" if plain and all(pf.root == anchor for pf in factors) else None
    if exp_poly.degree > 0:  # e^E decays or grows at an infinite end; a constant does neither
        grows = any(end is None and exp_poly.leading() * sign**exp_poly.degree > 0
                    for end, sign in ((iv.lo, -1), (iv.hi, 1)))
        return route, divisions, -1 if grows else math.inf, exponents
    power = sum(summed.values()) + 2 * (quad or 0)
    return route, divisions, max(math.ceil(-1 - power) - 1, -1), exponents  # deg + power < -1


# ---------------------------------------------------------------------------
# verdicts


def pearson_check(weight: WeightExpr, a: Poly, b: Poly) -> bool:
    """Whether (pa)' = pb holds for the symbolic weight, decided exactly.

    The identity divided by p is a p'/p + a' - b = 0.  With the weight's own
    pair (A, B), p'/p = (B - A')/A, so clearing A gives an exact polynomial
    identity.
    """
    pa, pb = weight.pearson_pair()
    return (a * (pb - pa.derivative()) + (a.derivative() - b) * pa).is_zero()
