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

The integrability and boundary-term verdicts read the same facts per
endpoint of p * P for a polynomial P: at a finite point r, the exponent of
|x - r| (p's power exponent plus r's multiplicity as a root of P); at an
infinite end, whether e^E decays or grows there, or, when E = 0, the
asymptotic power deg P + (power exponent sum) + 2 quad_exp.  Integrability
knows only the degree of P and asks for exponents above -1 at the roots of
p and, at an infinite end, decay or a power below -1; the boundary term
p*a*(u v' - u' v) asks for a positive exponent of p*a at each finite
endpoint (or zero with u and v vanishing there) and, at an infinite end,
decay or a negative power.  moment_reach reads the facts of p alone once and
answers integrability for every degree: the last k with p x^k integrable.
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
    "integrability",
    "moment_reach",
    "boundary_vanishing",
    "PearsonVerdict",
    "IntegrabilityVerdict",
    "BoundaryVerdict",
]


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

    def dlog(self) -> tuple[Poly, Poly]:
        """(numerator, denominator) of p'/p as an exact rational function: E'
        plus one factor's log-derivative g/f at a time, n/d + g/f = (n f + g d)/(d f)."""
        num, den = self.exp_poly.derivative(), Poly.one()
        for pf in self.power_factors:
            linear = Poly((-pf.root, 1))
            num, den = num * linear + den * pf.exponent, den * linear
        if self.quad_exp or self.arctan_coeff:
            quad = Poly((1, 0, 1))
            slope = Poly((self.arctan_coeff, 2 * (self.quad_exp or 0)))
            num, den = num * quad + slope * den, den * quad
        return num, den

    def formula(self, var: str = "x") -> str:
        parts: list[str] = []
        if self.constant != 1:
            parts.append(str(self.constant))
        for pf in self.power_factors:
            base = f"|{var} - {pf.root}|" if pf.root != 0 else f"|{var}|"
            if pf.root < 0:
                base = f"|{var} + {-pf.root}|"
            parts.append(f"{base}^({pf.exponent})")
        if self.quad_exp is not None and self.quad_exp != 0:
            parts.append(f"({var}^2+1)^({self.quad_exp})")
        if not self.exp_poly.is_zero():
            parts.append(f"exp({self.exp_poly.pretty(var)})")
        if self.arctan_coeff != 0:
            parts.append(f"exp({self.arctan_coeff}*arctan({var}))")
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
        # e = b(r) / a'(r) - 1 in ints: for r = p/q, q a.den a'(r) = a1 q + 2 a2 p and
        # q b.den b(r) = b0 q + b1 p
        (_, a1, a2), (b0, b1) = a.nums, (b.nums + (0, 0))[:2]
        ends, factors = (t - s, t + s), []
        for r in ends:
            p, q = r.numerator, r.denominator
            slope = (a1 * q + 2 * a2 * p) * b.den
            e = Fraction((b0 * q + b1 * p) * a.den - slope, slope)
            if e:
                factors.append(PowerFactor(r, e))
        return WeightExpr(power_factors=tuple(factors), interval=Interval(*ends))
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
        exponent = b(t) * s - 1
        factors = (PowerFactor(t, exponent),) if exponent != 0 else ()
        # pick the half line on which the exponential factor decays
        interval = Interval(None, t) if b1 * s > 0 else Interval(t, None)
        return WeightExpr(power_factors=factors, exp_poly=Poly((0, b1 * s)), interval=interval)
    return WeightExpr(
        exp_poly=Poly((0, b0 / c, b1 / (2 * c))), interval=Interval(None, None)
    )


# ---------------------------------------------------------------------------
# verdicts


class PearsonVerdict(Record):
    ok: bool
    symbolic_zero: bool  # the same as ok: the identity is checked exactly


class IntegrabilityVerdict(Record):
    integrable: bool
    conditions: tuple[tuple[str, bool, str], ...]  # (location, ok, detail)


class BoundaryVerdict(Record):
    vanishes: bool
    conditions: tuple[tuple[str, bool, str], ...]


def pearson_check(weight: WeightExpr, a: Poly, b: Poly) -> PearsonVerdict:
    """Verify (pa)' = pb for the symbolic weight.

    The identity divided by p is (a * p'/p + a' - b) = 0, a rational
    function with polynomial denominator; clearing it gives an exact
    polynomial identity.
    """
    num, den = weight.dlog()
    zero = (a * num + (a.derivative() - b) * den).is_zero()
    return PearsonVerdict(ok=zero, symbolic_zero=zero)


_EXP_DETAIL = {True: "exponential factor decays", False: "exponential factor grows"}


def _endpoint_facts(
    weight: WeightExpr, points: list[Fraction], poly: Poly, degree: int
) -> list[tuple[str, Fraction | None, Fraction, bool | None]]:
    """(location, point, exponent, decay) per endpoint of p * poly * q, q of degree
    `degree` with no root counted, the facts of the module docstring: at each
    finite point r of points inside the weight's [lo, hi], point r and decay None;
    at each infinite end, point None and decay True or False when e^E decays or
    grows there, else None with exponent the asymptotic power.  The arctan
    factor is bounded and plays no role."""
    iv = weight.interval
    facts = []
    for r in points:
        if (iv.lo is None or iv.lo <= r) and (iv.hi is None or r <= iv.hi):
            mult = poly.strip_root(r, max(poly.degree, 0))[1]
            facts.append((f"x={r}", r, weight.power_exponent_at(r) + mult, None))
    asym = degree + max(poly.degree, 0) + sum(pf.exponent for pf in weight.power_factors)
    asym += 2 * weight.quad_exp if weight.quad_exp is not None else Fraction(0)
    exp_poly = weight.exp_poly
    for name, end, sign in (("-inf", iv.lo, -1), ("+inf", iv.hi, 1)):
        if end is None:
            decay = None if exp_poly.is_zero() else exp_poly.leading() * sign ** exp_poly.degree < 0
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
    roots = sorted({pf.root for pf in weight.power_factors})
    conditions = []
    for loc, r, e, decay in _endpoint_facts(weight, roots, factor, total_degree):
        if decay is not None:
            ok, detail = decay, _EXP_DETAIL[decay]
        elif r is None:
            ok = e < -1
            detail = f"asymptotic power {e} {'<' if ok else '>='} -1"
        else:
            ok = e > -1
            detail = f"power exponent {e} {'>' if ok else '<='} -1"
        conditions.append((loc, ok, detail))
    return IntegrabilityVerdict(all(ok for _, ok, _ in conditions), tuple(conditions))


def moment_reach(weight: WeightExpr) -> int | float:
    """The largest k with p x^k integrable over the weight's interval: -1 when p
    itself is not, math.inf when every moment is.  So k >= 0 lies within the
    reach exactly when integrability(weight, k) holds; one read of the
    endpoint facts decides every degree at once.
    """
    roots = sorted({pf.root for pf in weight.power_factors})
    reach = math.inf
    for _, r, e, decay in _endpoint_facts(weight, roots, Poly.one(), 0):
        if r is None and decay is None:  # a power law at an infinite end: k + e < -1
            reach = min(reach, math.ceil(-1 - e) - 1)
        elif not (decay if r is None else e > -1):
            reach = -1
    return max(reach, -1)


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
    must be negative.
    """
    m, n = deg_pair
    ends = [end for end in (weight.interval.lo, weight.interval.hi) if end is not None]
    conditions = []
    for loc, r, e, decay in _endpoint_facts(weight, ends, a, m + n - 1):
        if decay is not None:
            ok, detail = decay, _EXP_DETAIL[decay]
        elif r is None:
            ok = e < 0
            detail = f"boundary term asymptotic power {e} {'<' if ok else '>='} 0"
        elif e > 0:
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
        conditions.append((loc, ok, detail))
    return BoundaryVerdict(all(ok for _, ok, _ in conditions), tuple(conditions))
