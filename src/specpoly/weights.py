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

A quadratic with a double root (the x^2 normal form) or with irrational
roots is rejected: the former is deliberately unsupported, the latter
should be affinely normalized first.

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
decay or a negative power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .ratpoly import Poly, horner, rational_sqrt

__all__ = [
    "UnsupportedLeadingCoefficient",
    "PowerFactor",
    "Interval",
    "WeightExpr",
    "derive_weight",
    "pearson_check",
    "integrability",
    "boundary_vanishing",
    "PearsonVerdict",
    "IntegrabilityVerdict",
    "BoundaryVerdict",
]


class UnsupportedLeadingCoefficient(ValueError):
    """Leading coefficient outside the supported Pearson shapes."""


@dataclass(frozen=True)
class PowerFactor:
    """One factor |x - root|^exponent."""

    root: Fraction
    exponent: Fraction


@dataclass(frozen=True)
class Interval:
    """Open interval; None endpoint means unbounded on that side."""

    lo: Fraction | None
    hi: Fraction | None

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and not self.lo < self.hi:
            raise ValueError(f"empty interval ({self.lo}, {self.hi})")

    @property
    def finite(self) -> bool:
        return self.lo is not None and self.hi is not None

    def sample_floats(self, count: int) -> list[float]:
        """Deterministic interior sample points (for numeric spot checks)."""
        if count < 1:
            return []
        ticks = [(i + 1) / (count + 1) for i in range(count)]
        if self.finite:
            lo, hi = float(self.lo), float(self.hi)
            return [lo + (hi - lo) * t for t in ticks]
        if self.lo is None and self.hi is None:
            return [math.tan(math.pi * (t - 0.5)) for t in ticks]
        if self.hi is None:
            return [float(self.lo) + math.tan(math.pi * t / 2) for t in ticks]
        return [float(self.hi) - math.tan(math.pi * t / 2) for t in ticks]

    def describe(self) -> str:
        lo = str(self.lo) if self.lo is not None else "-inf"
        hi = str(self.hi) if self.hi is not None else "+inf"
        return f"({lo}, {hi})"

    def to_json(self) -> dict:
        return {
            "lo": str(self.lo) if self.lo is not None else None,
            "hi": str(self.hi) if self.hi is not None else None,
        }


@dataclass(frozen=True)
class WeightExpr:
    """Symbolic weight: constant * prod |x-r|^e * (x^2+1)^q * e^E(x) * e^(h*arctan x)."""

    constant: Fraction = Fraction(1)
    power_factors: tuple[PowerFactor, ...] = ()
    quad_exp: Fraction | None = None
    exp_poly: Poly = field(default_factory=Poly)
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

    def eval_float(self, x: float) -> float:
        return math.exp(self.log_eval(x))

    def dlog(self) -> tuple[Poly, Poly]:
        """(numerator, denominator) of p'/p as an exact rational function."""
        den = Poly.one()
        for pf in self.power_factors:
            den = den * Poly((-pf.root, 1))
        quad = Poly((1, 0, 1))
        has_quad = (self.quad_exp is not None and self.quad_exp != 0) or self.arctan_coeff != 0
        if has_quad:
            den = den * quad
        num = Poly()
        for pf in self.power_factors:
            term = Poly((pf.exponent,))
            for other in self.power_factors:
                if other is not pf:
                    term = term * Poly((-other.root, 1))
            if has_quad:
                term = term * quad
            num = num + term
        if has_quad:
            q = self.quad_exp if self.quad_exp is not None else Fraction(0)
            term = Poly((self.arctan_coeff, 2 * q))
            for pf in self.power_factors:
                term = term * Poly((-pf.root, 1))
            num = num + term
        if not self.exp_poly.is_zero():
            num = num + self.exp_poly.derivative() * den
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
    """Solve (pa)' = pb for the weight, exactly.  See the module docstring
    for the supported shapes of a."""
    if a.is_zero():
        raise UnsupportedLeadingCoefficient("leading coefficient is zero")
    if a.degree > 2:
        raise UnsupportedLeadingCoefficient("weight derivation requires deg(a) <= 2")
    if b.degree > 1:
        raise ValueError("weight derivation requires deg(b) <= 1")

    if a.degree == 2:
        a2, a1, a0 = a.coeff(2), a.coeff(1), a.coeff(0)
        disc = a1 * a1 - 4 * a2 * a0
        if disc == 0:
            raise UnsupportedLeadingCoefficient(
                "double root (x^2 normal form): weight not developed for this shape"
            )
        if disc > 0:
            root = rational_sqrt(disc)
            if root is None:
                raise UnsupportedLeadingCoefficient(
                    f"irrational roots (discriminant {disc}); normalize first"
                )
            r1 = (-a1 - root) / (2 * a2)
            r2 = (-a1 + root) / (2 * a2)
            if r1 > r2:
                r1, r2 = r2, r1
            da = a.derivative()
            factors = tuple(
                PowerFactor(r, b(r) / da(r) - 1)
                for r in (r1, r2)
                if b(r) / da(r) - 1 != 0
            )
            return WeightExpr(power_factors=factors, interval=Interval(r1, r2))
        # negative discriminant: accept only c*(x^2 + 1)
        if a1 != 0 or a0 != a2:
            raise UnsupportedLeadingCoefficient(
                "complex-root quadratic is not c*(x^2+1); normalize first"
            )
        c = a2
        b1, b0 = b.coeff(1), b.coeff(0)
        return WeightExpr(
            quad_exp=(b1 - 2 * c) / (2 * c),
            arctan_coeff=b0 / c,
            interval=Interval(None, None),
        )

    if a.degree == 1:
        a1, a0 = a.coeff(1), a.coeff(0)
        r = -a0 / a1
        b1, b0 = b.coeff(1), b.coeff(0)
        exponent = b(r) / a1 - 1
        factors = (PowerFactor(r, exponent),) if exponent != 0 else ()
        exp_poly = Poly((0, b1 / a1))
        # pick the half line on which the exponential factor decays
        if b1 / a1 > 0:
            interval = Interval(None, r)
        else:
            interval = Interval(r, None)
        return WeightExpr(power_factors=factors, exp_poly=exp_poly, interval=interval)

    # constant a
    c = a.coeff(0)
    b1, b0 = b.coeff(1), b.coeff(0)
    return WeightExpr(
        exp_poly=Poly((0, b0 / c, b1 / (2 * c))), interval=Interval(None, None)
    )


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class PearsonVerdict:
    ok: bool
    symbolic_zero: bool
    max_residual: float
    samples: int

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "symbolic_zero": self.symbolic_zero,
            "max_residual": self.max_residual,
            "samples": self.samples,
        }


@dataclass(frozen=True)
class IntegrabilityVerdict:
    integrable: bool
    conditions: tuple[tuple[str, bool, str], ...]  # (location, ok, detail)


@dataclass(frozen=True)
class BoundaryVerdict:
    vanishes: bool
    conditions: tuple[tuple[str, bool, str], ...]


def pearson_check(weight: WeightExpr, a: Poly, b: Poly) -> PearsonVerdict:
    """Verify (pa)' = pb for the symbolic weight.

    The identity divided by p is (a * p'/p + a' - b) = 0, a rational
    function with polynomial denominator; clearing it gives an exact
    polynomial identity.  A 20-point numeric residual check runs as well:
    since p > 0 on the interior, (pa)' - pb is compared to zero per unit
    weight, i.e. |a*(p'/p) + a' - b| relative to the size of its terms,
    which keeps growing exponential factors from overflowing the check.
    """
    num, den = weight.dlog()
    residual_poly = a * num + (a.derivative() - b) * den
    symbolic_zero = residual_poly.is_zero()

    xs = weight.interval.sample_floats(20)
    max_resid = 0.0
    a_d = a.derivative()
    for x in xs:
        den_f = den.eval_float(x)
        if den_f == 0:
            continue
        pa_prime_over_p = a_d.eval_float(x) + a.eval_float(x) * num.eval_float(x) / den_f
        pb_over_p = b.eval_float(x)
        scale = 1.0 + abs(pa_prime_over_p) + abs(pb_over_p)
        max_resid = max(max_resid, abs(pa_prime_over_p - pb_over_p) / scale)
    ok = symbolic_zero and max_resid < 1e-10
    return PearsonVerdict(
        ok=ok, symbolic_zero=symbolic_zero, max_residual=max_resid, samples=len(xs)
    )


_EXP_DETAIL = {True: "exponential factor decays", False: "exponential factor grows"}


def _endpoint_facts(
    weight: WeightExpr, iv: Interval, points: list[Fraction], poly: Poly, degree: int
) -> list[tuple[str, Fraction | None, Fraction, bool | None]]:
    """(location, point, exponent, decay) per endpoint of p * poly * q, q of degree
    `degree` with no root counted, the facts of the module docstring: at each
    finite point r of points inside [lo, hi], point r and decay None; at each
    infinite end of iv, point None and decay True or False when e^E decays or
    grows there, else None with exponent the asymptotic power.  The arctan
    factor is bounded and plays no role."""
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
    weight: WeightExpr, interval: Interval | None = None, total_degree: int = 0
) -> IntegrabilityVerdict:
    """Is (polynomial of degree total_degree) * weight integrable over the interval?

    Every power exponent at a finite root must exceed -1; each infinite end
    needs a decaying exponential factor, or else an asymptotic power below -1.
    """
    iv = interval if interval is not None else weight.interval
    roots = sorted({pf.root for pf in weight.power_factors})
    conditions = []
    for loc, r, e, decay in _endpoint_facts(weight, iv, roots, Poly.one(), total_degree):
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


def boundary_vanishing(
    weight: WeightExpr,
    a: Poly,
    interval: Interval | None = None,
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
    iv = interval if interval is not None else weight.interval
    m, n = deg_pair
    ends = [end for end in (iv.lo, iv.hi) if end is not None]
    conditions = []
    for loc, r, e, decay in _endpoint_facts(weight, iv, ends, a, m + n - 1):
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
