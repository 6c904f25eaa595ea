"""Weighted inner products <f, g> = integral p f g and Gram matrices.

Routing policy: every pair is first attempted on the exact path, which
succeeds whenever p*f*g cancels down to a polynomial over a finite
interval (integer power exponents, matching factors of f*g, no
exponential/arctan component).  It reduces the weight and divides each
eigenfunction by the weight's negative powers once, then assembles every
entry from cached power moments: O(n^3) operations for an n x n Gram
matrix, no polynomial product per entry.  They run on integer numerators
over one common denominator, with one Fraction per entry and no float.
Exact zeros make orthogonality claims unambiguous.  Everything else falls
back to tanh-sinh quadrature; infinite intervals are first mapped to a
compact one (x = tan u for the real line, x = anchor +/- tan u for half
lines), which turns the Romanovski weight into
(tan^2 u + 1)^(gamma/2 + 1) e^(beta u) f g(tan u) on (-pi/2, pi/2).

A Gram matrix makes one node sweep per weight: each node's abscissa,
log p(x) and Jacobian are computed once and shared by all pending entries,
each of which still stops on its own rule.  A Romanovski report is read off
the Romanovski Gram matrix: its verdicts map the Gram entries, and its
eigenvalue collisions always sit on the integrability boundary
m + n + gamma + 1 = 0.  The weight
(cached on the WeightExpr) and each eigenfunction are converted to floats
once; a node evaluates each eigenfunction once, to a sign and log|f(x)|, and
an entry adds two such logs, so f*g is never formed (quadrature floats may
differ in their last digits from expanding it; exact entries do not).  Log
space keeps weights with strong (but integrable) endpoint singularities and
polynomials at |x| ~ 1e300 from overflowing or losing endpoint distances.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Callable, Sequence

from .eigen import EigenResult, eigentable
from .families import FamilyKind, FamilySpec, build_operator
from .operator import DiffOperator, Spectrum
from .quadrature import NoConvergence, QuadResult, _tanh_sinh_sweep, tanh_sinh
from .ratpoly import Poly, RatLike, common_denominator, horner, rat
from .weights import WeightExpr, derive_weight, integrability

__all__ = [
    "NotPolynomialReducible",
    "NonIntegrable",
    "DEFAULT_TOL",
    "inner_product_exact",
    "inner_product_numeric",
    "inner_product",
    "GramEntry",
    "OrthoReport",
    "gram_matrix",
    "gram_matrix_for_operator",
    "RomanovskiPair",
    "RomanovskiReport",
    "finite_orthogonality_report",
]

DEFAULT_TOL = 1e-10


class NotPolynomialReducible(ValueError):
    """p*f*g does not reduce to a polynomial on a finite interval."""


class NonIntegrable(ValueError):
    """The weighted product is not integrable over the interval."""


# ---------------------------------------------------------------------------
# exact path


def _require_polynomial_shape(weight: WeightExpr) -> None:
    """Refuse weights that no choice of f and g reduces to a polynomial."""
    if not weight.interval.finite:
        raise NotPolynomialReducible("interval is not finite")
    if not weight.exp_poly.is_zero() or weight.arctan_coeff != 0:
        raise NotPolynomialReducible("weight has a transcendental factor")
    if weight.quad_exp is not None and weight.quad_exp != 0:
        raise NotPolynomialReducible("weight has a (x^2+1) factor")


class _ExactForm:
    """<f, g> = scale * integral of f g W / prod (x - r)^k over (lo, hi) for
    labelled f, g.  With f = f~ prod (x - r)^s_f, a pair reduces when
    s_f + s_g >= k at each divisor (r, k), to sum_i f~_i L(i) with
    L(i) = sum_j g~_j mu_(i+j), mu the cached power moments of
    P^e = W prod (x - r)^(s_f + s_g - k): O(n^3) for an n x n Gram matrix.
    f~, g~ and mu are int lists over denominators d_f, d_g, d_mu; with P^e and
    the power integrals nu_s of (lo, hi) cleared once, mu_t = sum_i P^e_i
    nu_(i+t) is an int sum too, so an entry is int sums and one Fraction over
    d_f d_g d_mu."""

    def __init__(self, weight: WeightExpr, polys: dict[int, Poly]):
        _require_polynomial_shape(weight)
        iv = weight.interval
        # per root: the summed exponent, and the most divisions of f*g its
        # factors ask for in order (derive_weight gives one factor a root)
        net: dict[Fraction, int] = {}
        need: dict[Fraction, int] = {}
        for pf in weight.power_factors:
            e, r = pf.exponent, pf.root
            if e == 0:
                continue
            if e.denominator != 1:
                raise NotPolynomialReducible(f"non-integer exponent {e} at root {r}")
            k = int(e)
            # inside the interval |x-r|^k is a polynomial only for even k > 0
            if iv.lo < r < iv.hi and (k < 0 or k % 2):
                raise NotPolynomialReducible(f"root {r} lies inside {iv.describe()}")
            net[r] = net.get(r, 0) + k
            if k < 0:
                need[r] = max(need.get(r, 0), -net[r])
        sign, self.base = 1, Poly.one()
        for r, k in net.items():
            if r >= iv.hi and k % 2:  # |x - r| = -(x - r) there
                sign = -sign
            self.base = self.base * Poly((-r, 1)) ** (k + need.get(r, 0))
        self.scale = weight.constant * sign
        self.divisors = tuple(need.items())
        # label -> (denominator, numerators, multiplicity per divisor)
        self.reduced: dict[int, tuple[int, list[int], list[int]]] = {}
        for label, f in polys.items():
            mults = []
            for r, k in self.divisors:
                f, s = f.strip_root(r, k)
                mults.append(s)
            self.reduced[label] = (*common_denominator(f.coeffs), mults)
        self.span = 2 * max((len(c) for _, c, _ in self.reduced.values()), default=0)
        top = self.span + len(self.base.coeffs) + sum(need.values())
        # nu[s] = integral of x^s over (lo, hi), as ints over d_nu
        self.d_nu, self.nu = common_denominator(
            Fraction(iv.hi**s - iv.lo**s, s) for s in range(1, top)
        )
        self.moments: dict[tuple[int, ...], tuple[int, list[int]]] = {}
        self.rows: dict[tuple[int, tuple[int, ...]], list[int]] = {}

    def entry(self, m: int, n: int) -> Fraction:
        if len(self.reduced[m][1]) > len(self.reduced[n][1]):
            m, n = n, m
        (d_a, a, a_mults), (d_b, b, b_mults) = self.reduced[m], self.reduced[n]
        key = tuple(sa + sb - k for (_, k), sa, sb in zip(self.divisors, a_mults, b_mults))
        for (r, k), e in zip(self.divisors, key):
            if e < 0:
                raise NotPolynomialReducible(f"f*g is not divisible by (x - {r})^{k}")
        if key not in self.moments:
            p = self.base
            for (r, _), e in zip(self.divisors, key):
                p = p * Poly((-r, 1)) ** e
            d_p, ps = common_denominator(p.coeffs)
            self.moments[key] = (
                d_p * self.d_nu,
                [sum(map(mul, ps, self.nu[t:])) for t in range(self.span)],
            )
        d_mu, mu = self.moments[key]
        if (n, key) not in self.rows:
            self.rows[(n, key)] = [sum(map(mul, b, mu[i:])) for i in range(len(b))]
        total = sum(map(mul, a, self.rows[(n, key)]))
        return Fraction(self.scale.numerator * total, self.scale.denominator * d_a * d_b * d_mu)


def inner_product_exact(weight: WeightExpr, f: Poly, g: Poly) -> Fraction:
    """Exact integral of p*f*g when the weight cancels into f*g.

    Negative integer power exponents must divide f*g exactly; positive
    integer exponents multiply in.  On the interval interior each |x - r|
    has constant sign, which contributes the appropriate factor of -1 for
    odd exponents at the right endpoint.  The value is assembled from the
    power moments of the reduced weight, without forming f*g; a Gram matrix
    shares one such form over all its entries, O(n^3) for n x n.
    """
    if f.is_zero() or g.is_zero():
        _require_polynomial_shape(weight)
        return Fraction(0)
    return _ExactForm(weight, {0: f, 1: g}).entry(0, 1)


# ---------------------------------------------------------------------------
# numeric path


def _signed_exp(sign: float, log_mag: float) -> float:
    if sign == 0.0 or log_mag == -math.inf:
        return 0.0
    if log_mag > 708.0:
        return math.copysign(math.inf, sign)
    return sign * math.exp(log_mag)


def _tan_abscissa(u: float, d_lo: float, d_hi: float) -> float:
    """tan(u) on (-pi/2, pi/2), accurate near the endpoints."""
    if d_hi < 0.8:
        return 1.0 / math.tan(d_hi)
    if d_lo < 0.8:
        return -1.0 / math.tan(d_lo)
    return math.tan(u)


def _log1p_sq(t: float) -> float:
    """log(1 + t^2) without overflow."""
    sq = t * t
    return math.log1p(sq) if math.isfinite(sq) else 2.0 * math.log(abs(t))


def _integrand(weight: WeightExpr, funcs: list[Poly], pairs: list) -> tuple[Callable, float, float]:
    """(f, lo, hi) for _tanh_sinh_sweep: f(u, d_lo, d_hi, active) lists p f_i f_j times the
    Jacobian of the interval's map x(u) (module docstring) at one node, per active pair
    (i, j) of indices into funcs.

    A node's x, log p(x) and log-Jacobian are computed once for all pairs, and the sign
    and log|f_i(x)| once per f_i that an active pair needs; f_i f_j is never formed.  Off
    [-1, 1], log|f_i(x)| is deg*log|x| plus the log of the reversed polynomial at 1/x,
    which does not overflow for |x| up to ~1e300.
    """
    iv = weight.interval
    cs = [tuple(map(float, p.coeffs)) for p in funcs]  # converted once, not per node
    rev = [c[::-1] for c in cs]
    degs = [len(c) - 1 for c in cs]
    signs, logs, zero = [0.0] * len(cs), [0.0] * len(cs), (0.0, -math.inf)
    finite = iv.finite
    if finite:
        lo, hi = float(iv.lo), float(iv.hi)

        def node(x: float, d_lo: float, d_hi: float) -> tuple[float, float, float]:
            return x, weight.log_eval(x, d_lo, d_hi), 0.0  # the identity map: log 1

    elif iv.lo is None and iv.hi is None:
        lo, hi = -math.pi / 2, math.pi / 2

        def node(u: float, d_lo: float, d_hi: float) -> tuple[float, float, float] | None:
            x = _tan_abscissa(u, d_lo, d_hi)
            if not math.isfinite(x):
                return None
            return x, weight.log_eval(x), _log1p_sq(x)

    else:
        lo, hi = 0.0, math.pi / 2
        anchor, direction = (float(iv.lo), 1) if iv.hi is None else (float(iv.hi), -1)

        def node(u: float, d_lo: float, d_hi: float) -> tuple[float, float, float] | None:
            if d_hi < 0.8:
                t = 1.0 / math.tan(d_hi)
            elif d_lo < 0.8:
                t = math.tan(d_lo)  # u itself cancels to 0.0 near the anchor
            else:
                t = math.tan(u)
            x = anchor + direction * t
            if not math.isfinite(x):
                return None
            if direction > 0:
                return x, weight.log_eval(x, d_lo=t, d_hi=None), _log1p_sq(t)
            return x, weight.log_eval(x, d_lo=None, d_hi=t), _log1p_sq(t)

    def f(u: float, d_lo: float, d_hi: float, active: list[int]) -> list[float]:
        shared = node(u, d_lo, d_hi)
        if shared is None:
            # only reachable when the true integrand limit is 0 (integrable case)
            return [0.0] * len(active)
        x, lw, log_jac = shared
        near = finite or abs(x) <= 1.0
        if not near:
            inv_x, log_x = 1.0 / x, math.log(abs(x))
        for i in {i for k in active for i in pairs[k]}:  # signs and logs of other f_i go unread
            if near:
                v, log_scale = horner(cs[i], x), 0.0
            else:  # the reversed polynomial at 1/x is f_i(x)/x^deg
                v, log_scale = horner(rev[i], inv_x), degs[i] * log_x
                if x < 0 and degs[i] % 2:
                    v = -v
            # sign 0.0 at a zero of f_i zeroes its entries
            signs[i], logs[i] = (math.copysign(1.0, v), log_scale + math.log(abs(v))) if v else zero
        base = lw + log_jac
        return [
            _signed_exp(signs[i] * signs[j], base + logs[i] + logs[j])
            for i, j in map(pairs.__getitem__, active)
        ]

    return f, lo, hi


def _numeric_quad(weight: WeightExpr, pairs: Sequence, tol: float) -> list[QuadResult]:
    """Quadrature of p*f*g for every (f, g) in pairs, on one node sweep; raises
    the NoConvergence of the first pair, in list order, that fails."""
    index: dict[Poly, int] = {}  # each distinct eigenfunction once
    pos = [(index.setdefault(f, len(index)), index.setdefault(g, len(index))) for f, g in pairs]
    f, lo, hi = _integrand(weight, list(index), pos)
    results = _tanh_sinh_sweep(f, len(pairs), lo, hi, tol)
    for res in results:
        if isinstance(res, NoConvergence):
            raise res
    return results


def inner_product_numeric(
    weight: WeightExpr, f: Poly, g: Poly, tol: float = DEFAULT_TOL
) -> QuadResult:
    """Quadrature value of integral p*f*g with an error estimate.

    Raises NonIntegrable when the integrability precondition fails and
    NoConvergence when the level budget runs out.
    """
    if f.is_zero() or g.is_zero():
        return QuadResult(0.0, 0.0, 0, 0)
    degree = int(f.degree + g.degree)
    verdict = integrability(weight, None, degree)
    if not verdict.integrable:
        failed = "; ".join(d for _, ok, d in verdict.conditions if not ok)
        raise NonIntegrable(
            f"deg {degree} against this weight on {weight.interval.describe()}: {failed}"
        )
    return _numeric_quad(weight, [(f, g)], tol)[0]


def inner_product(
    weight: WeightExpr, f: Poly, g: Poly, tol: float = DEFAULT_TOL
) -> tuple[Fraction | float, str, float | None]:
    """Route to the exact path first; fall back to quadrature.

    Returns (value, method, err_est) with method "exact" or "quadrature".
    """
    try:
        return inner_product_exact(weight, f, g), "exact", None
    except NotPolynomialReducible:
        res = inner_product_numeric(weight, f, g, tol)
        return res.value, "quadrature", res.err_est


def _moment_scale(weight: WeightExpr, total_degree: int, tol: float) -> float | None:
    """integral p(x) (1+x^2)^(total_degree/2) dx, the scale used to
    normalize off-diagonal entries whose diagonal norms diverge.

    Smooth and finite exactly when the pair itself is integrable; only the
    real-line case ever needs it.
    """
    iv = weight.interval
    if not (iv.lo is None and iv.hi is None):
        return None
    half = total_degree / 2.0

    def g(u: float, d_lo: float, d_hi: float) -> float:
        x = _tan_abscissa(u, d_lo, d_hi)
        if not math.isfinite(x):
            return 0.0
        total = weight.log_eval(x) + (half + 1.0) * _log1p_sq(x)
        return _signed_exp(1.0, total)

    try:
        return tanh_sinh(g, -math.pi / 2, math.pi / 2, tol).value
    except NoConvergence:
        return None


# ---------------------------------------------------------------------------
# Gram matrices


@dataclass(frozen=True)
class GramEntry:
    m: int
    n: int
    value: Fraction | float | None
    method: str | None  # "exact" | "quadrature" | None
    integrable: bool
    err_est: float | None = None
    relative: float | None = None
    note: str | None = None

    def to_json(self) -> dict:
        if isinstance(self.value, Fraction):
            value = str(self.value)
        else:
            value = self.value
        return {
            "m": self.m,
            "n": self.n,
            "value": value,
            "method": self.method,
            "integrable": self.integrable,
            "err_est": self.err_est,
            "relative": self.relative,
            "note": self.note,
        }


@dataclass(frozen=True)
class OrthoReport:
    family: str
    max_degree: int
    degrees: tuple[int, ...]
    weight_formula: str
    interval: str
    entries: tuple[GramEntry, ...]
    off_diagonal_max_relative: float | None
    notes: tuple[str, ...] = ()

    def entry(self, m: int, n: int) -> GramEntry:
        a, b = min(m, n), max(m, n)
        for e in self.entries:
            if e.m == a and e.n == b:
                return e
        raise KeyError(f"no gram entry ({m}, {n})")

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "max_degree": self.max_degree,
            "degrees": list(self.degrees),
            "weight": self.weight_formula,
            "interval": self.interval,
            "entries": [e.to_json() for e in self.entries],
            "off_diagonal_max_relative": self.off_diagonal_max_relative,
            "notes": list(self.notes),
        }

    def format_table(self) -> str:
        lines = [
            f"family: {self.family}",
            f"weight: {self.weight_formula} on {self.interval}",
        ]
        for note in self.notes:
            lines.append(f"note: {note}")
        header = f"{'m':>3} {'n':>3} {'method':>10} {'value':>24} {'relative':>12}"
        lines.append(header)
        lines.append("-" * len(header))
        for e in self.entries:
            if not e.integrable:
                value, rel = "non-integrable", ""
            elif e.value is None:
                value, rel = e.note or "-", ""
            else:
                value = str(e.value) if isinstance(e.value, Fraction) else f"{e.value:.3e}"
                rel = "" if e.relative is None else f"{e.relative:.3e}"
            lines.append(f"{e.m:>3} {e.n:>3} {e.method or '-':>10} {value:>24} {rel:>12}")
        if self.off_diagonal_max_relative is not None:
            lines.append(
                f"max off-diagonal relative entry: {self.off_diagonal_max_relative:.3e}"
            )
        return "\n".join(lines)


def _gram_for(
    table: Sequence[EigenResult],
    weight: WeightExpr,
    degrees: Sequence[int],
    tol: float,
    family_label: str,
    notes: tuple[str, ...] = (),
) -> OrthoReport:
    """The Gram entries over degrees of the eigenfunctions in table (indexed by degree)."""
    funcs: dict[int, Poly | None] = {d: table[d].monic for d in degrees}
    try:
        form = _ExactForm(weight, {d: p for d, p in funcs.items() if p is not None})
    except NotPolynomialReducible:
        form = None

    moment_scale = functools.cache(lambda k: _moment_scale(weight, k, tol))
    integrable = functools.cache(lambda k: integrability(weight, None, k).integrable)
    routes: dict[tuple[int, int], tuple] = {}  # (m, n) -> (value, method, note)
    for i, m in enumerate(degrees):
        for n in degrees[i:]:
            if funcs[m] is None or funcs[n] is None:
                routes[m, n] = (None, None, "no degree-exact eigenfunction")
                continue
            if form is not None:
                try:
                    routes[m, n] = (form.entry(m, n), "exact", None)
                    continue
                except NotPolynomialReducible:
                    pass
            if integrable(m + n):
                routes[m, n] = (None, "quadrature", None)
            else:
                routes[m, n] = (None, None, "non-integrable")
    pending = [key for key, route in routes.items() if route[1] == "quadrature"]
    results = _numeric_quad(weight, [(funcs[m], funcs[n]) for m, n in pending], tol)
    quad = dict(zip(pending, results))
    values = {key: quad[key].value if key in quad else route[0] for key, route in routes.items()}
    diag = {m: float(values[m, m] or 0) for m in degrees}  # 0.0 where the norm has no value

    entries: list[GramEntry] = []
    for (m, n), (_, method, note) in routes.items():
        value, rel = values[m, n], None
        # a Romanovski diagonal norm can diverge while the pair converges: moment scale then
        if m != n and value is not None:
            if diag[m] > 0 and diag[n] > 0:
                rel = abs(float(value)) / math.sqrt(diag[m] * diag[n])
            elif scale := moment_scale(m + n):
                rel, note = abs(float(value)) / scale, "relative uses moment scale"
        err_est = quad[m, n].err_est if (m, n) in quad else None
        entries.append(GramEntry(m, n, value, method, method is not None, err_est, rel, note))
    max_rel = max((e.relative for e in entries if e.relative is not None), default=None)

    return OrthoReport(
        family=family_label,
        max_degree=max(degrees, default=0),
        degrees=tuple(degrees),
        weight_formula=weight.formula(),
        interval=weight.interval.describe(),
        entries=tuple(entries),
        off_diagonal_max_relative=max_rel,
        notes=notes,
    )


def gram_matrix(spec: FamilySpec, n_max: int, tol: float = DEFAULT_TOL) -> OrthoReport:
    """Gram matrix of the family's monic eigenfunctions up to degree n_max.

    The chaudhry-qadir family starts at degree 1: its degree-0 eigenfunction
    (the constant) does not vanish at t = 1, and the weight 1/(1-t) alone is
    not integrable, so the constant is outside the self-adjointness subspace.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    op = build_operator(spec)
    weight = derive_weight(op.coeffs[2], op.coeffs[1])
    notes: tuple[str, ...] = ()
    if spec.kind is FamilyKind.CHAUDHRY_QADIR:
        degrees = tuple(range(1, n_max + 1))
        notes = (
            "degree 0 excluded: eigenfunctions must vanish at t=1 for integrability",
        )
    else:
        degrees = tuple(range(n_max + 1))
    return _gram_for(eigentable(op, n_max), weight, degrees, tol, spec.describe(), notes)


def gram_matrix_for_operator(
    op: DiffOperator, n_max: int, tol: float = DEFAULT_TOL
) -> OrthoReport:
    """Gram matrix for a raw second-order operator (degrees 0..n_max)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if op.order != 2:
        raise ValueError("gram matrices require a second-order operator")
    weight = derive_weight(op.coeffs[2], op.coeffs[1])
    degrees = tuple(range(n_max + 1))
    return _gram_for(eigentable(op, n_max), weight, degrees, tol, "custom operator")


# ---------------------------------------------------------------------------
# Romanovski finite orthogonality


@dataclass(frozen=True)
class RomanovskiPair:
    m: int
    n: int
    # "orthogonal" | "non-integrable" | "inconclusive"; collision pairs are non-integrable
    verdict: str
    value: float | None = None
    relative: float | None = None
    err_est: float | None = None
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "verdict": self.verdict,
            "value": self.value,
            "relative": self.relative,
            "err_est": self.err_est,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class RomanovskiReport:
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    max_degree: int
    statuses: tuple[str, ...]
    degenerate_degree_pairs: tuple[tuple[int, int], ...]
    pairs: tuple[RomanovskiPair, ...]

    def to_json(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "gamma": str(self.gamma),
            "max_degree": self.max_degree,
            "statuses": list(self.statuses),
            "degenerate_degree_pairs": [list(p) for p in self.degenerate_degree_pairs],
            "pairs": [p.to_json() for p in self.pairs],
        }

    def format_table(self) -> str:
        lines = [
            f"romanovski alpha={self.alpha} beta={self.beta} (gamma={self.gamma})",
            f"integrable products: m + n < {-self.gamma - 1}",
        ]
        if self.degenerate_degree_pairs:
            collisions = ", ".join(f"({m},{n})" for m, n in self.degenerate_degree_pairs)
            lines.append(f"eigenvalue collisions: {collisions}")
        header = f"{'m':>3} {'n':>3} {'verdict':>16} {'value':>13} {'relative':>12}"
        lines.append(header)
        lines.append("-" * len(header))
        for p in self.pairs:
            value = "" if p.value is None else f"{p.value:.3e}"
            rel = "" if p.relative is None else f"{p.relative:.3e}"
            lines.append(f"{p.m:>3} {p.n:>3} {p.verdict:>16} {value:>13} {rel:>12}")
        return "\n".join(lines)


def finite_orthogonality_report(
    alpha: RatLike, beta: RatLike, n_max: int, tol: float = DEFAULT_TOL
) -> RomanovskiReport:
    """Pairwise orthogonality verdicts for the Romanovski family, read off its
    Gram matrix.

    A pair (m, n) is checked only when m + n + gamma + 1 < 0 (product
    integrability, gamma = alpha - 2); pairs violating that are flagged
    non-integrable.  Eigenvalues collide (integer alpha) only on that
    boundary: mu_m = mu_n with m != n forces m + n = 1 - alpha, so
    m + n + gamma + 1 = 0 and no collision pair is ever called orthogonal.
    """
    alpha, beta = rat(alpha), rat(beta)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    spec = FamilySpec.romanovski(alpha, beta)
    op = build_operator(spec)
    weight = derive_weight(op.coeffs[2], op.coeffs[1])
    gamma = alpha - 2
    table = eigentable(op, n_max)
    gram = _gram_for(table, weight, range(n_max + 1), tol, spec.describe())
    collisions = Spectrum(tuple(r.eigenvalue for r in table)).multiplicity.values()

    normed = {e.m for e in gram.entries if e.m == e.n and (e.value or 0) > 0}
    pairs = []
    for e in gram.entries:
        m, n = e.m, e.n
        if m == n:
            continue
        if m + n + gamma + 1 >= 0:
            detail = f"m+n+gamma+1 = {m + n + gamma + 1} >= 0"
            pairs.append(RomanovskiPair(m, n, "non-integrable", detail=detail))
        elif e.value is None:
            pairs.append(RomanovskiPair(m, n, "inconclusive", detail=e.note or ""))
        else:
            detail = (
                "relative to sqrt(G_mm G_nn)"
                if m in normed and n in normed
                else "relative to the (1+x^2)^((m+n)/2) moment (a diagonal norm diverges)"
            )
            ok = e.relative is not None and e.relative < 1e-6
            verdict = "orthogonal" if ok else "inconclusive"
            pairs.append(RomanovskiPair(m, n, verdict, e.value, e.relative, e.err_est, detail))

    return RomanovskiReport(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        max_degree=n_max,
        statuses=tuple(r.status.value for r in table),
        degenerate_degree_pairs=tuple(p for degs in collisions for p in combinations(degs, 2)),
        pairs=tuple(pairs),
    )
