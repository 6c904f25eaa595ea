"""Weighted inner products <f, g> = integral p f g and Gram matrices.

Routing policy: every pair is first attempted on the exact path, which
succeeds whenever p*f*g cancels down to a polynomial over a finite
interval (integer power exponents, matching factors of f*g, no
exponential/arctan component).  It reduces the weight and divides each
eigenfunction by the weight's negative powers once, then assembles every
entry from cached power moments: O(n^3) rational operations for an n x n
Gram matrix, with no polynomial product per entry.  Exact zeros make
orthogonality claims unambiguous.  Everything else falls back to tanh-sinh
quadrature; infinite intervals are first mapped to a compact one (x = tan u
for the real line, x = anchor +/- tan u for half lines), which turns the
Romanovski weight into (tan^2 u + 1)^(gamma/2 + 1) e^(beta u) f g(tan u)
on (-pi/2, pi/2).

Quadrature integrands are evaluated in log space so that weights with
strong (but integrable) endpoint singularities and polynomials sampled at
|x| ~ 1e300 neither overflow nor lose the endpoint distances to
cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .eigen import eigentable
from .families import FamilyKind, FamilySpec, build_operator
from .operator import DiffOperator
from .quadrature import NoConvergence, QuadResult, tanh_sinh
from .ratpoly import Poly, RatLike, rat
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
    P^e = W prod (x - r)^(s_f + s_g - k): O(n^3) for an n x n Gram matrix."""

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
        self.reduced: dict[int, tuple[tuple[Fraction, ...], list[int]]] = {}
        for label, f in polys.items():
            mults = []
            for r, k in self.divisors:
                s = 0
                while s < k and f(r) == 0:
                    f, s = f.divide_linear(r), s + 1
                mults.append(s)
            self.reduced[label] = (f.coeffs, mults)
        self.span = 2 * max((len(c) for c, _ in self.reduced.values()), default=0)
        top = self.span + len(self.base.coeffs) + sum(need.values())
        self.nu = [Fraction(iv.hi**s - iv.lo**s, s) for s in range(1, top)]
        self.moments: dict[tuple[int, ...], list[Fraction]] = {}
        self.rows: dict[tuple[int, tuple[int, ...]], list[Fraction]] = {}

    def entry(self, m: int, n: int) -> Fraction:
        if len(self.reduced[m][0]) > len(self.reduced[n][0]):
            m, n = n, m
        (a, a_mults), (b, b_mults) = self.reduced[m], self.reduced[n]
        key = tuple(sa + sb - k for (_, k), sa, sb in zip(self.divisors, a_mults, b_mults))
        for (r, k), e in zip(self.divisors, key):
            if e < 0:
                raise NotPolynomialReducible(f"f*g is not divisible by (x - {r})^{k}")
        if key not in self.moments:
            p = self.base
            for (r, _), e in zip(self.divisors, key):
                p = p * Poly((-r, 1)) ** e
            self.moments[key] = [
                sum((c * self.nu[i + t] for i, c in enumerate(p.coeffs) if c), Fraction(0))
                for t in range(self.span)
            ]
        if (n, key) not in self.rows:
            mu = self.moments[key]
            self.rows[(n, key)] = [
                sum((c * mu[i + j] for j, c in enumerate(b) if c), Fraction(0))
                for i in range(len(b))
            ]
        row = self.rows[(n, key)]
        return self.scale * sum((c * row[i] for i, c in enumerate(a) if c), Fraction(0))


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


def _poly_sign_log(p: Poly, x: float) -> tuple[float, float]:
    """(sign, log|p(x)|), stable for |x| up to ~1e300.

    For |x| > 1 evaluates the reversed-coefficient polynomial at 1/x, so
    the magnitude comes out as deg*log|x| + O(1) without overflow.
    """
    if p.is_zero():
        return 0.0, -math.inf
    if abs(x) <= 1.0:
        v = p.eval_float(x)
        if v == 0.0:
            return 0.0, -math.inf
        return math.copysign(1.0, v), math.log(abs(v))
    deg = len(p.coeffs) - 1
    inv = 1.0 / x
    acc = 0.0
    for c in p.coeffs:  # ascending-coefficient Horner in 1/x gives p(x)/x^deg
        acc = acc * inv + float(c)
    if acc == 0.0:
        return 0.0, -math.inf
    sign = math.copysign(1.0, acc)
    if deg % 2 == 1 and x < 0:
        sign = -sign
    return sign, deg * math.log(abs(x)) + math.log(abs(acc))


def _signed_exp(sign: float, log_mag: float) -> float:
    if sign == 0.0 or log_mag == -math.inf:
        return 0.0
    if log_mag > 708.0:
        return math.copysign(math.inf, sign)
    return sign * math.exp(log_mag)


def _finite_integrand(weight: WeightExpr, fg: Poly) -> Callable[[float, float, float], float]:
    def f(x: float, d_lo: float, d_hi: float) -> float:
        v = fg.eval_float(x)
        if v == 0.0:
            return 0.0
        lw = weight.log_eval(x, d_lo, d_hi)
        return _signed_exp(math.copysign(1.0, v), lw + math.log(abs(v)))

    return f


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


def _real_line_integrand(weight: WeightExpr, fg: Poly) -> Callable[[float, float, float], float]:
    def g(u: float, d_lo: float, d_hi: float) -> float:
        x = _tan_abscissa(u, d_lo, d_hi)
        if not math.isfinite(x):
            # only reachable when the true integrand limit is 0 (integrable case)
            return 0.0
        sign, log_fg = _poly_sign_log(fg, x)
        if sign == 0.0:
            return 0.0
        total = weight.log_eval(x) + log_fg + _log1p_sq(x)
        return _signed_exp(sign, total)

    return g


def _half_line_integrand(
    weight: WeightExpr, fg: Poly, anchor: float, direction: int
) -> Callable[[float, float, float], float]:
    """Integrand over u in (0, pi/2) for x = anchor + direction*tan(u)."""

    def g(u: float, d_lo: float, d_hi: float) -> float:
        if d_hi < 0.8:
            t = 1.0 / math.tan(d_hi)
        elif d_lo < 0.8:
            t = math.tan(d_lo)  # u itself cancels to 0.0 near the anchor
        else:
            t = math.tan(u)
        x = anchor + direction * t
        if not math.isfinite(x):
            return 0.0
        sign, log_fg = _poly_sign_log(fg, x)
        if sign == 0.0:
            return 0.0
        if direction > 0:
            lw = weight.log_eval(x, d_lo=t, d_hi=None)
        else:
            lw = weight.log_eval(x, d_lo=None, d_hi=t)
        return _signed_exp(sign, lw + log_fg + _log1p_sq(t))

    return g


def _numeric_quad(
    weight: WeightExpr, fg: Poly, tol: float, max_levels: int = 12
) -> QuadResult:
    iv = weight.interval
    if iv.finite:
        return tanh_sinh(
            _finite_integrand(weight, fg), float(iv.lo), float(iv.hi), tol, max_levels
        )
    if iv.lo is None and iv.hi is None:
        return tanh_sinh(
            _real_line_integrand(weight, fg), -math.pi / 2, math.pi / 2, tol, max_levels
        )
    if iv.hi is None:
        integrand = _half_line_integrand(weight, fg, float(iv.lo), +1)
    else:
        integrand = _half_line_integrand(weight, fg, float(iv.hi), -1)
    return tanh_sinh(integrand, 0.0, math.pi / 2, tol, max_levels)


def inner_product_numeric(
    weight: WeightExpr, f: Poly, g: Poly, tol: float = DEFAULT_TOL
) -> QuadResult:
    """Quadrature value of integral p*f*g with an error estimate.

    Raises NonIntegrable when the integrability precondition fails and
    NoConvergence when the level budget runs out.
    """
    if f.is_zero() or g.is_zero():
        return QuadResult(0.0, 0.0, 0, 0)
    fg = f * g
    verdict = integrability(weight, None, int(fg.degree))
    if not verdict.integrable:
        failed = "; ".join(d for _, ok, d in verdict.conditions if not ok)
        raise NonIntegrable(
            f"deg {fg.degree} against this weight on {weight.interval.describe()}: {failed}"
        )
    return _numeric_quad(weight, fg, tol)


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


def _entry_float(value: Fraction | float | None) -> float | None:
    if value is None:
        return None
    return float(value)


def _gram_for(
    op: DiffOperator,
    weight: WeightExpr,
    degrees: Sequence[int],
    tol: float,
    family_label: str,
    notes: tuple[str, ...] = (),
) -> OrthoReport:
    table = {r.degree: r for r in eigentable(op, max(degrees, default=0))}
    funcs: dict[int, Poly | None] = {d: table[d].monic for d in degrees}
    try:
        form = _ExactForm(weight, {d: p for d, p in funcs.items() if p is not None})
    except NotPolynomialReducible:
        form = None

    entries: list[GramEntry] = []
    values: dict[tuple[int, int], Fraction | float | None] = {}
    for i, m in enumerate(degrees):
        for n in degrees[i:]:
            f, g = funcs[m], funcs[n]
            if f is None or g is None:
                entries.append(
                    GramEntry(
                        m,
                        n,
                        None,
                        None,
                        integrable=False,
                        note="no degree-exact eigenfunction",
                    )
                )
                values[(m, n)] = None
                continue
            if form is not None:
                try:
                    value = form.entry(m, n)
                    entries.append(GramEntry(m, n, value, "exact", integrable=True))
                    values[(m, n)] = value
                    continue
                except NotPolynomialReducible:
                    pass
            verdict = integrability(weight, None, m + n)
            if not verdict.integrable:
                entries.append(
                    GramEntry(m, n, None, None, integrable=False, note="non-integrable")
                )
                values[(m, n)] = None
                continue
            res = _numeric_quad(weight, f * g, tol)
            entries.append(
                GramEntry(m, n, res.value, "quadrature", integrable=True, err_est=res.err_est)
            )
            values[(m, n)] = res.value

    # attach scale-invariant relative magnitudes to off-diagonal entries
    finished: list[GramEntry] = []
    max_rel: float | None = None
    for e in entries:
        if e.m == e.n or e.value is None:
            finished.append(e)
            continue
        g_mm = _entry_float(values.get((e.m, e.m)))
        g_nn = _entry_float(values.get((e.n, e.n)))
        note = e.note
        if g_mm is not None and g_nn is not None and g_mm > 0 and g_nn > 0:
            rel = abs(float(e.value)) / math.sqrt(g_mm * g_nn)
        else:
            scale = _moment_scale(weight, e.m + e.n, tol)
            rel = abs(float(e.value)) / scale if scale else None
            if rel is not None:
                note = (note + "; " if note else "") + "relative uses moment scale"
        finished.append(
            GramEntry(e.m, e.n, e.value, e.method, e.integrable, e.err_est, rel, note)
        )
        if rel is not None:
            max_rel = rel if max_rel is None else max(max_rel, rel)

    return OrthoReport(
        family=family_label,
        max_degree=max(degrees, default=0),
        degrees=tuple(degrees),
        weight_formula=weight.formula(),
        interval=weight.interval.describe(),
        entries=tuple(finished),
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
    return _gram_for(op, weight, degrees, tol, spec.describe(), notes)


def gram_matrix_for_operator(
    op: DiffOperator, n_max: int, tol: float = DEFAULT_TOL
) -> OrthoReport:
    """Gram matrix for a raw second-order operator (degrees 0..n_max)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if op.order != 2:
        raise ValueError("gram matrices require a second-order operator")
    weight = derive_weight(op.coeffs[2], op.coeffs[1])
    return _gram_for(op, weight, tuple(range(n_max + 1)), tol, "custom operator")


# ---------------------------------------------------------------------------
# Romanovski finite orthogonality


@dataclass(frozen=True)
class RomanovskiPair:
    m: int
    n: int
    verdict: str  # "orthogonal" | "degenerate-pair" | "non-integrable" | "inconclusive"
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
    """Pairwise orthogonality verdicts for the Romanovski family.

    A pair (m, n) is checked only when m + n + gamma + 1 < 0 (product
    integrability, gamma = alpha - 2); pairs violating that are flagged
    non-integrable.  Pairs whose eigenvalues collide (integer alpha) are
    flagged degenerate-pair without asserting orthogonality, since the
    self-adjointness argument needs distinct eigenvalues.
    """
    alpha, beta = rat(alpha), rat(beta)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    spec = FamilySpec.romanovski(alpha, beta)
    op = build_operator(spec)
    weight = derive_weight(op.coeffs[2], op.coeffs[1])
    gamma = alpha - 2
    table = eigentable(op, n_max)
    spectrum = op.spectrum(n_max)

    degenerate_pairs = tuple(
        (degs[i], degs[j])
        for degs in spectrum.multiplicity.values()
        if len(degs) > 1
        for i in range(len(degs))
        for j in range(i + 1, len(degs))
    )

    diag: dict[int, float] = {}
    for m in range(n_max + 1):
        if 2 * m + gamma + 1 < 0 and table[m].monic is not None:
            diag[m] = _numeric_quad(weight, table[m].monic ** 2, tol).value

    pairs: list[RomanovskiPair] = []
    for m in range(n_max + 1):
        for n in range(m + 1, n_max + 1):
            if m + n + gamma + 1 >= 0:
                pairs.append(
                    RomanovskiPair(
                        m,
                        n,
                        "non-integrable",
                        detail=f"m+n+gamma+1 = {m + n + gamma + 1} >= 0",
                    )
                )
                continue
            if spectrum.values[m] == spectrum.values[n]:
                pairs.append(
                    RomanovskiPair(
                        m,
                        n,
                        "degenerate-pair",
                        detail="equal eigenvalues; orthogonality argument needs them distinct",
                    )
                )
                continue
            f, g = table[m].monic, table[n].monic
            if f is None or g is None:
                pairs.append(
                    RomanovskiPair(m, n, "inconclusive", detail="no degree-exact eigenfunction")
                )
                continue
            res = _numeric_quad(weight, f * g, tol)
            if m in diag and n in diag and diag[m] > 0 and diag[n] > 0:
                rel = abs(res.value) / math.sqrt(diag[m] * diag[n])
                detail = "relative to sqrt(G_mm G_nn)"
            else:
                scale = _moment_scale(weight, m + n, tol)
                rel = abs(res.value) / scale if scale else None
                detail = "relative to the (1+x^2)^((m+n)/2) moment (a diagonal norm diverges)"
            verdict = "orthogonal" if rel is not None and rel < 1e-6 else "inconclusive"
            pairs.append(
                RomanovskiPair(m, n, verdict, res.value, rel, res.err_est, detail)
            )

    return RomanovskiReport(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        max_degree=n_max,
        statuses=tuple(r.status.value for r in table),
        degenerate_degree_pairs=degenerate_pairs,
        pairs=tuple(pairs),
    )
