"""Weighted inner products <f, g> = integral p f g and Gram matrices.

Routing policy: one router serves Gram matrices and inner_product alike, and
takes one of three routes per pair.  _shape names the route once per weight
from the four shapes derive_weight gives (Bochner's classification): Jacobi
on a finite interval, Laguerre on a half line, Romanovski or Gaussian on the
real line.

* exact: p*f*g cancels down to a polynomial over a finite interval (integer
  power exponents, matching factors of f*g, no exponential/arctan
  component).  The weight is reduced and each eigenfunction divided by the
  weight's negative powers once, then every entry is assembled from cached
  power moments: O(n^3) operations for an n x n Gram matrix, no polynomial
  product per entry.  They run on integer numerators over one common
  denominator, with one Fraction per entry and no float.
* moment: the two shapes below, on which every moment m_k = integral p x^k
  is an exact rational r_k times m_0.  From a Pearson pair (a, b),
  (p a)' = p b (the moment functional; Chihara, An Introduction to
  Orthogonal Polynomials, 1978), integrating (p a x^k)' = p (k a x^(k-1) +
  b x^k) gives m_(k+1) = -(k a0 m_(k-1) + (k a1 + b0) m_k) / (k a2 + b1)
  while the boundary term p a x^k vanishes.  The exact route's bilinear form
  over the integer-cleared r_k gives each entry as an exact ratio to m_0
  (times the weight's constant), and m_0 is in closed form.
  - Romanovski, p = (x^2+1)^q e^(h arctan x) on the real line: a = x^2+1,
    b = (2q+2) x + h; m_0 is Cauchy's beta integral.  The last k with p x^k
    integrable (the reach), read once per matrix, gates every pair by m + n.
  - Laguerre, p = |x - t|^E e^(c x) on a half line from t: f is divided by
    (x - t) up to k = floor(-E) times when E <= -1, and a pair whose orders
    s = s_f + s_g reach k (key s - k) integrates |x - t|^A e^(c x),
    A = E + s > -1: a = x - t, b = 1 + A + c (x - t), and
    m_0 = Gamma(A+1) e^(ct) / |c|^(A+1), times (-1)^s left of t.  The generic
    gate below reads the same root orders.
* quadrature: by tanh-sinh, a finite-interval pair that does not reduce, on
  the interval, and every pair of a Gaussian factor e^(c2 x^2 + c1 x),
  c2 < 0, on the real line, with x = centre + scale artanh(t) on (-1, 1),
  centre = -c1/(2 c2), scale = 2/sqrt(-c2): after the sweep's
  t = tanh((pi/2) sinh u) that is the plain sinh substitution of an integrand
  that already decays super-exponentially (Takahasi and Mori, Publ. RIMS 9,
  1974).  No other weight has a map, and derive_weight gives none: a half
  line is Laguerre, and a real-line weight without a Gaussian factor is
  Romanovski or, with e^(c1 x) alone, has no integrable pair.  Any other
  weight is refused with a ValueError once a pair passes the integrability
  gate (the test oracles keep x = tan u for algebraic tails).

Exact zeros make orthogonality claims unambiguous: a moment entry's float
value is its ratio times m_0, 0.0 exactly when the ratio is 0.

A pair goes to quadrature when p f g is integrable.  One integrability read at
the largest m + n decides every pair when it holds; where it refuses, each
eigenfunction's root orders at the weight's roots are read once, and a pair's
sum raises the weight's exponents there, so no f g is formed for a verdict; on
a finite interval the degree plays no part, and the sum alone keys it.  A
zero f or g is an exact zero with no verdict read (0.0 on a moment shape).  A
Gram matrix makes one node sweep per weight, with one integrand
call per node pair +/- t: each node's abscissa, log p(x) and Jacobian are
computed once and shared by all pending entries, each of which still stops
on its own rule.  A Romanovski report is read off the Romanovski Gram
matrix: its verdicts map the Gram entries, and its eigenvalue collisions
always sit on the integrability boundary m + n + gamma + 1 = 0.  The weight
(cached on the WeightExpr) and each eigenfunction are converted to floats
once; a node evaluates each eigenfunction once, to a sign and
log p + log J + log|f(x)|, and an entry adds the other function's log|g(x)|,
so f*g is never formed (quadrature floats may differ in their last digits
from expanding it; exact entries do not).  Log space keeps weights with
strong (but integrable) endpoint singularities from overflowing or losing
endpoint distances; a root of an eigenfunction at a finite end where p's
exponent is <= -1 is divided out and added back as a log of the exact
endpoint distance.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations
from operator import add, mul
from typing import Callable, Sequence

from ._record import Record
from .eigen import EigenResult, eigentable
from .families import FamilyKind, FamilySpec, build_operator
from .operator import DiffOperator, Spectrum
from .quadrature import NoConvergence, QuadResult, _tanh_sinh_sweep
from .ratpoly import Poly, RatLike, horner, rat
from .weights import WeightExpr, derive_weight, integrability, moment_reach

__all__ = [
    "NotPolynomialReducible",
    "NonIntegrable",
    "DEFAULT_TOL",
    "inner_product_exact",
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
        self._reduce(polys)
        top = self.span + len(self.base.nums) + sum(need.values())
        # nu[s] = integral of x^s over (lo, hi) = (hi^s - lo^s)/s for hi = a/b, lo = c/d, as
        # ints over d_nu = L (b d)^t, L = lcm(1..t), t = top - 1:
        # nu[s] d_nu = (a^s d^s - c^s b^s) (L/s) (b d)^(t - s)
        a, b, c, d = iv.hi.numerator, iv.hi.denominator, iv.lo.numerator, iv.lo.denominator
        t, lcm, bd = top - 1, math.lcm(*range(1, top)), b * d
        nu = [((a * d) ** s - (c * b) ** s) * (lcm // s) * bd ** (t - s) for s in range(1, top)]
        self.d_nu, self.nu = lcm * bd**t, nu

    def _reduce(self, polys: dict[int, Poly]) -> None:
        """Each f divided by the divisors as far as it goes, cleared to ints; empty caches."""
        # label -> (denominator, numerators, multiplicity per divisor)
        self.reduced: dict[int, tuple[int, tuple[int, ...], list[int]]] = {}
        for label, f in polys.items():
            mults = []
            for r, k in self.divisors:
                f, s = f.strip_root(r, k)
                mults.append(s)
            self.reduced[label] = (f.den, f.nums, mults)
        self.span = 2 * max((len(c) for _, c, _ in self.reduced.values()), default=0)
        self.moments: dict[tuple[int, ...], tuple[int, list[int]]] = {}
        self.rows: dict[tuple[int, tuple[int, ...]], list[int]] = {}

    def key(self, m: int, n: int) -> tuple[int, ...]:
        """s_f + s_g - k per divisor (r, k): the power of (x - r) the pair leaves."""
        pairs = zip(self.divisors, self.reduced[m][2], self.reduced[n][2])
        key = tuple(sa + sb - k for (_, k), sa, sb in pairs)
        for (r, k), e in zip(self.divisors, key):
            if e < 0:
                raise NotPolynomialReducible(f"f*g is not divisible by (x - {r})^{k}")
        return key

    def _moments(self, key: tuple[int, ...]) -> tuple[int, list[int]]:
        """The power moments of P^e over their common denominator."""
        p = self.base
        for (r, _), e in zip(self.divisors, key):
            p = p * Poly((-r, 1)) ** e
        return p.den * self.d_nu, [sum(map(mul, p.nums, self.nu[t:])) for t in range(self.span)]

    def entry(self, m: int, n: int) -> Fraction:
        if len(self.reduced[m][1]) > len(self.reduced[n][1]):
            m, n = n, m
        (d_a, a, _), (d_b, b, _) = self.reduced[m], self.reduced[n]
        key = self.key(m, n)
        if key not in self.moments:
            self.moments[key] = self._moments(key)
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
# moment path


def _moment_ratios(a: Poly, b: Poly, steps: int) -> tuple[int, list[int]]:
    """[r_0, ..., r_steps] with r_k = m_k / m_0 for the Pearson pair (a, b), (p a)' = p b, as
    integer numerators over their lcm denominator, by the recurrence of the module docstring:
    step k is valid while the boundary term p a x^k vanishes, and its divisor
    s_k = k a2 + b1 is then nonzero.  The recurrence is blind to a common scale of a and b,
    so both are cleared to integers over one denominator; then r_k = n_k / (s_0 ... s_(k-1))
    with n_(k+1) = -(k a0 s_(k-1) n_(k-1) + (k a1 + b0) n_k), and one gcd reduces them all."""
    d = math.lcm(a.den, b.den)
    a0, a1, a2 = [v * (d // a.den) for v in (a.nums + (0, 0, 0))[:3]]
    b0, b1 = [v * (d // b.den) for v in (b.nums + (0, 0))[:2]]
    nums, divisors = [1], []
    for k in range(steps):
        nums.append(-((k * a0 * divisors[-1] * nums[k - 1] if k else 0) + (k * a1 + b0) * nums[k]))
        divisors.append(k * a2 + b1)
    den = 1  # over s_0 ... s_(steps-1): n_k times s_k ... s_(steps-1)
    for k in range(steps - 1, -1, -1):
        den *= divisors[k]
        nums[k] *= den
    g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
    return den // g, [v // g for v in nums]


# B_2k / (2k (2k - 1)), k = 1..7: Stirling's series for log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _real_line_moment(weight: WeightExpr, t: int = 0) -> float:
    """integral over R of p (1+x^2)^(t/2) for the Romanovski shape: m_0 at t = 0, else the
    scale of a pair m + n = t whose diagonal norms diverge.

    With x = tan u it is Cauchy's beta integral of cos(u)^nu e^(h u) over (-pi/2, pi/2),
    nu = -2q - t - 2 > -1: pi Gamma(nu+1) / (2^nu |Gamma(a + ib)|^2), a = 1 + nu/2,
    b = h/2, which the duplication formula turns into
    sqrt(pi) Gamma(a - 1/2) / Gamma(a) * |Gamma(a) / Gamma(a + ib)|^2.  The last factor
    is prod_(j<N) (1 + b^2 / (a+j)^2) times the same ratio at A = a + N >= 16, whose
    log, Re log Gamma(A + ib) - log Gamma(A), Stirling's series gives to double precision.
    """
    a = -weight.quad_exp - Fraction(t, 2)  # 1 + nu/2
    b = float(weight.arctan_coeff) / 2
    x = float(a - Fraction(1, 2))
    if a < 171:  # Gamma overflows a float beyond 171.6
        gammas = math.gamma(x) / math.gamma(float(a))
    else:
        gammas = math.exp(math.lgamma(x) - math.lgamma(float(a)))
    shift, num, den = 1.0, a.numerator, a.denominator  # a = num / den, shifted in ints
    while num < 16 * den:
        shift *= 1 + (b / (num / den)) ** 2
        num += den
    big = num / den
    # (A - 1/2) log|A + ib| - b arg(A + ib), less the same at b = 0
    log_ratio = (big - 0.5) * 0.5 * math.log1p((b / big) ** 2) - b * math.atan(b / big)
    inv_z, inv_a = 1 / complex(big, b), 1 / big
    power_z, power_a = inv_z, inv_a
    for c in _STIRLING:
        log_ratio += c * (power_z.real - power_a)
        power_z *= inv_z * inv_z
        power_a *= inv_a * inv_a
    return math.sqrt(math.pi) * gammas * shift * math.exp(-2 * log_ratio)


class _MomentForm(_ExactForm):
    """<f, g> on the moment route: _ExactForm's bilinear form over each key's integer-cleared
    r_k, r_0 .. r_steps, is an exact ratio to the key's float m_0 (module docstring).  The
    Romanovski shape has no divisor and one key; the Laguerre shape divides at its anchor.
    An entry is exact only where the integrability gate holds; the caller gates first."""

    def __init__(self, weight: WeightExpr, polys: dict[int, Poly], steps: int):
        self.weight, self.scale, self.steps = weight, weight.constant, steps
        self.m_0: dict[tuple[int, ...], float] = {}
        t = weight.interval.lo if weight.interval.hi is None else weight.interval.hi  # None on R
        self.divisors = () if t is None else ((t, max(math.floor(-weight.power_exponent_at(t)), 0)),)
        self._reduce(polys)

    def _moments(self, key: tuple[int, ...]) -> tuple[int, list[int]]:
        w = self.weight
        if not key:
            a, b = Poly((1, 0, 1)), Poly((w.arctan_coeff, 2 * w.quad_exp + 2))
            self.m_0[key] = _real_line_moment(w)
        else:
            ((t, k),) = self.divisors
            s = key[0] + k  # the pair's root orders at t
            power, c = w.power_exponent_at(t) + s + 1, w.exp_poly.coeff(1)  # A + 1 > 0
            a, b = Poly((-t, 1)), Poly((power - c * t, c))
            m_0 = math.exp(math.lgamma(power) + float(w.exp_poly(t)) - float(power) * math.log(abs(c)))
            self.m_0[key] = -m_0 if w.interval.lo is None and s % 2 else m_0
        return _moment_ratios(a, b, self.steps)

    def value(self, m: int, n: int) -> float:
        """The entry as a float, its ratio times its key's m_0; ValueError past a float's range."""
        try:
            value = float(self.entry(m, n)) * self.m_0[self.key(m, n)]
        except OverflowError:
            value = math.inf
        if math.isinf(value):
            raise ValueError(f"a moment entry on {self.weight.formula()} overflows a float")
        return value


# ---------------------------------------------------------------------------
# numeric path


def _integrand(
    weight: WeightExpr, funcs: Sequence[Poly], pairs: Sequence[tuple[int, int]]
) -> tuple[Callable, float, float]:
    """(f, lo, hi) for _tanh_sinh_sweep: f(u_hi, u_lo, d_near, d_far, active) lists, at both
    nodes of a pair, p f_i f_j times the Jacobian of the interval's map x(u) (module
    docstring) per active pair (i, j) of indices into funcs.

    A node's x, log p(x) and log-Jacobian are computed once for all pairs.  Each f_i that an
    active pair needs is evaluated once per node, to a sign and log p + log J + log|f_i(x)|,
    and a pair adds log|f_j(x)| to that; f_i f_j is never formed.  Off [-1, 1] on the real
    line, log|f_i(x)| is deg*log|x| plus the log of the reversed polynomial at 1/x: Horner
    in x would not overflow at the sinh map's nodes (|x| <= 203 for hermite(-1, 3) at 20),
    but raised Hermite's n = 20 off-diagonal maximum from 5.2e-14 to 1.4e-13 for the preset,
    and from 8.4e-10 to 1.2e-9 for hermite(-1, 3).  At a finite end where p's exponent is
    <= -1, Horner's f_i(x) near a root of f_i there is all cancellation, which p turns into
    a divergent integrand: the root is divided out once and comes back as s*log(d) from the
    sweep's exact endpoint distance d.  The pair list and the needed f_i are rebuilt only
    when the sweep's active list changes.
    """
    iv, exp_poly = weight.interval, weight.exp_poly
    # the finite ends a root is divided out at, None for the others
    ends = [
        r if r is not None and weight.power_exponent_at(r) <= -1 else None for r in (iv.lo, iv.hi)
    ]
    cs, rev, degs, roots = [], [], [], []
    for p in funcs:
        mults = []
        for r in ends:
            p, s = p.strip_root(r, int(p.degree)) if r is not None and p else (p, 0)
            mults.append(s)
        c = tuple([v / p.den for v in p.nums])  # float(Fraction) to the bit, once, not per node
        cs.append(c)
        rev.append(c[::-1])
        degs.append(len(c) - 1)
        roots.append(tuple(mults) if any(mults) else None)
    count = len(funcs)
    signs, logs, based = [0.0] * count, [0.0] * count, [0.0] * count
    exp, log, copysign, inf = math.exp, math.log, math.copysign, math.inf
    shape = _shape(weight)
    finite = shape == "finite"
    if finite:
        lo, hi = float(iv.lo), float(iv.hi)

        def node(x: float, d_lo: float, d_hi: float) -> tuple:
            return x, weight.log_eval(x, d_lo, d_hi), 0.0, d_lo, d_hi  # the identity map: log 1

    elif shape == "gaussian":
        lo, hi = -1.0, 1.0  # a Gaussian factor e^(c2 x^2 + c1 x): the module docstring's map
        c1, c2 = exp_poly.coeff(1), exp_poly.coeff(2)
        centre, scale = float(-c1 / (2 * c2)), 2.0 / math.sqrt(float(-c2))
        log_scale = log(scale)

        def node(t: float, d_lo: float, d_hi: float) -> tuple:
            log_lo, log_hi = log(d_lo), log(d_hi)  # artanh(t) = (log_lo - log_hi) / 2
            x = centre + scale * ((log_lo - log_hi) / 2.0)
            return x, weight.log_eval(x), log_scale - log_lo - log_hi, None, None

    else:
        raise ValueError(f"no quadrature map for {weight.formula()} on {iv.describe()}")

    last: list = []  # the sweep's active list when act and need were built
    act: list[tuple[int, int]] = []  # its pairs
    need: list[int] = []  # the f_i they read

    def values(u: float, d_lo: float, d_hi: float) -> list[float]:
        x, lw, log_jac, e_lo, e_hi = node(u, d_lo, d_hi)
        base = lw + log_jac
        near = finite or abs(x) <= 1.0
        if not near:
            inv_x, log_x = 1.0 / x, log(abs(x))
        for i in need:
            if near:
                v, log_scale = horner(cs[i], x), 0.0
            else:  # the reversed polynomial at 1/x is f_i(x)/x^deg
                v, log_scale = horner(rev[i], inv_x), degs[i] * log_x
                if x < 0 and degs[i] % 2:
                    v = -v
            if not v:
                signs[i] = 0.0  # zeroes its entries; its logs go unread
                continue
            log_f = log_scale + log(abs(v))
            if roots[i] is not None:
                s_lo, s_hi = roots[i]
                if s_lo:
                    log_f += s_lo * (log(e_lo) if e_lo else -inf)
                if s_hi:
                    log_f += s_hi * (log(e_hi) if e_hi else -inf)
                    if s_hi % 2:  # (x - hi)^s_hi < 0 inside
                        v = -v
                if log_f == -inf:  # a node on the end itself, where f_i is 0
                    signs[i] = 0.0
                    continue
            signs[i], logs[i], based[i] = copysign(1.0, v), log_f, base + log_f
        # sign * e^(log p + log J + log|f_i| + log|f_j|), 0 for a zero sign or magnitude
        return [
            0.0 if (sign := signs[i] * signs[j]) == 0.0 or (mag := based[i] + logs[j]) == -inf
            else copysign(inf, sign) if mag > 708.0 else sign * exp(mag)
            for i, j in act
        ]

    def f(u_hi: float, u_lo: float, d_near: float, d_far: float, active: list[int]):
        nonlocal last, act, need
        if active is not last:
            last, act = active, [pairs[k] for k in active]
            need = sorted({i for pair in act for i in pair})
        return values(u_hi, d_far, d_near), values(u_lo, d_near, d_far)

    return f, lo, hi


def _numeric_quad(
    weight: WeightExpr, funcs: Sequence[Poly], pairs: Sequence[tuple[int, int]], tol: float
) -> list[QuadResult]:
    """Quadrature of p f_i f_j for every index pair (i, j) into funcs, on one node
    sweep; raises the NoConvergence of the first pair, in list order, that fails."""
    f, lo, hi = _integrand(weight, funcs, pairs)
    results = _tanh_sinh_sweep(f, len(pairs), lo, hi, tol)
    for res in results:
        if isinstance(res, NoConvergence):
            raise res
    return results


# ---------------------------------------------------------------------------
# routing


def _shape(weight: WeightExpr) -> str | None:
    """The weight's route: "romanovski" or "laguerre", the moment route; "finite", exact
    where the pair reduces, else quadrature on the interval; "gaussian", quadrature on the
    sinh map (module docstring); None, no route."""
    iv, factors, exp_poly = weight.interval, weight.power_factors, weight.exp_poly
    if iv.finite:
        return "finite"
    if iv.lo is None and iv.hi is None:
        if weight.quad_exp is not None and not factors and not exp_poly:
            return "romanovski"
        return "gaussian" if exp_poly.degree == 2 and exp_poly.leading() < 0 else None
    anchor = iv.lo if iv.hi is None else iv.hi
    if weight.quad_exp or weight.arctan_coeff or exp_poly.degree != 1:
        return None
    return "laguerre" if all(pf.root == anchor for pf in factors) else None


def _route(
    weight: WeightExpr, funcs: Sequence[Poly | None], pairs: Sequence[tuple[int, int]], tol: float
) -> list[tuple]:
    """(value, method, integrable, err_est, note) per index pair (i, j) into funcs, by the
    routes and the integrability gate of the module docstring.  funcs[d] is None where
    degree d has no eigenfunction; such a pair has no value and its degree's verdict."""
    if not 0 < tol < math.inf:  # refused also when no entry needs the sweep, which checks it
        raise ValueError(f"tol must be a finite positive number, not {tol}")
    degree = [d if f is None else max(f.degree, 0) for d, f in enumerate(funcs)]
    top = max((degree[i] + degree[j] for i, j in pairs), default=0)
    known = {i: f for i, f in enumerate(funcs) if f}  # not None, not zero
    shape = _shape(weight)
    moment = shape in ("romanovski", "laguerre")
    form = None
    if moment:  # r_k past the Romanovski reach is no moment; Laguerre keys have them all
        reach = moment_reach(weight) if shape == "romanovski" else math.inf
        form = _MomentForm(weight, known, min(reach, top))
    elif shape == "finite":
        try:
            form = _ExactForm(weight, known)
        except NotPolynomialReducible:
            pass
    if shape == "romanovski":  # its reach is the shape's one integrability decision
        integrable = lambda i, j: degree[i] + degree[j] <= reach
    else:
        roots = sorted({pf.root for pf in weight.power_factors})
        orders = functools.cache(lambda i: [known[i].strip_root(r, degree[i])[1] for r in roots])
        finite, zeros = shape == "finite", (0,) * len(roots)

        @functools.cache
        def verdict(k: int, s: tuple[int, ...]) -> bool:
            """Is p times (x - r)^s_r at each root r of p times a degree-k polynomial
            integrable?  Each root of f g at a root of p raises p's exponent there."""
            factor = math.prod((Poly((-r, 1)) ** e for r, e in zip(roots, s)), start=Poly.one())
            return integrability(weight, k, factor).integrable

        def holds(k: int, s: tuple[int, ...]) -> bool:
            """verdict for degree k with root orders s; the degree counts only at an
            infinite end, so on a finite interval the root orders alone are the key."""
            return verdict(0 if finite else k - sum(s), s)

        def integrable(i: int, j: int) -> bool:
            # the verdict is monotone in the degree: one read at the largest m + n decides
            # every pair when it holds, and only where it refuses do root orders count
            if holds(top, zeros):
                return True
            both = funcs[i] is not None and funcs[j] is not None  # else the degree alone
            s = tuple(map(add, orders(i), orders(j))) if both else zeros
            return holds(degree[i] + degree[j], s)

    def exact(i: int, j: int) -> Fraction | None:
        try:
            return form.entry(i, j) if form is not None else None
        except NotPolynomialReducible:
            return None

    zero = (0.0, "moment", True, None, None) if moment else (Fraction(0), "exact", True, None, None)
    refused = (None, None, False, None, "non-integrable")
    routes: list[tuple] = []
    for i, j in pairs:
        if funcs[i] is None or funcs[j] is None:
            routes.append((None, None, integrable(i, j), None, "no degree-exact eigenfunction"))
        elif i not in known or j not in known:  # f or g is zero
            routes.append(zero)
        elif moment:  # gate first: a pair it refuses has no moment
            routes.append((form.value(i, j), "moment", True, None, None) if integrable(i, j) else refused)
        elif (value := exact(i, j)) is not None:
            routes.append((value, "exact", True, None, None))
        else:
            routes.append((None, "quadrature", True, None, None) if integrable(i, j) else refused)
    pending = [k for k, route in enumerate(routes) if route[1] == "quadrature"]
    slot = {d: k for k, d in enumerate(sorted({d for k in pending for d in pairs[k]}))}
    swept = [(slot[i], slot[j]) for i, j in (pairs[k] for k in pending)]
    results = _numeric_quad(weight, [funcs[d] for d in slot], swept, tol) if pending else []
    for k, res in zip(pending, results):
        routes[k] = (res.value, "quadrature", True, res.err_est, None)
    return routes


def inner_product(
    weight: WeightExpr, f: Poly, g: Poly, tol: float = DEFAULT_TOL
) -> tuple[Fraction | float, str, float | None]:
    """Route a pair as a Gram matrix does: moment, exact, else quadrature.

    Returns (value, method, err_est) with method "exact", "moment" or "quadrature",
    the Gram entry's to the bit.  Raises NonIntegrable when p f g is not integrable
    and NoConvergence when the quadrature's level budget runs out.
    """
    value, method, integrable, err_est, _ = _route(weight, [f, g], [(0, 1)], tol)[0]
    if not integrable:
        raise NonIntegrable(
            f"p f g of degree {f.degree + g.degree} is not integrable on {weight.interval.describe()}"
        )
    return value, method, err_est


# ---------------------------------------------------------------------------
# Gram matrices


class GramEntry(Record):
    m: int
    n: int
    value: Fraction | float | None
    method: str | None  # "exact" | "moment" | "quadrature" | None
    integrable: bool
    err_est: float | None = None
    relative: float | None = None
    note: str | None = None


class OrthoReport(Record):
    family: str
    max_degree: int
    degrees: tuple[int, ...]
    weight: str
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

    def format_table(self) -> str:
        lines = [
            f"family: {self.family}",
            f"weight: {self.weight} on {self.interval}",
        ]
        for note in self.notes:
            lines.append(f"note: {note}")
        cells = []
        for e in self.entries:
            if not e.integrable:
                value, rel = "non-integrable", ""
            elif e.value is None:
                value, rel = e.note or "-", ""
            else:
                value = str(e.value) if isinstance(e.value, Fraction) else f"{e.value:.3e}"
                rel = "" if e.relative is None else f"{e.relative:.3e}"
            cells.append((e, value, rel))
        width = max([24] + [len(value) for _, value, _ in cells])  # no cell shifts `relative`
        header = f"{'m':>3} {'n':>3} {'method':>10} {'value':>{width}} {'relative':>12}"
        lines.append(header)
        lines.append("-" * len(header))
        for e, value, rel in cells:
            lines.append(f"{e.m:>3} {e.n:>3} {e.method or '-':>10} {value:>{width}} {rel:>12}")
        if self.off_diagonal_max_relative is not None:
            lines.append(
                f"max off-diagonal relative entry: {self.off_diagonal_max_relative:.3e}"
            )
        return "\n".join(lines)


def _gram_for(
    table: Sequence[EigenResult],
    weight: WeightExpr,
    degrees: Sequence[int],
    family_label: str,
    tol: float = DEFAULT_TOL,
    notes: tuple[str, ...] = (),
) -> OrthoReport:
    """The Gram entries over degrees of the eigenfunctions in table (indexed by degree)."""
    pairs = [(m, n) for i, m in enumerate(degrees) for n in degrees[i:]]
    routes = _route(weight, [r.monic for r in table], pairs, tol)
    # 0.0 where the norm has no value
    diag = {m: float(route[0] or 0) for (m, n), route in zip(pairs, routes) if m == n}
    # the Romanovski scale of a pair whose diagonal norms diverge; a Laguerre pair has none
    romanovski = _shape(weight) == "romanovski"
    moment_scale = functools.cache(lambda t: _real_line_moment(weight, t))
    entries: list[GramEntry] = []
    for (m, n), (value, method, ok, err_est, note) in zip(pairs, routes):
        rel = None
        if m != n and value is not None:
            if diag[m] > 0 and diag[n] > 0:
                rel = abs(float(value)) / math.sqrt(diag[m] * diag[n])
            elif romanovski:
                rel, note = abs(value) / moment_scale(m + n), "relative uses moment scale"
        entries.append(GramEntry(m, n, value, method, ok, err_est, rel, note))
    max_rel = max((e.relative for e in entries if e.relative is not None), default=None)
    unscaled = sum(1 for e in entries if e.m != e.n and e.value and e.relative is None)
    if unscaled:
        notes += ("nonzero off-diagonal entries without a scale (a diagonal norm diverges), "
                  f"which the max relative skips: {unscaled}",)
    above = [e.relative for e in entries if e.relative is not None and e.relative > tol]
    if above:
        notes += (f"off-diagonal entries with relative above tol {tol:g}: {len(above)}, "
                  f"max {max(above):.3e}",)

    return OrthoReport(
        family=family_label,
        max_degree=max(degrees, default=0),
        degrees=tuple(degrees),
        weight=weight.formula(),
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
    return _gram_for(eigentable(op, n_max), weight, degrees, spec.describe(), tol, notes)


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
    return _gram_for(eigentable(op, n_max), weight, degrees, "custom operator", tol)


# ---------------------------------------------------------------------------
# Romanovski finite orthogonality


class RomanovskiPair(Record):
    m: int
    n: int
    # "orthogonal" | "non-integrable" | "inconclusive"; collision pairs are non-integrable
    verdict: str
    value: float | None = None
    relative: float | None = None
    err_est: float | None = None
    detail: str = ""


class RomanovskiReport(Record):
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    max_degree: int
    statuses: tuple[str, ...]
    degenerate_degree_pairs: tuple[tuple[int, int], ...]
    pairs: tuple[RomanovskiPair, ...]

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


def finite_orthogonality_report(alpha: RatLike, beta: RatLike, n_max: int) -> RomanovskiReport:
    """Pairwise orthogonality verdicts for the Romanovski family, read off its
    Gram matrix, which takes the moment route: no quadrature runs.

    A pair (m, n) is checked only when m + n + gamma + 1 < 0 (product
    integrability, gamma = alpha - 2); pairs violating that are flagged
    non-integrable.  A checked pair is orthogonal when its exact ratio to m_0
    is 0 (its value then is 0.0), else inconclusive.  Eigenvalues collide
    (integer alpha) only on that boundary: mu_m = mu_n with m != n forces
    m + n = 1 - alpha, so m + n + gamma + 1 = 0 and no collision pair is ever
    called orthogonal.
    """
    alpha, beta = rat(alpha), rat(beta)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    spec = FamilySpec.romanovski(alpha, beta)
    op = build_operator(spec)
    weight = derive_weight(op.coeffs[2], op.coeffs[1])
    gamma = alpha - 2
    table = eigentable(op, n_max)
    gram = _gram_for(table, weight, range(n_max + 1), spec.describe())
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
            verdict = "orthogonal" if e.value == 0 else "inconclusive"
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
