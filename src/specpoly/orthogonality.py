"""Weighted inner products <f, g> = integral p f g and Gram matrices.

Routing policy: one router serves Gram matrices and inner_product alike, and
takes one of three routes per pair.  weights._classify alone names the route,
once per call, from the four shapes derive_weight gives (Bochner's
classification): Jacobi on a finite interval, Laguerre on a half line,
Romanovski or Gaussian on the real line.

* exact and moment: on the three shapes below every moment m_k = integral
  p x^k is an exact rational r_k times m_0.  From a Pearson pair (a, b),
  (p a)' = p b (the moment functional; Chihara, An Introduction to
  Orthogonal Polynomials, 1978), integrating (p a x^k)' = p (k a x^(k-1) +
  b x^k) gives m_(k+1) = -(k a0 m_(k-1) + (k a1 + b0) m_k) / (k a2 + b1)
  while the boundary term p a x^k vanishes.  At each division (r, k_r) of the
  integrability rule, a finite end where p's summed exponent E_r is <= -1 and
  k_r = floor(-E_r), the router has divided each eigenfunction by (x - r) up to
  k_r times (below), and a pair whose root orders s_r = s_f + s_g reach k_r
  (key s_r - k_r >= 0) integrates p prod (x - r)^s_r, with exponent
  A_r = E_r + s_r > -1 at r and the sign (-1)^s_r at the upper end;
  _moment_block takes E_r from _classify's rule and values only such pairs.
  One pair serves every shape: the operator's own, which a Gram matrix
  passes, and WeightExpr.pearson_pair, the same up to scale, for
  inner_product.  a has a simple root at each finite end, where p a x^k
  vanishes, and a key's p prod (x - r)^s_r has the pair
  (a, b + sum s_r a/(x - r)): a key adds s_r times one fixed polynomial per
  end to b.  One helper, _keyed_pair, builds a key's pair in ints and its
  m_0, for the block's keys and Favard's alike.
  An entry is a bilinear form over its key's r_k, cleared to integers over
  one denominator: O(n^3) operations for an n x n Gram matrix, no polynomial
  product per entry and one Fraction per nonzero entry (every exact zero is
  one shared Fraction(0)).  A Gram matrix's pairs are answered as one block,
  which reads each key's moments once and builds each row once per degree
  and key.  Each shape keeps its own m_0:
  - Jacobi, p = |x - lo|^E_lo |x - hi|^E_hi on a finite interval, the exact
    route: integer exponents, so A_r >= 0, and
    m_0 = (hi - lo)^(A_lo+A_hi+1) A_lo! A_hi! / (A_lo+A_hi+1)! is rational,
    folded into the entry, which is then the exact integral, with no float.
    _classify leaves a weight with a factor rooted off the ends, a non-integer
    exponent, an (x^2+1) or a transcendental factor to quadrature.
  - Romanovski, p = (x^2+1)^q e^(h arctan x) on the real line: m_0 is
    Cauchy's beta integral.  The last k with p x^k integrable is the rule's
    reach, and the router refuses every pair with m + n past it.
  - Laguerre, p = |x - t|^E e^(c x) on a half line from t: k = floor(-E)
    when E <= -1, A = E + s > -1, and m_0 = Gamma(A+1) e^(ct) / |c|^(A+1).
    A hand-built half line whose e^(c x) grows toward its infinite end has
    reach -1: no pair is integrable.
  These two are the moment route: m_0 is a float, and an entry is its exact
  ratio to m_0 (times the weight's constant) times that float.
* quadrature: by tanh-sinh, every pair of a finite-interval weight off the
  exact route, on the interval, and of a Gaussian factor e^(c2 x^2 + c1 x),
  c2 < 0, on the real line, with x = centre + scale artanh(t) on (-1, 1),
  centre = -c1/(2 c2), scale = 2/sqrt(-c2): after the sweep's
  t = tanh((pi/2) sinh u) that is the plain sinh substitution of an integrand
  that already decays super-exponentially (Takahasi and Mori, Publ. RIMS 9,
  1974).  No other weight has a map.  A weight of derive_weight's without a
  route, |x - r|^E on a half line or e^(c2 x^2 + c1 x) with c2 >= 0 on the
  real line, has no integrable pair, so the ValueError ("no quadrature map")
  that refuses a weight once the router finds a pair integrable is raised
  only for a hand-built weight (the test oracles keep x = tan u for
  algebraic tails).

Certified entries (PAPER.md's argument; Raposo, Weber, Alvarez-Castillo and
Kirchbach, arXiv:0706.3897 for Romanovski): for eigenfunctions L f = lambda_m f
and L g = lambda_n g of L = a D^2 + b D, (p a)' = p b gives
(lambda_m - lambda_n) p f g = (p a (f' g - f g'))'.  The boundary term vanishes
at an end without a division for every pair the router values: a finite end
has E_r > -1, so p a has a positive exponent; a half line's e^(c x) decays; on
the Romanovski shape the router asks only pairs inside the reach,
m + n + 2q + 1 < 0, which is the power of the boundary term.  At a division
(r, k_r), a simple root of a, the term has the order A_r = E_r + s_f + s_g when
s_f != s_g and more when they are equal; with the key s_f + s_g - k_r >= 0,
A_r = E_r + k_r + key and -1 < E_r + k_r <= 0, so it vanishes where the key is
>= 1 or s_f == s_g (key 0 then makes s_f = k_r / 2 < k_r an exact root order),
for integer and non-integer E_r, and need not elsewhere (laguerre(-1, 0)'s
(0, n) are 1, -1, 2).  The router certifies entries only in the certified
regime below, where every pair has s_f == s_g; outside it the block values
every integrable pair from its rows, and its value is an exact zero wherever
the rule holds.  The router reads the eigenvalues once per Gram matrix,
lambda_k = k (k-1) a2 + k b1 off the Pearson pair (the eigentable's less L's
constant term), for the regime's test alone.

The certified regime (Favard's recurrence; Chihara 1978): on a block route where
lambda_0 .. lambda_(n+1) are pairwise distinct for the highest degree n, every
degree d has one monic eigenfunction f_d.  At a division (r, k_r) its Taylor
coefficients c_j at r obey (j+1) a'(r) (j + E_r + 1) c_(j+1) = (lambda_d -
lambda_j) c_j (the indicial law), so its root order is -E_r where E_r is an
integer in [-d, -1], else 0.  The regime also asks E_r = -k_r at each division
and no degree below K = sum k_r, so every degree has the class (k_r) and every
pair the key (k_r) >= 1 with s_f == s_g.  Every off-diagonal within the reach is
then the certified zero, every diagonal within it is Favard's below, and the
reach refuses by degree alone, so no verdict and no value reads an
eigenfunction: a Gram matrix (chaudhry-qadir's, from degree 1, too, but not
laguerre(-1, 0)'s, from 0) and a Romanovski report build no operator matrix and
no eigentable, and call no block.  For the monic
p_k = x^k + c_k x^(k-1) + d_k x^(k-2) + ... of (a, b), x p_k = p_(k+1) +
beta_k p_k + gamma_k p_(k-1) gives G_kk = G_00 gamma_1 ... gamma_k, from
  c_k = k ((k-1) a1 + b0) / (lambda_k - lambda_(k-1)),
  d_k = (k (k-1) a0 + c_k (k-1) ((k-2) a1 + b0)) / (lambda_k - lambda_(k-2)),
  beta_k = c_k - c_(k+1),  gamma_k = d_k - d_(k+1) - beta_k c_k;
gamma_n reads p_(n+1)'s top coefficients, hence the bound n + 1.  At the
divisions the quotients f_d / prod (x - r)^k_r are the p_(d-K) of the shifted
pair (a, b + sum 2 k_r a/(x - r)) of p prod (x - r)^(2 k_r), with the distinct
eigenvalues lambda_(j+K) - lambda_K.  That pair and G_00 are _keyed_pair's at
orders 2 k_r, the block's at the same key, so an exact diagonal is the same
Fraction as the block's row and a moment diagonal float(constant gamma_1 ...
gamma_k) times the same float m_0, bit for bit.

Exact zeros make orthogonality claims unambiguous: a moment entry's float
value is its ratio times m_0, 0.0 exactly when the ratio is 0 (an m_0, or the
value of a nonzero ratio, that reads 0.0 is refused as an underflow, as one
that reads inf is as an overflow).  An off-diagonal's relative is 0.0 wherever
its value is 0, whatever its diagonals.
On the Romanovski shape, a = c (x^2+1), b = b1 x + b0, every valued off-diagonal
is an exact zero: two eigenvalues collide only at m + n = 1 - b1/c, past the
reach.

The router makes every decision, once, on every route, and the block only
computes.  It reads _classify's rule (route, divisions, reach, exponents) once
per Gram matrix or inner_product call, hands the route to the node sweep and the
Gram assembly and the whole rule to the block, and strips each eigenfunction
once at each division (r, k), capped at k, in ints (_reduce): its root orders
are its class, and its quotient the block's input.
Each class pair is judged once, by its key s_f + s_g - k per division, refused
when a part is negative; a pair is integrable when its class pair's key is and
deg f + deg g is within the reach, so no f g is formed for a verdict.  A degree
with no eigenfunction is integrable when no end divides and m + n is within
the reach.  A zero f or g is an exact zero with no verdict read (0.0 on a
moment shape).  The block, with each pair's key, Favard's recurrence in the
certified regime, or the node sweep then values the integrable pairs only,
finished: the router reads nothing back.  A Gram report stores the router's
answer (OrthoReport._answer: in the regime, the diagonals and the reach) and
builds its entries, their relatives and its notes on first read.  A Gram matrix
makes one node sweep per weight (quadrature._product_sweep), with one evaluation
per node: each node's abscissa, log p(x) and Jacobian are computed once and
shared by all pending entries, each of which still stops on its own rule.  A
Romanovski report stores the Romanovski Gram report: its verdicts map the Gram
entries on first read, and its eigenvalue collisions, in closed form, always
sit on the integrability boundary m + n + gamma + 1 = 0; its statuses, the
collision law's in (alpha, beta), build nothing.  The weight (cached on
the WeightExpr) and each eigenfunction are converted to floats once; a node
evaluates each eigenfunction once, to a sign and log p + log J + log|f(x)|, and
an entry adds the other function's log|g(x)|, so f*g is never formed (quadrature
floats may differ in their last digits from expanding it; exact entries do not).
Log space keeps weights with strong (but integrable) endpoint singularities from
overflowing or losing endpoint distances; a root of an eigenfunction at a finite
end where p's exponent is <= -1 is divided out and added back as a log of the
exact endpoint distance.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from operator import add, mul, sub

from ._record import Record
from .eigen import EigenStatus, eigentable
from .families import FamilyKind, FamilySpec, build_operator
from .operator import DiffOperator
from .quadrature import DEFAULT_TOL, NoConvergence, QuadResult, _product_sweep
from .ratpoly import Poly, RatLike, _divide_linear, _strip_linear, rat
from .weights import WeightExpr, _classify, _pair_ints, derive_weight

__all__ = [
    "NonIntegrable",
    "inner_product",
    "GramEntry",
    "OrthoReport",
    "gram_matrix",
    "RomanovskiPair",
    "RomanovskiReport",
    "finite_orthogonality_report",
]


class NonIntegrable(ValueError):
    """The weighted product is not integrable over the interval."""


_ZERO = Fraction(0)  # every exact zero entry
_REFUSED = (None, None, False, None, "non-integrable")  # the router's answer to a refused pair

# ---------------------------------------------------------------------------
# exact and moment paths


def _moment_ratios(
    pair: Sequence[int], steps: int, num: int = 1, den: int = 1
) -> tuple[int, list[int]]:
    """[c r_0, ..., c r_steps], r_k = m_k / m_0 for the Pearson pair a = a0 + a1 x + a2 x^2,
    b = b0 + b1 x, (p a)' = p b, given as the ints (a0, a1, a2, b0, b1), and c = num / den,
    as integer numerators over their lcm denominator, by the recurrence of the module
    docstring: step k is valid while the boundary term p a x^k vanishes, and its divisor
    s_k = k a2 + b1 is then nonzero.  The recurrence is blind to a common scale of a and b,
    so the pair may carry any one; then r_k = n_k / (s_0 ... s_(k-1)) with
    n_(k+1) = -(k a0 s_(k-1) n_(k-1) + (k a1 + b0) n_k).  One gcd reduces them all once c is
    in: with c = m_0 they are the moments, whose denominators are far smaller than the
    divisors' product."""
    a0, a1, a2, b0, b1 = pair
    nums, divisors = [1], []
    for k in range(steps):
        nums.append(-((k * a0 * divisors[-1] * nums[k - 1] if k else 0) + (k * a1 + b0) * nums[k]))
        divisors.append(k * a2 + b1)
    # over c's denominator and s_0 ... s_(steps-1): n_k times c's numerator and s_k ... s_(steps-1)
    nums[-1] *= num
    for k in range(steps - 1, -1, -1):
        num, den = num * divisors[k], den * divisors[k]
        nums[k] *= num
    g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
    return den // g, [v // g for v in nums]


# B_2k / (2k (2k - 1)), k = 1..7: Stirling's series for log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _real_line_moment(weight: WeightExpr) -> float:
    """m_0, the integral over R of p, for the Romanovski shape.

    With x = tan u it is Cauchy's beta integral of cos(u)^nu e^(h u) over (-pi/2, pi/2),
    nu = -2q - 2 > -1: pi Gamma(nu+1) / (2^nu |Gamma(a + ib)|^2), a = 1 + nu/2 = -q > 1/2,
    b = h/2, which the duplication formula turns into
    sqrt(pi) Gamma(a - 1/2) / Gamma(a) * |Gamma(a) / Gamma(a + ib)|^2.  Both factors are
    prod_(j<N) of (a+j) / (a+j-1/2) and (1 + b^2 / (a+j)^2), exact steps in integers, times
    the same factors at A = a + N >= 16, whose logs Stirling's series gives to double
    precision: no two large logs are subtracted, whatever the size of a.
    """
    a = -weight.quad_exp
    b = float(weight.arctan_coeff) / 2
    shift, num, den = 1.0, a.numerator, a.denominator  # a = num / den, shifted in ints
    while num < 16 * den:
        shift *= 2 * num / (2 * num - den) * (1 + (b * den / num) ** 2)
        num += den
    big = num / den
    # log Gamma(A - 1/2) - log Gamma(A), and (A - 1/2) log|A + ib| - b arg(A + ib) less
    # the same at b = 0, before their series terms
    log_half = 0.5 - 0.5 * math.log(big) + (big - 1) * math.log1p(-0.5 / big)
    log_ratio = (big - 0.5) * 0.5 * math.log1p((b / big) ** 2) - b * math.atan(b / big)
    inv_z, inv_h, inv_a = 1 / complex(big, b), 1 / (big - 0.5), 1 / big
    power_z, power_h, power_a = inv_z, inv_h, inv_a
    for c in _STIRLING:
        log_half += c * (power_h - power_a)
        log_ratio += c * (power_z.real - power_a)
        power_z *= inv_z * inv_z
        power_h *= inv_h * inv_h
        power_a *= inv_a * inv_a
    return math.sqrt(math.pi) * shift * math.exp(log_half - 2 * log_ratio)


def _keyed_pair(
    weight: WeightExpr, pearson: tuple[Poly, Poly], rule: tuple, key: Sequence[int]
) -> tuple[tuple[int, int, int, int, int], int, int, float | None]:
    """(pair, num, den, m_0) of a key, for the weight times prod (x - r)^s_r with the root
    orders s_r = k_r + key_r at the rule's divisions (r, k_r), each at a finite end: pair is
    that weight's Pearson pair (a, b + sum s_r a/(x - r)) in ints (_pair_ints'), num / den
    the weight's constant times, on the exact route, the signed rational m_0, and m_0 the
    float m_0 on the moment route (None on the exact route; math.inf where it overflows), by
    the module docstring's recipes."""
    route, divisions, _, exponents = rule
    a0, a1, a2, b0, b1 = _pair_ints(pearson)
    iv, constant = weight.interval, weight.constant
    ends = [r for r in (iv.lo, iv.hi) if r is not None]
    powers = [0] * len(ends)  # s_r at each finite end
    for (r, k), e in zip(divisions, key):  # a/(x - r) = q a/(q x - p)
        powers[ends.index(r)] = s = k + e
        s0, s1 = _divide_linear((a0, a1, a2), r.numerator, r.denominator)
        b0, b1 = b0 + s * r.denominator * s0, b1 + s * r.denominator * s1
    pair = a0, a1, a2, b0, b1
    sign = (-1) ** powers[-1] if iv.hi is not None else 1
    num, den = constant.numerator, constant.denominator
    if route == "exact":  # m_0 = (hi - lo)^(A1+A2+1) A1! A2! / (A1+A2+1)!, integer E
        (l1, l2), (h1, h2) = (iv.lo.as_integer_ratio(), iv.hi.as_integer_ratio())
        p1, p2 = [int(e) + s + 1 for e, s in zip(exponents, powers)]  # A + 1 > 0 per end
        num *= sign * (l2 * h1 - l1 * h2) ** (p1 + p2 - 1)
        den *= (l2 * h2) ** (p1 + p2 - 1) * (p1 + p2 - 1) * math.comb(p1 + p2 - 2, p1 - 1)
        return pair, num, den, None
    try:
        if route == "romanovski":
            return pair, num, den, _real_line_moment(weight)
        # "laguerre": p = |x - t|^A e^(c x) on a half line from t
        (t,) = ends
        power, c = exponents[0] + powers[0] + 1, weight.exp_poly.coeff(1)
        log_m_0 = math.lgamma(power) + float(weight.exp_poly(t)) - float(power) * math.log(abs(c))
        return pair, num, den, sign * math.exp(log_m_0)
    except OverflowError:
        return pair, num, den, math.inf


def _finish(weight: WeightExpr, ratios: Sequence[Fraction], m_0s: Sequence[float]) -> list[float]:
    """The moment route's values: each exact ratio's float times its key's float m_0.  A
    ValueError refuses them where an m_0 or a value is past a float's range: one that reads
    inf overflows, and an m_0, or the value of a nonzero ratio, that reads 0.0 underflows."""
    formula = weight.formula()
    try:
        values = [float(ratio) * m_0 for ratio, m_0 in zip(ratios, m_0s)]
    except OverflowError:  # a ratio past a float's range
        values = [math.inf]
    if not all(map(math.isfinite, [*m_0s, *values])):
        raise ValueError(f"a moment entry on {formula} overflows a float")
    if not all(m_0s) or any(ratio and not value for ratio, value in zip(ratios, values)):
        raise ValueError(f"a moment entry on {formula} underflows a float")
    return values


def _moment_block(
    weight: WeightExpr, pearson: tuple[Poly, Poly], rule: tuple, reduced: dict,
    pairs: Sequence[tuple[int, int]], keys: Sequence[tuple[int, ...]],
) -> list[Fraction | float]:
    """The finished value of <f, g> = integral p f g per label pair (m, n) in pairs, on the
    Pearson moments of the module docstring: a valuer, which decides nothing.  The router
    hands it _classify's rule, each label's reduced f~ (f = f~ prod (x - r)^s for its root
    orders s at the divisions (r, k)), and the integrable pairs with their keys
    s_f + s_g - k >= 0 per division.  A pair is sum_i f~_i L(i) with
    L(i) = sum_j g~_j r_(i+j), r its key's moment ratios, in ints over their denominators:
    O(n^3) for an n x n Gram matrix, and one Fraction per nonzero entry.  Each key's moments
    are read once, and each row L once per (label, key), for the label with the longer f~.
    On the exact route r carries the rational m_0 and the entry is the integral; on the
    moment route _finish makes it the float of its ratio times its key's float m_0, or
    refuses the block.  A key's pair and m_0 are _keyed_pair's, on pearson, (a, b) with
    (p a)' = p b and a simple root of a at each finite end."""
    route, _, steps, _ = rule
    span = 2 * max((len(c) for _, c in reduced.values()), default=0)
    steps = min(steps, span - 2)  # the reach, and no entry reads a ratio past span - 2

    def moments(key: tuple[int, ...]) -> tuple[int, list[int], float | None]:
        """(den, nums, m_0): the key's ratios r_0 .. r_steps times its num / den, over their
        common denominator, and its float m_0 (None on the exact route)."""
        pair, num, den, m_0 = _keyed_pair(weight, pearson, rule, key)
        return (*_moment_ratios(pair, steps, num, den), m_0)

    read = {key: moments(key) for key in dict.fromkeys(keys)}
    rows, values = {}, []  # (label, key) -> row
    for (m, n), key in zip(pairs, keys):
        (d_f, f), (d_g, g) = reduced[m], reduced[n]
        if len(f) > len(g):
            d_f, f, d_g, g, n = d_g, g, d_f, f, m
        row = rows.get((n, key))
        if row is None:
            d_mu, mu, _ = read[key]
            row = rows[n, key] = (d_g * d_mu, [sum(map(mul, g, mu[i:])) for i in range(len(g))])
        total = sum(map(mul, f, row[1]))
        values.append(Fraction(total, d_f * row[0]) if total else _ZERO)
    return values if route == "exact" else _finish(weight, values, [read[key][2] for key in keys])


def _favard_values(
    weight: WeightExpr, pearson: tuple[Poly, Poly], rule: tuple, degrees: Sequence[int]
) -> list[Fraction | float]:
    """The finished diagonal per degree k in degrees in the certified regime (module
    docstring): Favard's G_kk = G_00 gamma_1 ... gamma_k, with the finish the moment block's
    own (_finish).  It runs on _keyed_pair's pair and m_0 at the key (k_r), the root orders
    2 k_r at the divisions (r, k_r), G_00 being the block's at that key, and degree d is its
    degree d - sum k_r.  The gammas are the module docstring's, in ints: c_k = P/Q and
    d_k = R/(Q E) with Q = lambda_k - lambda_(k-1) and E = lambda_k - lambda_(k-2), so
    gamma_(k-1) is a ratio over q^2 Q e E with (p, q, r, e) those of k - 1, and one gcd per
    degree reduces the running product."""
    route, divisions, _, _ = rule
    caps = [k for _, k in divisions]  # E_r = -k_r at a division
    shift = sum(caps)
    (a0, a1, a2, b0, b1), num, den, m_0 = _keyed_pair(weight, pearson, rule, caps)
    top = max(degrees, default=shift) - shift
    norms = [(num, den)]  # G_kk / m_0 on the moment route
    p, q, r, e = b0, b1, 0, 1  # p_1 = x + b0/b1, d_1 = 0
    for k in range(2, top + 2):
        P, Q, E = k * ((k - 1) * a1 + b0), 2 * (k - 1) * a2 + b1, 2 * ((2 * k - 3) * a2 + b1)
        R = k * (k - 1) * a0 * Q + (k - 1) * ((k - 2) * a1 + b0) * P
        # gamma_(k-1) = d_(k-1) - d_k - (c_(k-1) - c_k) c_(k-1)
        g_num, g_den = norms[-1]
        g_num *= q * (r * Q * E - R * q * e) - (p * Q - P * q) * p * e * E
        g_den *= q * q * Q * e * E
        g = math.gcd(g_num, g_den)
        norms.append((g_num // g, g_den // g))
        p, q, r, e = P, Q, R, E
    values = [Fraction(*norms[k - shift]) if norms[k - shift][0] else _ZERO for k in degrees]
    return values if route == "exact" else _finish(weight, values, [m_0] * len(values))


# ---------------------------------------------------------------------------
# numeric path


def _integrand(
    weight: WeightExpr, route: str | None, funcs: Sequence[Poly]
) -> tuple[Callable, float, float]:
    """(evaluate, lo, hi) for _product_sweep: evaluate(x, d_lo, d_hi, need) -> (signs, based,
    logs) gives, for each index i in need into funcs, f_i's sign at the sweep's node (x on a
    finite interval, the identity map; the point x(t) of the Gaussian map at its t = x,
    module docstring), 0 where f_i is 0 there, log p + log J + log|f_i| with J the map's
    Jacobian, and log|f_i|.

    The sweep calls it once per node, the centre (the first row's first node) included.  A
    node's x, log p(x) and log-Jacobian are computed once for all f_i, and each f_i once
    per node; the sweep forms each pair's sign_i sign_j e^(based_i + log_j), so f_i f_j is
    never formed.  Off [-1, 1] on the real line, log|f_i(x)| is deg*log|x| plus the log of
    the reversed polynomial at 1/x: Horner in x would not overflow at the sinh map's nodes
    (|x| <= 203 for hermite(-1, 3) at 20), but raised Hermite's n = 20 off-diagonal maximum
    from 5.2e-14 to 1.4e-13 for the preset, and from 8.4e-10 to 1.2e-9 for hermite(-1, 3).
    At a finite end where p's exponent is <= -1, Horner's f_i(x) near a root of f_i there is
    all cancellation, which p turns into a divergent integrand: the root is divided out once
    and comes back as s*log(d) from the sweep's exact endpoint distance d.
    """
    iv, exp_poly = weight.interval, weight.exp_poly
    # the finite ends a root is divided out at, None for the others
    ends = [
        r if r is not None and weight.power_exponent_at(r) <= -1 else None for r in (iv.lo, iv.hi)
    ]
    cs, desc, degs, roots = [], [], [], []
    for p in funcs:
        mults = []
        for r in ends:
            p, s = p.strip_root(r, int(p.degree)) if r is not None and p else (p, 0)
            mults.append(s)
        c = tuple([v / p.den for v in p.nums])  # float(Fraction) to the bit, once, not per node
        cs.append(c)
        desc.append(c[::-1])
        degs.append(len(c) - 1)
        roots.append(tuple(mults) if any(mults) else None)
    count = len(funcs)
    log, copysign, inf = math.log, math.copysign, math.inf
    finite = iv.finite
    if finite:
        lo, hi = float(iv.lo), float(iv.hi)
    elif route == "gaussian":
        lo, hi = -1.0, 1.0  # a Gaussian factor e^(c2 x^2 + c1 x): the module docstring's map
        c1, c2 = exp_poly.coeff(1), exp_poly.coeff(2)
        centre, scale = float(-c1 / (2 * c2)), 2.0 / math.sqrt(float(-c2))
        log_scale = log(scale)
    else:
        raise ValueError(f"no quadrature map for {weight.formula()} on {iv.describe()}")

    def evaluate(x: float, d_lo: float, d_hi: float, need: list[int]) -> tuple[list, list, list]:
        if finite:  # the identity map: log J = 0
            base = weight.log_eval(x, d_lo, d_hi)
        else:  # the Gaussian map's t: artanh(t) = (log d_lo - log d_hi) / 2
            log_lo, log_hi = log(d_lo), log(d_hi)
            x = centre + scale * ((log_lo - log_hi) / 2.0)
            base = weight.log_eval(x) + (log_scale - log_lo - log_hi)
        signs, based, logs = [0.0] * count, [0.0] * count, [0.0] * count  # sign 0: f_i(x) = 0
        near = finite or abs(x) <= 1.0
        if not near:
            inv_x, log_x = 1.0 / x, log(abs(x))
        for i in need:
            v = 0.0  # ratpoly.horner's operations inlined: the call made each f_i 1.5x as slow
            if near:
                for c in desc[i]:
                    v = v * x + c
                log_xdeg = 0.0
            else:  # the reversed polynomial at 1/x is f_i(x)/x^deg
                for c in cs[i]:
                    v = v * inv_x + c
                log_xdeg = degs[i] * log_x
                if x < 0 and degs[i] % 2:
                    v = -v
            if not v:
                continue
            log_f = log_xdeg + log(abs(v))
            if roots[i] is not None:
                s_lo, s_hi = roots[i]
                if s_lo:
                    log_f += s_lo * (log(d_lo) if d_lo else -inf)
                if s_hi:
                    log_f += s_hi * (log(d_hi) if d_hi else -inf)
                    if s_hi % 2:  # (x - hi)^s_hi < 0 inside
                        v = -v
                if log_f == -inf:  # a node on the end itself, where f_i is 0
                    continue
            signs[i], based[i], logs[i] = copysign(1.0, v), base + log_f, log_f
        return signs, based, logs

    return evaluate, lo, hi


def _numeric_quad(
    weight: WeightExpr, route: str | None, funcs: Sequence[Poly],
    pairs: Sequence[tuple[int, int]], tol: float,
) -> list[QuadResult]:
    """Quadrature of p f_i f_j for every index pair (i, j) into funcs, on one node sweep of
    the weight's route (_classify's); raises the NoConvergence of the first pair, in list
    order, that fails."""
    evaluate, lo, hi = _integrand(weight, route, funcs)
    results = _product_sweep(evaluate, pairs, lo, hi, tol)
    for res in results:
        if isinstance(res, NoConvergence):
            raise res
    return results


# ---------------------------------------------------------------------------
# routing


def _reduce(
    polys: dict[int, Poly], divisions: Sequence[tuple[Fraction, int]]
) -> tuple[dict[int, tuple[int, ...]], dict[int, tuple[int, Sequence[int]]]]:
    """(classes, reduced) of the labelled nonzero polys at the divisions (r, k): a label's
    class is its root order s at each r, capped at k, and its reduced form is f divided by
    prod (x - r)^s as (den, numerators), in ints (no gcd)."""
    stripped = [(r.numerator, r.denominator, k) for r, k in divisions]
    classes, reduced = {}, {}
    for label, f in polys.items():
        nums, orders = f.nums, ()
        for p, q, k in stripped:
            nums, s = _strip_linear(nums, p, q, k)
            orders += (s,)
        classes[label], reduced[label] = orders, (f.den, nums)
    return classes, reduced


def _route(
    weight: WeightExpr,
    pearson: tuple[Poly, Poly],
    funcs: Sequence[Poly | None] | Callable[[], Sequence[Poly | None]],
    degrees: Sequence[int],
    tol: float,
    eigenvalues: Sequence[Fraction | int] | None = None,
    pairs: Sequence[tuple[int, int]] | None = None,
) -> tuple[str | None, dict[tuple[int, int], tuple], tuple | None]:
    """(route, answers, certified): the weight's route (_classify's) and the router's answer
    (value, method, integrable, err_est, note), by the routes of the module docstring, per
    index pair (i, j) into funcs of pairs, else of the Gram triangle over degrees (each m with
    each n from m on): answers maps a pair to its own, and certified, (zero, reach), answers
    every other pair: refused (_REFUSED) when m + n is past the reach, else zero.
    The router makes every decision, once: it classifies the weight once, judges each class
    pair once (its key) and each pair's degree against the reach; the moment block (on the
    Pearson pair pearson), Favard's recurrence or the node sweep values the integrable pairs.
    funcs[d] is None where degree d has no eigenfunction; such a pair has no value and its
    degree's verdict.  funcs may be a zero-argument callable that returns them, called at
    most once and only where they are read.  eigenvalues, with the triangle, makes funcs an
    eigentable of the weight's operator (funcs[d] the monic eigenfunction of degree d, of
    eigenvalue eigenvalues[d], exact, in one scale and shift) and serves the regime's test
    alone: on a block route, where they reach one degree past the highest, pairwise
    distinct, every division (r, k_r) has E_r = -k_r and no degree is below K = sum k_r, the
    triangle is in the certified regime (module docstring).  Each degree then has one monic
    eigenfunction, of class (k_r) by the indicial law: the router reads none and visits no
    pair, answers holds Favard's diagonals within the reach, and certified is the certified
    zero with the reach.  Outside it the block values every integrable pair from its rows and
    answers holds every pair (certified None)."""
    if not 0 < tol < math.inf:  # refused also when no entry needs the sweep, which checks it
        raise ValueError(f"tol must be a finite positive number, not {tol}")
    route, divisions, reach, exponents = rule = _classify(weight)
    moment = route in ("romanovski", "laguerre")
    block_route = moment or route == "exact"
    caps = tuple(k for _, k in divisions)
    method = "moment" if moment else "exact"
    zero = (0.0 if moment else _ZERO, method, True, None, None)
    # gamma_k reads p_(k+1): the regime's eigenvalues reach one degree past the highest
    regime = (pairs is None and block_route and eigenvalues is not None
              and len(set(eigenvalues)) == len(eigenvalues) > max(degrees, default=-1) + 1)
    if regime and divisions:  # the indicial law: each division's E_r is -k_r, none below K
        regime = (all(e > -1 or e.denominator == 1 for e in exponents)
                  and min(degrees, default=math.inf) >= sum(caps))
    if regime:  # each degree has one monic eigenfunction, of class caps, and each key is caps
        inside = [m for m in degrees if 2 * m <= reach]  # reach: the Romanovski power law, or -1
        values = _favard_values(weight, pearson, rule, inside) if inside else []
        answers = {(m, m): (v, method, True, None, None) for m, v in zip(inside, values)}
        return route, answers, (zero, reach)
    funcs = funcs() if callable(funcs) else funcs
    known = {i: f for i, f in enumerate(funcs) if f}  # not None, not zero
    degree = {i: len(f.nums) - 1 for i, f in known.items()}
    classes, reduced = _reduce(known, divisions)
    pairs = list(combinations_with_replacement(degrees, 2)) if pairs is None else pairs
    routes: list = [None] * len(pairs)
    verdicts: dict = {}  # class pair -> key, False where a part is negative
    asked, keys = [], []  # the integrable pairs, valued below, and their keys
    for k, (i, j) in enumerate(pairs):
        if i in classes and j in classes:
            both = classes[i], classes[j]
            key = verdicts.get(both)
            if key is None:  # the class pair's one verdict: a negative part refuses it
                key = tuple(map(sub, map(add, *both), caps))
                key = verdicts[both] = key if min(key, default=0) >= 0 else False
            if key is False or degree[i] + degree[j] > reach:
                routes[k] = _REFUSED
            else:
                asked.append(k)
                keys.append(key)
        elif funcs[i] is None or funcs[j] is None:  # a degree alone: no end divides, in reach
            routes[k] = (None, None, not divisions and i + j <= reach, None,
                         "no degree-exact eigenfunction")
        else:  # f or g is zero
            routes[k] = zero
    if asked and not block_route:  # quadrature, on one node sweep
        slot = {d: s for s, d in enumerate(sorted({d for k in asked for d in pairs[k]}))}
        swept = [(slot[i], slot[j]) for i, j in (pairs[k] for k in asked)]
        results = _numeric_quad(weight, route, [funcs[d] for d in slot], swept, tol)
        for k, res in zip(asked, results):
            routes[k] = (res.value, "quadrature", True, res.err_est, None)
    elif asked:
        values = _moment_block(weight, pearson, rule, reduced, [pairs[k] for k in asked], keys)
        for k, value in zip(asked, values):
            routes[k] = (value, method, True, None, None)
    return route, dict(zip(pairs, routes)), None


def inner_product(
    weight: WeightExpr, f: Poly, g: Poly, tol: float = DEFAULT_TOL
) -> tuple[Fraction | float, str, float | None]:
    """Route a pair as a Gram matrix does: moment, exact, else quadrature.

    Returns (value, method, err_est) with method "exact", "moment" or "quadrature",
    the Gram entry's to the bit.  Raises NonIntegrable when p f g is not integrable
    and NoConvergence when the quadrature's level budget runs out.
    """
    pearson = weight.pearson_pair()  # the one caller with no operator
    answers = _route(weight, pearson, [f, g], (0, 1), tol, pairs=[(0, 1)])[1]
    value, method, integrable, err_est, _ = answers[0, 1]
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


def _entries(report: OrthoReport) -> Iterator[GramEntry]:
    """OrthoReport.entries: the Gram entry per pair of the report's degrees, in the router's
    triangle order, from the router's compact answer it stores (_route, gram_matrix).  An
    off-diagonal's relative is |value| / sqrt(G_mm G_nn) where both diagonals are positive,
    from exact values past a float's range; else 0.0 where its value is 0 (noted "relative
    uses moment scale" on the Romanovski shape, where each is an exact zero); else None."""
    _, route, certified, answers = report._answer
    answers, degrees = dict(answers), report.degrees
    zero, reach = certified or (None, math.inf)  # outside the regime every pair is stored
    answer = lambda m, n: answers.get((m, n)) or (_REFUSED if m + n > reach else zero)
    # 0.0 where the norm has no value; an exact norm past a float's range stays exact
    diag = {m: _float_in_range(answer(m, m)[0] or 0) for m in degrees}
    for m, n in combinations_with_replacement(degrees, 2):
        value, method, ok, err_est, note = answer(m, n)
        rel = None
        if m != n and value is not None:
            if diag[m] > 0 and diag[n] > 0:
                try:  # from the exact values where a float product overflows or underflows
                    rel = 0.0 if value is _ZERO else abs(float(value)) / math.sqrt(diag[m] * diag[n])
                except (OverflowError, ZeroDivisionError):
                    rel = math.sqrt(Fraction(value) ** 2 / (Fraction(diag[m]) * Fraction(diag[n])))
            elif not value:
                rel = 0.0
                if route == "romanovski":
                    note = "relative uses moment scale"
        yield GramEntry(m, n, value, method, ok, err_est, rel, note)


def _report_notes(report: OrthoReport) -> tuple[str, ...]:
    """OrthoReport.notes: its stored notes, then the nonzero off-diagonal entries without a
    relative and those whose relative is above the router's tol, where there are any."""
    tol, notes = report._answer[0], report._notes
    rels = [e.relative for e in report.entries if e.m != e.n and e.value]
    if None in rels:
        notes += ("nonzero off-diagonal entries without a scale (a diagonal norm diverges), "
                  f"which the max relative skips: {rels.count(None)}",)
    above = [rel for rel in rels if rel is not None and rel > tol]
    if above:
        notes += (f"off-diagonal entries with relative above tol {tol:g}: {len(above)}, "
                  f"max {max(above):.3e}",)
    return notes


class OrthoReport(Record):
    family: str
    max_degree: int = property(lambda self: max(self.degrees, default=0))
    degrees: tuple[int, ...]
    weight: str
    interval: str
    _answer: tuple  # (tol, route, certified, ((m, n), answer) pairs): gram_matrix's _route call
    entries: tuple[GramEntry, ...] = cached_property(lambda self: tuple(_entries(self)))
    off_diagonal_max_relative: float | None = property(lambda self: max(
        (e.relative for e in self.entries if e.m != e.n and e.relative is not None), default=None))
    _notes: tuple[str, ...] = ()
    notes: tuple[str, ...] = cached_property(_report_notes)

    def entry(self, m: int, n: int) -> GramEntry:
        """Entry (m, n) or (n, m), by position: entries holds each degrees[i] with degrees[i:]."""
        if m not in self.degrees or n not in self.degrees:
            raise KeyError(f"no gram entry ({m}, {n})")
        i, j = sorted(map(self.degrees.index, (m, n)))
        return self.entries[i * len(self.degrees) - i * (i - 1) // 2 + j - i]

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


def _float_in_range(value: Fraction | float) -> Fraction | float:
    """value as a float, or, where an exact value is past a float's range either way (it
    overflows, or a nonzero value underflows to 0.0), the exact value."""
    try:
        as_float = float(value)
    except OverflowError:
        return value
    return value if value and not as_float else as_float


def _eigenvalues(pearson: tuple[Poly, Poly], n_max: int) -> list[int]:
    """lambda_k = k (k - 1) a2 + k b1 of L = a D^2 + b D for the Pearson pair (a, b), in ints
    over one denominator, for k = 0 .. n_max + 1: the eigentable's eigenvalues up to scale and
    L's constant term, and one more for Favard's gamma_(n_max)."""
    if n_max < 0:
        raise ValueError("n must be >= 0")
    _, _, a2, _, b1 = _pair_ints(pearson)
    return [k * ((k - 1) * a2 + b1) for k in range(n_max + 2)]


def gram_matrix(
    source: FamilySpec | DiffOperator, n_max: int, tol: float = DEFAULT_TOL
) -> OrthoReport:
    """Gram matrix of the monic eigenfunctions up to degree n_max of a family, or of a
    second-order operator (labelled "custom operator", degrees 0..n_max).  The report
    stores the router's compact answer and builds its entries, and the notes that read their
    relatives, on first read (_entries, _report_notes); the router builds the eigentable only
    outside the certified regime.

    The chaudhry-qadir family starts at degree 1: its degree-0 eigenfunction
    (the constant) does not vanish at t = 1, and the weight 1/(1-t) alone is
    not integrable, so the constant is outside the self-adjointness subspace.
    """
    spec = source if isinstance(source, FamilySpec) else None
    op = source if spec is None else build_operator(spec)
    if op.order != 2:
        raise ValueError("gram matrices require a second-order operator")
    pearson = op.coeffs[2], op.coeffs[1]
    weight = derive_weight(*pearson)
    degrees, notes = tuple(range(n_max + 1)), ()
    if spec is not None and spec.kind is FamilyKind.CHAUDHRY_QADIR:
        degrees = degrees[1:]
        notes = ("degree 0 excluded: eigenfunctions must vanish at t=1 for integrability",)
    label = "custom operator" if spec is None else spec.describe()
    funcs = lambda: [r.monic for r in eigentable(op, n_max)]  # called outside the regime alone
    route, answers, certified = _route(weight, pearson, funcs, degrees, tol,
                                       _eigenvalues(pearson, n_max))
    return OrthoReport(label, degrees, weight.formula(), weight.interval.describe(),
                       (tol, route, certified, tuple(answers.items())), notes)


# ---------------------------------------------------------------------------
# Romanovski finite orthogonality


class RomanovskiPair(Record):
    m: int
    n: int
    # "orthogonal" | "non-integrable" | "inconclusive"; collision pairs are non-integrable
    verdict: str
    value: float | None = None
    relative: float | None = None
    err_est: float | None = property(lambda self: None)  # the moment route gives no estimate
    detail: str = ""


def _collisions(report: RomanovskiReport) -> tuple[tuple[int, int], ...]:
    """RomanovskiReport.degenerate_degree_pairs, lower degree first: lambda_j = lambda_k, j < k,
    for lambda_k = k (k - 1) + alpha k, exactly when j + k = s = 1 - alpha, an integer."""
    s = int(1 - report.alpha) if report.alpha.denominator == 1 else -1  # no pair sums to -1
    return tuple((j, s - j) for j in range(max(0, s - report.max_degree), (s + 1) // 2))


def _statuses(report: RomanovskiReport) -> tuple[str, ...]:
    """RomanovskiReport.statuses, the collision law at +-i: UniqueMonic but each collision's
    higher degree, Degenerate when beta = 0 and alpha is even, else NoDegreeNEigenfunction."""
    law = EigenStatus.NO_DEGREE_N if report.beta or report.alpha % 2 else EigenStatus.DEGENERATE
    higher = {k: law.value for _, k in report.degenerate_degree_pairs}
    return tuple(higher.get(d, EigenStatus.UNIQUE_MONIC.value) for d in range(report.max_degree + 1))


def _romanovski_pairs(report: RomanovskiReport) -> Iterator[RomanovskiPair]:
    """RomanovskiReport.pairs: the verdict per off-diagonal entry of its Gram report."""
    normed = {e.m for e in report._gram.entries if e.m == e.n and (e.value or 0) > 0}
    for e in report._gram.entries:
        m, n = e.m, e.n
        if m == n:
            continue
        if not e.integrable:  # past the moment reach: m + n + gamma + 1 = m + n + alpha - 1 >= 0
            detail = f"m+n+gamma+1 = {m + n + report.alpha - 1} >= 0"
            yield RomanovskiPair(m, n, "non-integrable", detail=detail)
        elif e.value is None:
            yield RomanovskiPair(m, n, "inconclusive", detail=e.note or "")
        else:
            detail = ("relative to sqrt(G_mm G_nn)" if m in normed and n in normed else
                      "relative to the (1+x^2)^((m+n)/2) moment (a diagonal norm diverges)")
            verdict = "orthogonal" if e.value == 0 else "inconclusive"
            yield RomanovskiPair(m, n, verdict, e.value, e.relative, detail)


class RomanovskiReport(Record):
    alpha: Fraction
    beta: Fraction
    _gram: OrthoReport  # gram_matrix of romanovski(alpha, beta), which fixes every key
    gamma: Fraction = property(lambda self: self.alpha - 2)
    max_degree: int = property(lambda self: self._gram.degrees[-1])
    statuses: tuple[str, ...] = cached_property(_statuses)
    degenerate_degree_pairs: tuple[tuple[int, int], ...] = cached_property(_collisions)
    pairs: tuple[RomanovskiPair, ...] = cached_property(lambda self: tuple(_romanovski_pairs(self)))

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
    """Pairwise orthogonality verdicts for the Romanovski family, a view of
    gram_matrix, which takes the moment route: no quadrature runs.

    A pair (m, n) is checked only when m + n + gamma + 1 < 0 (product
    integrability, gamma = alpha - 2: the Gram entry's verdict from the
    moment reach); pairs violating that are flagged non-integrable.  A
    checked pair is orthogonal when its exact ratio to m_0 is 0 (its value
    then is 0.0), else inconclusive.  The collisions, lower degree first, are
    read off lambda_k = k (k - 1) + alpha k in closed form; they occur
    (integer alpha) only on that boundary: mu_m = mu_n with m != n forces
    m + n = 1 - alpha, so m + n + gamma + 1 = 0 and no collision pair is ever
    called orthogonal.  The statuses are the collision law's (_statuses); the
    report stores the Gram report and reads every other key off it on first read.
    """
    alpha, beta = rat(alpha), rat(beta)
    return RomanovskiReport(alpha, beta, gram_matrix(FamilySpec.romanovski(alpha, beta), n_max))
