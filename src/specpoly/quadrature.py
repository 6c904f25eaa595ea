"""Tanh-sinh (double-exponential) quadrature of many products on one sweep.

The substitution t = tanh((pi/2) sinh(u)) turns the trapezoid rule on a
finite interval into a scheme whose node weights decay double-exponentially
toward the endpoints, which is what lets it swallow integrable endpoint
singularities like (1-x)^(-1/2) without any special casing.

The step starts at h = 1 and halves per level; the value converges when
two successive levels differ by less than tol * (1 + L1), where L1 is the
same rule's estimate of the integral of |f|, summed from the same rows.
Measuring the error against L1 rather than |value| lets a true zero built
from large terms of both signs converge (Bailey, Jeyabalan and Li,
Exp. Math. 14, 2005); for an integrand of one sign L1 is |value| to the
last bit, so its stopping level is unchanged.  A level budget (default 12
halvings) bounds the work; exhausting it raises NoConvergence.

_product_sweep integrates the products f_i f_j of a list of index pairs
(i, j) over the same interval on one sweep of the nodes, so each node's
abscissa, distances and weight are computed once.  The factors come in log
space from evaluate(x, d_lo, d_hi, need), called once per node (both nodes
mid +/- rad t of a pair before any term is added) with d_lo/d_hi the node's
exact distances to the interval's ends, computed without cancellation (for a
node at t, 1 - t = 2 / (1 + e^(2s)) with s = (pi/2) sinh(u)), and need the
sorted indices that the pairs still in the sweep read.  It returns three
lists indexed by i: the sign of factor i, a log-magnitude based_i that
carries whatever is common to the node (a weight and a Jacobian), and
log|f_i|.  A pair's value at the node is sign_i sign_j e^(based_i + log_j):
0 for a zero sign or a -inf magnitude, an infinity past 708, so it never
overflows; a pair whose term is not finite at a node fails there ("integrand
not finite").  The centre x = mid is the first row's first node: weight pi/2,
one evaluation, and one side, the other reading as sign 0 (a 0.0 term); it
counts toward no tiny-term streak.  The sweep forms each pair's two terms
where it adds them.  Every pair keeps its own row total, L1 size, tiny-term
streak, level, error, eval count and failure, and leaves the sweep when its
own stopping rule holds, so each one sees exactly the additions it would see
integrated alone (tests/oracles.py keeps that scalar integrator as the
bit-for-bit reference); need changes only when a pair leaves.  A node's
abscissa, distance and weight depend on u = k h alone and are memoised (a
bounded cache) across sweeps.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

from ._record import Record

__all__ = ["DEFAULT_TOL", "NoConvergence"]

DEFAULT_TOL = 1e-10  # the stopping rule's tol, unless a caller sets one

# beyond this point on the u axis every node weight underflows to zero
_U_MAX = 6.6


class NoConvergence(RuntimeError):
    """Level budget exhausted before successive estimates agreed."""

    def __init__(self, message: str, last_value: float, err_est: float):
        super().__init__(message)
        self.last_value = last_value
        self.err_est = err_est


class QuadResult(Record):
    value: float
    err_est: float
    levels: int
    evals: int


@functools.lru_cache(maxsize=1024)  # the 844 nodes of levels 0-7, about 0.3 MB
def _node(u: float) -> tuple[float, float, float]:
    """Return (t, 1 - t, weight) for abscissa parameter u > 0."""
    s = (math.pi / 2.0) * math.sinh(u)
    if s > 350.0:
        # e^(-2s) may underflow; both the distance and the weight go with it
        em = math.exp(-2.0 * s)
        d = 2.0 * em
        w = 2.0 * math.pi * math.cosh(u) * em
    else:
        em = math.exp(-2.0 * s)
        d = 2.0 * em / (1.0 + em)
        cs = math.cosh(s)
        w = (math.pi / 2.0) * math.cosh(u) / (cs * cs)
    return 1.0 - d, d, w


def _product_sweep(
    evaluate: Callable, pairs: Sequence[tuple[int, int]], lo: float, hi: float, tol: float,
    max_levels: int = 12,
) -> list[QuadResult | NoConvergence]:
    """Integrate f_i f_j over (lo, hi) for every index pair (i, j) in pairs on one sweep of
    the nodes; evaluate(x, d_lo, d_hi, need) -> (signs, based, logs) gives the factors at a
    node (module docstring)."""
    if not lo < hi:
        raise ValueError(f"bounds out of order: {lo} >= {hi}")
    if not 0 < tol < math.inf:  # also refuses nan
        raise ValueError(f"tol must be a finite positive number, not {tol}")
    mid = (lo + hi) / 2.0
    rad = (hi - lo) / 2.0
    tiny = 1e-4 * tol  # a term this small, relative to 1 + |total|, extends the streak
    count = len(pairs)
    exp, copysign, isfinite = math.exp, math.copysign, math.isfinite
    inf, minus_inf = math.inf, -math.inf  # a local, not -inf negated per term
    evals = [0] * count
    out: list = [None] * count  # each pair's QuadResult or NoConvergence

    def row_sums(h: float, odd_only: bool, active: list) -> tuple[list[float], list[float]]:
        """Each pair's row total and the row total of its |terms|; active lists
        (q, i, j) for pairs[q] = (i, j) still in the sweep."""
        totals = [0.0] * count
        sizes = [0.0] * count
        # the first row starts at the centre, which must count toward no streak
        streak = [0 if odd_only else -1] * count
        need = sorted({f for _, i, j in active for f in (i, j)})
        k = 1 if odd_only else 0
        step = 2 if odd_only else 1
        seen = 0  # evaluations in this row: 1 at the centre, 2 per node pair
        while active and k * h <= _U_MAX:
            t, d, w = _node(k * h)  # the centre: (0.0, 1.0, pi/2)
            if w == 0.0 or d == 0.0:
                break
            x_hi, x_lo, d_near, d_far = mid + rad * t, mid - rad * t, rad * d, rad * (2.0 - d)
            s_hi, b_hi, l_hi = evaluate(x_hi, d_far, d_near, need)
            if k:
                s_lo, b_lo, l_lo = evaluate(x_lo, d_near, d_far, need)
                seen += 2
            else:  # the centre has one side: the other reads as sign 0, a 0.0 term
                s_lo = b_lo = l_lo = [0.0] * len(s_hi)
                seen += 1
            gone = []
            for q, i, j in active:
                sign = s_hi[i] * s_hi[j]
                term_hi = w * (
                    0.0 if sign == 0.0 or (mag := b_hi[i] + l_hi[j]) == minus_inf
                    else copysign(inf, sign) if mag > 708.0 else sign * exp(mag)
                )
                sign = s_lo[i] * s_lo[j]
                term_lo = w * (
                    0.0 if sign == 0.0 or (mag := b_lo[i] + l_lo[j]) == minus_inf
                    else copysign(inf, sign) if mag > 708.0 else sign * exp(mag)
                )
                pair = term_hi + term_lo
                if not isfinite(pair) and not (isfinite(term_hi) and isfinite(term_lo)):
                    where = f"{x_hi!r} / {x_lo!r}" if k else repr(mid)
                    out[q] = NoConvergence(
                        f"integrand not finite at a quadrature node (x near {where})",
                        math.nan, math.inf,
                    )
                    gone.append(q)
                    continue
                total = totals[q] = totals[q] + pair
                size = abs(term_hi) + abs(term_lo)
                sizes[q] += size
                if size <= tiny * (1.0 + abs(total)):
                    streak[q] += 1
                    if streak[q] >= 3:
                        gone.append(q)
                else:
                    streak[q] = 0
            if gone:
                for q in gone:
                    evals[q] += seen
                active = [a for a in active if a[0] not in gone]
                need = sorted({f for _, i, j in active for f in (i, j)})
            k += step
        for q, _, _ in active:
            evals[q] += seen
        return totals, sizes

    h = 1.0
    pending = [(q, i, j) for q, (i, j) in enumerate(pairs)]
    totals, sizes = row_sums(h, False, pending)
    estimate = [rad * h * total for total in totals]
    l1 = [rad * h * size for size in sizes]  # the estimate of the integral of |f|
    err = [math.inf] * count
    for level in range(1, max_levels + 1):
        pending = [a for a in pending if out[a[0]] is None]
        if not pending:
            break
        h /= 2.0
        sums, sizes = row_sums(h, True, pending)
        for q, _, _ in pending:
            if out[q] is None:
                estimate_new = estimate[q] / 2.0 + rad * h * sums[q]
                l1[q] = l1[q] / 2.0 + rad * h * sizes[q]
                err[q] = abs(estimate_new - estimate[q])
                estimate[q] = estimate_new
                if err[q] <= tol * (1.0 + l1[q]):
                    out[q] = QuadResult(estimate_new, err[q], level, evals[q])
    for q in range(count):
        if out[q] is None:
            message = f"no convergence after {max_levels} levels (last error {err[q]:.3e})"
            out[q] = NoConvergence(message, estimate[q], err[q])
    return out
