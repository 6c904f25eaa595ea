"""Tanh-sinh (double-exponential) quadrature.

The substitution t = tanh((pi/2) sinh(u)) turns the trapezoid rule on a
finite interval into a scheme whose node weights decay double-exponentially
toward the endpoints, which is what lets it swallow integrable endpoint
singularities like (1-x)^(-1/2) without any special casing.

The integrand is called as f(x, d_lo, d_hi) where d_lo/d_hi are the exact
distances to the interval endpoints, computed without cancellation (for a
node at t, 1 - t = 2 / (1 + e^(2s)) with s = (pi/2) sinh(u)).  Integrands
with endpoint singularities should use those distances instead of forming
x - endpoint themselves.

The step starts at h = 1 and halves per level; the value converges when
two successive levels differ by less than tol * (1 + L1), where L1 is the
same rule's estimate of the integral of |f|, summed from the same rows.
Measuring the error against L1 rather than |value| lets a true zero built
from large terms of both signs converge (Bailey, Jeyabalan and Li,
Exp. Math. 14, 2005); for an integrand of one sign L1 is |value| to the
last bit, so its stopping level is unchanged.  A level budget (default 12
halvings) bounds the work; exhausting it raises NoConvergence.

One loop integrates several integrands over the same interval on one sweep
of the nodes, so each node's abscissa, distances and weight are computed
once: it calls f(x_hi, x_lo, d_near, d_far, active) once per node pair
x = mid +/- rad t for the integrands still active in the current row, and
takes one list of values per node (d_near is each node's distance to its
own end, d_far to the other; the centre is called as the pair (mid, mid)
and only its first list is read).
Every integrand keeps its own row total, L1 size, tiny-term streak, level,
error, eval count and failure, and leaves the sweep when its own stopping
rule holds, so each one sees exactly the additions it would see alone.
The active list is replaced only when an integrand leaves, so an integrand
may cache whatever it derives from it.  tanh_sinh is the one-integrand case.
A node's abscissa, distance and weight depend on u = k h alone and are
memoised (a bounded cache) across sweeps.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from ._record import Record

__all__ = ["DEFAULT_TOL", "NoConvergence", "QuadResult", "tanh_sinh"]

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


def tanh_sinh(
    f: Callable[[float, float, float], float],
    lo: float,
    hi: float,
    tol: float = DEFAULT_TOL,
    max_levels: int = 12,
) -> QuadResult:
    """Integrate f over (lo, hi) until two levels differ by at most
    tol * (1 + integral of |f|); see the module docstring for the contract."""
    (res,) = _tanh_sinh_sweep(
        lambda x_hi, x_lo, d_near, d_far, _: ([f(x_hi, d_far, d_near)], [f(x_lo, d_near, d_far)]),
        1, lo, hi, tol, max_levels,
    )
    if isinstance(res, NoConvergence):
        raise res
    return res


def _tanh_sinh_sweep(
    f: Callable, count: int, lo: float, hi: float, tol: float, max_levels: int = 12
) -> list[QuadResult | NoConvergence]:
    """Integrate integrands 0..count-1 over (lo, hi) on one sweep of the nodes;
    f(x_hi, x_lo, d_near, d_far, active) -> (values at x_hi, values at x_lo) gives
    the active ones' values at a node pair."""
    if not lo < hi:
        raise ValueError(f"bounds out of order: {lo} >= {hi}")
    if not 0 < tol < math.inf:  # also refuses nan
        raise ValueError(f"tol must be a finite positive number, not {tol}")
    mid = (lo + hi) / 2.0
    rad = (hi - lo) / 2.0
    tiny = 1e-4 * tol  # a term this small, relative to 1 + |total|, extends the streak
    isfinite = math.isfinite
    evals = [0] * count
    out: list = [None] * count  # each integrand's QuadResult or NoConvergence

    def row_sums(h: float, odd_only: bool, active: list[int]) -> tuple[list[float], list[float]]:
        """Each integrand's row total and the row total of its |terms|."""
        totals = [0.0] * count
        sizes = [0.0] * count
        streak = [0] * count
        if active and not odd_only:  # the centre node belongs to the first row only
            centre, _ = f(mid, mid, rad, rad, active)
            for i, v in zip(active, centre):
                totals[i] += (math.pi / 2.0) * v
                sizes[i] += abs((math.pi / 2.0) * v)
                evals[i] += 1
        k = 1
        step = 2 if odd_only else 1
        seen = 0  # node pairs evaluated in this row
        while active and k * h <= _U_MAX:
            t, d, w = _node(k * h)
            if w == 0.0 or d == 0.0:
                break
            x_hi, x_lo = mid + rad * t, mid - rad * t
            values_hi, values_lo = f(x_hi, x_lo, rad * d, rad * (2.0 - d), active)
            seen += 1
            gone = []
            for i, v_hi, v_lo in zip(active, values_hi, values_lo):
                term_hi = w * v_hi
                term_lo = w * v_lo
                pair = term_hi + term_lo
                if not isfinite(pair) and not (isfinite(term_hi) and isfinite(term_lo)):
                    out[i] = NoConvergence(
                        f"integrand not finite at a quadrature node (x near {x_hi!r} / {x_lo!r})",
                        math.nan, math.inf,
                    )
                    gone.append(i)
                    continue
                total = totals[i] = totals[i] + pair
                size = abs(term_hi) + abs(term_lo)
                sizes[i] += size
                if size <= tiny * (1.0 + abs(total)):
                    streak[i] += 1
                    if streak[i] >= 3:
                        gone.append(i)
                else:
                    streak[i] = 0
            if gone:
                for i in gone:
                    evals[i] += 2 * seen
                active = [i for i in active if i not in gone]
            k += step
        for i in active:
            evals[i] += 2 * seen
        return totals, sizes

    h = 1.0
    pending = list(range(count))
    totals, sizes = row_sums(h, False, pending)
    estimate = [rad * h * total for total in totals]
    l1 = [rad * h * size for size in sizes]  # the estimate of the integral of |f|
    err = [math.inf] * count
    for level in range(1, max_levels + 1):
        pending = [i for i in pending if out[i] is None]
        if not pending:
            break
        h /= 2.0
        sums, sizes = row_sums(h, True, pending)
        for i in pending:
            if out[i] is None:
                estimate_new = estimate[i] / 2.0 + rad * h * sums[i]
                l1[i] = l1[i] / 2.0 + rad * h * sizes[i]
                err[i] = abs(estimate_new - estimate[i])
                estimate[i] = estimate_new
                if err[i] <= tol * (1.0 + l1[i]):
                    out[i] = QuadResult(estimate_new, err[i], level, evals[i])
    for i in range(count):
        if out[i] is None:
            message = f"no convergence after {max_levels} levels (last error {err[i]:.3e})"
            out[i] = NoConvergence(message, estimate[i], err[i])
    return out
