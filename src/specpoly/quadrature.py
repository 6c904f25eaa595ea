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
two successive levels differ by less than tol * (1 + |value|).  A level
budget (default 12 halvings) bounds the work; exhausting it raises
NoConvergence.

One loop integrates several integrands over the same interval on one sweep
of the nodes, so each node's abscissa, distances and weight are computed
once: it calls f(x, d_lo, d_hi, active) for the integrands still active in
the current row and takes one value per integrand.  Every integrand keeps
its own row total, tiny-term streak, level, error, eval count and failure,
and leaves the sweep when its own stopping rule holds, so each one sees
exactly the additions it would see alone.  tanh_sinh is its one-integrand
case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = ["NoConvergence", "QuadResult", "tanh_sinh"]

# beyond this point on the u axis every node weight underflows to zero
_U_MAX = 6.6


class NoConvergence(RuntimeError):
    """Level budget exhausted before successive estimates agreed."""

    def __init__(self, message: str, last_value: float, err_est: float):
        super().__init__(message)
        self.last_value = last_value
        self.err_est = err_est


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_est: float
    levels: int
    evals: int


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
    tol: float = 1e-10,
    max_levels: int = 12,
) -> QuadResult:
    """Integrate f over (lo, hi); see the module docstring for the contract."""
    (res,) = _tanh_sinh_sweep(
        lambda x, d_lo, d_hi, _: [f(x, d_lo, d_hi)], 1, lo, hi, tol, max_levels
    )
    if isinstance(res, NoConvergence):
        raise res
    return res


def _tanh_sinh_sweep(
    f: Callable, count: int, lo: float, hi: float, tol: float, max_levels: int = 12
) -> list[QuadResult | NoConvergence]:
    """Integrate integrands 0..count-1 over (lo, hi) on one sweep of the nodes;
    f(x, d_lo, d_hi, active) -> list[float] gives the active ones' values at a node."""
    if not lo < hi:
        raise ValueError(f"bounds out of order: {lo} >= {hi}")
    if not 0 < tol < math.inf:  # also refuses nan
        raise ValueError(f"tol must be a finite positive number, not {tol}")
    mid = (lo + hi) / 2.0
    rad = (hi - lo) / 2.0
    evals = [0] * count
    out: list = [None] * count  # each integrand's QuadResult or NoConvergence

    def row_sums(h: float, odd_only: bool, active: list[int]) -> list[float]:
        totals = [0.0] * count
        streak = [0] * count
        if active and not odd_only:  # the centre node belongs to the first row only
            for i, v in zip(active, f(mid, rad, rad, active)):
                totals[i] += (math.pi / 2.0) * v
                evals[i] += 1
        k = 1
        step = 2 if odd_only else 1
        while active and k * h <= _U_MAX:
            t, d, w = _node(k * h)
            if w == 0.0 or d == 0.0:
                break
            d_near = rad * d
            d_far = rad * (2.0 - d)
            values_hi = f(mid + rad * t, d_far, d_near, active)
            values_lo = f(mid - rad * t, d_near, d_far, active)
            still = []
            for i, v_hi, v_lo in zip(active, values_hi, values_lo):
                term_hi = w * v_hi
                term_lo = w * v_lo
                evals[i] += 2
                if not (math.isfinite(term_hi) and math.isfinite(term_lo)):
                    x_near = f"x near {mid + rad * t!r} / {mid - rad * t!r}"
                    out[i] = NoConvergence(
                        f"integrand not finite at a quadrature node ({x_near})", math.nan, math.inf
                    )
                    continue
                totals[i] += term_hi + term_lo
                if abs(term_hi) + abs(term_lo) <= 1e-4 * tol * (1.0 + abs(totals[i])):
                    streak[i] += 1
                    if streak[i] >= 3:
                        continue
                else:
                    streak[i] = 0
                still.append(i)
            active = still
            k += step
        return totals

    h = 1.0
    pending = list(range(count))
    estimate = [rad * h * total for total in row_sums(h, False, pending)]
    err = [math.inf] * count
    for level in range(1, max_levels + 1):
        pending = [i for i in pending if out[i] is None]
        if not pending:
            break
        h /= 2.0
        sums = row_sums(h, True, pending)
        for i in pending:
            if out[i] is None:
                estimate_new = estimate[i] / 2.0 + rad * h * sums[i]
                err[i] = abs(estimate_new - estimate[i])
                estimate[i] = estimate_new
                if err[i] <= tol * (1.0 + abs(estimate_new)):
                    out[i] = QuadResult(estimate_new, err[i], level, evals[i])
    for i in range(count):
        if out[i] is None:
            message = f"no convergence after {max_levels} levels (last error {err[i]:.3e})"
            out[i] = NoConvergence(message, estimate[i], err[i])
    return out
