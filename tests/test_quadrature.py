"""The tanh-sinh stopping rule, on the scalar integrator the test oracles keep, and the
library's product sweep, each of whose pairs must be that integrator's bit for bit."""

import math

import pytest

from oracles import signed_exp, tanh_sinh
from specpoly import NoConvergence
from specpoly.quadrature import _product_sweep


def plain(func):
    """Adapt a plain f(x) to the (x, d_lo, d_hi) integrand signature."""
    return lambda x, d_lo, d_hi: func(x)


class TestSmoothIntegrands:
    def test_polynomial(self):
        res = tanh_sinh(plain(lambda x: x * x), 0.0, 1.0, 1e-12)
        assert res.value == pytest.approx(1 / 3, abs=1e-12)
        assert res.err_est <= 1e-12 * (1 + abs(res.value))

    def test_shifted_interval(self):
        res = tanh_sinh(plain(math.exp), -2.0, 3.0, 1e-12)
        assert res.value == pytest.approx(math.exp(3) - math.exp(-2), rel=1e-12)

    def test_oscillatory(self):
        res = tanh_sinh(plain(math.sin), 0.0, math.pi, 1e-12)
        assert res.value == pytest.approx(2.0, rel=1e-11)


class TestSingularIntegrands:
    def test_inverse_square_root_at_right_endpoint(self):
        # integral of (1-x)^(-1/2) over (0,1) = 2; uses the passed distance
        res = tanh_sinh(lambda x, d_lo, d_hi: d_hi ** -0.5, 0.0, 1.0, 1e-12)
        assert res.value == pytest.approx(2.0, rel=1e-11)

    def test_chebyshev_mass(self):
        res = tanh_sinh(
            lambda x, d_lo, d_hi: (d_lo * d_hi) ** -0.5, -1.0, 1.0, 1e-12
        )
        assert res.value == pytest.approx(math.pi, rel=1e-11)

    def test_log_singularity(self):
        res = tanh_sinh(lambda x, d_lo, d_hi: math.log(d_lo), 0.0, 1.0, 1e-12)
        assert res.value == pytest.approx(-1.0, rel=1e-10)


class TestContract:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            tanh_sinh(plain(lambda x: x), 1.0, 0.0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_tol(self, tol):
        calls = []
        with pytest.raises(ValueError, match="^tol must be a finite positive number"):
            tanh_sinh(lambda x, d_lo, d_hi: calls.append(x) or 1.0, 0.0, 1.0, tol)
        assert calls == []

    def test_no_convergence_raises(self):
        # an interior jump converges too slowly for the level budget
        with pytest.raises(NoConvergence, match="^no convergence after 8 levels"):
            tanh_sinh(plain(lambda x: 1.0 if x > 1 / 3 else 0.0), 0.0, 1.0, 1e-12, max_levels=8)
        # a non-integrable singularity overflows at the outermost nodes
        with pytest.raises(NoConvergence, match="^integrand not finite at a quadrature node"):
            tanh_sinh(lambda x, d_lo, d_hi: 1.0 / d_hi, 0.0, 1.0, 1e-12, max_levels=8)

    @pytest.mark.parametrize("scale", [1.0, 1e10, 1e20])
    def test_zero_integral_of_large_terms_converges(self, scale):
        # the error is measured against the integral of |f| (2 scale / pi), not
        # against |value| ~ 0, so the stopping level does not depend on the scale
        res = tanh_sinh(plain(lambda x: scale * math.cos(2 * math.pi * x)), 0.0, 1.0)
        assert res.levels == 4
        assert abs(res.value) <= 1e-10 * scale

    def test_error_estimate_tracks_truth(self):
        res = tanh_sinh(plain(lambda x: x ** 7), 0.0, 1.0, 1e-10)
        assert abs(res.value - 1 / 8) <= max(res.err_est, 1e-12) * 10

    def test_level_budget_controls_work(self):
        coarse = tanh_sinh(plain(math.cos), 0.0, 1.0, 1e-3)
        fine = tanh_sinh(plain(math.cos), 0.0, 1.0, 1e-13)
        assert coarse.levels <= fine.levels
        assert fine.value == pytest.approx(math.sin(1.0), rel=1e-12)

    def test_deterministic(self):
        a = tanh_sinh(plain(lambda x: math.exp(-x * x)), -1.0, 1.0, 1e-11)
        b = tanh_sinh(plain(lambda x: math.exp(-x * x)), -1.0, 1.0, 1e-11)
        assert a.value == b.value and a.evals == b.evals


def product(factors, log_weight=lambda x, d_lo, d_hi: 0.0):
    """The product sweep's evaluate over scalar factors f_i(x, d_lo, d_hi) and a log-weight:
    each needed factor's sign, log-weight + log|f_i| and log|f_i|.  calls records every
    ((x, d_lo, d_hi), need) it is asked (nodes near an end share x == 1.0)."""
    calls = []

    def evaluate(x, d_lo, d_hi, need):
        calls.append(((x, d_lo, d_hi), tuple(need)))
        base = log_weight(x, d_lo, d_hi)
        signs, based, logs = [0.0] * len(factors), [0.0] * len(factors), [0.0] * len(factors)
        for i in need:
            v = factors[i](x, d_lo, d_hi)
            if v:
                signs[i], logs[i] = math.copysign(1.0, v), math.log(abs(v))
                based[i] = base + logs[i]
        return signs, based, logs

    evaluate.calls = calls
    return evaluate


def scalar(factors, i, j, log_weight=lambda x, d_lo, d_hi: 0.0):
    """Pair (i, j) as one scalar integrand: signed_exp of the same sign and logs."""

    def h(x, d_lo, d_hi):
        f, g = factors[i](x, d_lo, d_hi), factors[j](x, d_lo, d_hi)
        if not f or not g:
            return 0.0
        return signed_exp(
            math.copysign(1.0, f) * math.copysign(1.0, g),
            log_weight(x, d_lo, d_hi) + math.log(abs(f)) + math.log(abs(g)),
        )

    return h


def bits(res):
    return (res.value.hex(), res.err_est.hex(), res.levels, res.evals)


def one(x, d_lo, d_hi):
    return 1.0


class TestSweep:
    """Several pairs of factors on one product sweep, each as if integrated alone by the
    oracle's scalar tanh_sinh."""

    FACTORS = [
        one,
        plain(lambda x: x),
        plain(math.exp),
        plain(lambda x: math.sin(40.0 * x)),
        plain(lambda x: x ** 3 - 0.25),
        lambda x, d_lo, d_hi: d_hi ** -0.25,
        lambda x, d_lo, d_hi: math.log(d_lo),
        plain(lambda x: 0.0),  # a zero factor: every pair with it is 0
    ]

    @pytest.mark.parametrize(
        "log_weight",
        [lambda x, d_lo, d_hi: 0.0, lambda x, d_lo, d_hi: -0.5 * math.log(d_lo)],
        ids=["plain", "singular"],
    )
    def test_each_pair_matches_its_scalar_call(self, log_weight):
        fs = self.FACTORS
        pairs = [(i, j) for i in range(len(fs)) for j in range(i, len(fs))]
        results = _product_sweep(product(fs, log_weight), pairs, 0.0, 1.0, 1e-12)
        alone = [tanh_sinh(scalar(fs, i, j, log_weight), 0.0, 1.0, 1e-12) for i, j in pairs]
        assert [bits(r) for r in results] == [bits(r) for r in alone]
        assert len({r.levels for r in alone}) >= 3  # they leave the sweep at different levels
        assert {r.value for r, (i, j) in zip(results, pairs) if 7 in (i, j)} == {0.0}

    def test_failures_stay_with_their_pair(self):
        fs = [
            one,
            plain(lambda x: x),
            lambda x, d_lo, d_hi: 1.0 / d_hi,  # (2, 2) overflows to inf at the last nodes
            plain(lambda x: math.nan if x > 0.5 else x),  # fails at the first node off centre
            plain(lambda x: 1.0 if x > 1 / 3 else 0.0),  # an interior jump converges slowly
            plain(lambda x: math.sin(40.0 * x)),
        ]
        pairs = [(0, 0), (2, 2), (1, 3), (0, 4), (1, 5), (0, 1)]
        results = _product_sweep(product(fs), pairs, 0.0, 1.0, 1e-12, max_levels=8)
        assert str(results[1]).startswith("integrand not finite at a quadrature node")
        assert str(results[2]).startswith("integrand not finite at a quadrature node")
        assert str(results[3]).startswith("no convergence after 8 levels")
        assert sum(isinstance(r, NoConvergence) for r in results) == 3
        for (i, j), res in zip(pairs, results):
            try:
                expected = tanh_sinh(scalar(fs, i, j), 0.0, 1.0, 1e-12, max_levels=8)
            except NoConvergence as exc:
                assert isinstance(res, NoConvergence)
                assert str(res) == str(exc)
                assert repr((res.last_value, res.err_est)) == repr((exc.last_value, exc.err_est))
            else:
                assert bits(res) == bits(expected)

    def test_a_centre_not_finite_fails_its_pair_alone(self):
        # the centre node x = 1/2 is the first row's only node off the node pairs: an
        # infinite or NaN factor there refuses the pair as any other node does, and the
        # pairs that do not read it keep the scalar call's bits
        fs = [
            one,
            plain(lambda x: abs(x - 0.5) ** -0.5 if x != 0.5 else math.inf),
            plain(lambda x: math.nan if x == 0.5 else x),
            plain(lambda x: x),
        ]
        pairs = [(0, 1), (0, 0), (2, 3), (0, 3), (1, 1)]
        results = _product_sweep(product(fs), pairs, 0.0, 1.0, 1e-12)
        near = "integrand not finite at a quadrature node (x near 0.5)"
        assert [str(results[k]) for k in (0, 2, 4)] == [near] * 3
        assert all(math.isnan(results[k].last_value) for k in (0, 2, 4))
        for k in (1, 3):
            expected = tanh_sinh(scalar(fs, *pairs[k]), 0.0, 1.0, 1e-12)
            assert bits(results[k]) == bits(expected)

    def test_the_centre_counts_toward_no_streak(self):
        # on (-1, 1) at tol 1e-10 a term is tiny below 1e-14 (1 + |total|): the first row's
        # centre (u = 0) and node pairs at u = 1 and 2 are tiny, the pair at u = 3 (1 - t
        # about 4e-14) is not; three tiny terms end a row, so a centre that counted would
        # end the first row before u = 3
        fs = [lambda x, d_lo, d_hi: 1.0 if min(d_lo, d_hi) < 1e-12 else 1e-10]
        evaluate = product(fs)
        (res,) = _product_sweep(evaluate, [(0, 0)], -1.0, 1.0, 1e-10)
        assert bits(res) == bits(tanh_sinh(scalar(fs, 0, 0), -1.0, 1.0, 1e-10))
        assert (0.0, 1.0, 1.0) in [node for node, _ in evaluate.calls]
        assert res.value > 1e-12  # the pair at u = 3 is in it

    def test_one_evaluation_per_node(self):
        # one pair alone: the centre, then both nodes of each node pair once
        evaluate = product(self.FACTORS)
        (res,) = _product_sweep(evaluate, [(3, 3)], 0.0, 1.0, 1e-12)
        assert len(evaluate.calls) == res.evals
        # several: each node once for every pair still in the sweep, and need shrinks
        # to the factors the remaining pairs read
        evaluate = product(self.FACTORS)
        results = _product_sweep(evaluate, [(1, 1), (3, 3), (5, 6)], 0.0, 1.0, 1e-12)
        nodes = [node for node, _ in evaluate.calls]
        evals = [r.evals for r in results]
        assert len(nodes) == len(set(nodes))
        assert max(evals) <= len(nodes) < sum(evals)
        assert evaluate.calls[0] == ((0.5, 0.5, 0.5), (1, 3, 5, 6))
        assert len({need for _, need in evaluate.calls}) > 1

    def test_no_pairs_no_evaluation(self):
        def never(x, d_lo, d_hi, need):
            raise AssertionError("called with no pairs")

        assert _product_sweep(never, [], 0.0, 1.0, 1e-12) == []

    @pytest.mark.parametrize(
        "lo, hi, tol, message",
        [
            (1.0, 0.0, 1e-12, "^bounds out of order"),
            (0.0, 0.0, 1e-12, "^bounds out of order"),
            (0.0, 1.0, 0.0, "^tol must be a finite positive number"),
            (0.0, 1.0, -1.0, "^tol must be a finite positive number"),
            (0.0, 1.0, math.inf, "^tol must be a finite positive number"),
            (0.0, 1.0, math.nan, "^tol must be a finite positive number"),
        ],
    )
    def test_rejects_bad_bounds_and_tol(self, lo, hi, tol, message):
        evaluate = product([one])
        with pytest.raises(ValueError, match=message):
            _product_sweep(evaluate, [(0, 0)], lo, hi, tol)
        assert evaluate.calls == []
