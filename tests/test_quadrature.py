import math

import pytest

from specpoly import NoConvergence, tanh_sinh
from specpoly.quadrature import _tanh_sinh_sweep


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


def swept(integrands):
    """The vector integrand over a list of scalar ones."""
    return lambda x, d_lo, d_hi, active: [integrands[i](x, d_lo, d_hi) for i in active]


def bits(res):
    return (res.value.hex(), res.err_est.hex(), res.levels, res.evals)


class TestSweep:
    """Several integrands on one node sweep, each as if integrated alone."""

    INTEGRANDS = [
        plain(lambda x: x * x),
        plain(math.exp),
        plain(lambda x: math.sin(40.0 * x)),
        plain(lambda x: x ** 7),
        lambda x, d_lo, d_hi: d_hi ** -0.5,
        lambda x, d_lo, d_hi: math.log(d_lo),
        lambda x, d_lo, d_hi: (d_lo * d_hi) ** -0.5,
    ]

    def test_each_integrand_matches_its_scalar_call(self):
        fs = self.INTEGRANDS
        results = _tanh_sinh_sweep(swept(fs), len(fs), 0.0, 1.0, 1e-12)
        scalar = [tanh_sinh(f, 0.0, 1.0, 1e-12) for f in fs]
        assert [bits(r) for r in results] == [bits(r) for r in scalar]
        assert len({r.levels for r in scalar}) == 3  # they leave the sweep at different levels

    def test_failures_stay_with_their_integrand(self):
        fs = [
            self.INTEGRANDS[0],
            lambda x, d_lo, d_hi: 1.0 / d_hi,  # overflows to inf at the last nodes
            plain(lambda x: math.nan if x > 0.5 else x),  # fails at the first node off centre
            plain(lambda x: 1.0 if x > 1 / 3 else 0.0),  # an interior jump converges slowly
            self.INTEGRANDS[2],
            self.INTEGRANDS[4],
        ]
        results = _tanh_sinh_sweep(swept(fs), len(fs), 0.0, 1.0, 1e-12, max_levels=8)
        assert str(results[1]).startswith("integrand not finite at a quadrature node")
        assert str(results[2]).startswith("integrand not finite at a quadrature node")
        assert str(results[3]).startswith("no convergence after 8 levels")
        for f, res in zip(fs, results):
            try:
                expected = tanh_sinh(f, 0.0, 1.0, 1e-12, max_levels=8)
            except NoConvergence as exc:
                assert isinstance(res, NoConvergence)
                assert str(res) == str(exc)
                assert repr((res.last_value, res.err_est)) == repr((exc.last_value, exc.err_est))
            else:
                assert bits(res) == bits(expected)

    def test_no_integrands_no_evaluation(self):
        def never(x, d_lo, d_hi, active):
            raise AssertionError("called with no integrands")

        assert _tanh_sinh_sweep(never, 0, 0.0, 1.0, 1e-12) == []
