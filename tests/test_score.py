"""Tests for the standardized score statistics and their correlation."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit, ndtr

from permscan import (
    DegenerateMarkerError,
    Family,
    SizeLimitError,
    fit_null,
    score_correlation,
    score_denominators,
    score_statistics,
)
from permscan import score
from permscan.score import two_sided_p


def _dense_conditional_covariance(x_g, x_e, variance_diag):
    """V = Xg' L Xg - Xg' L Xe (Xe' L Xe)^-1 Xe' L Xg evaluated densely."""
    lam = np.diag(variance_diag)
    middle = np.linalg.inv(x_e.T @ lam @ x_e)
    return x_g.T @ lam @ x_g - x_g.T @ lam @ x_e @ middle @ x_e.T @ lam @ x_g


def _binomial_instance(n=50, m=5, seed=20):
    rng = np.random.default_rng(seed)
    x_e = np.column_stack([np.ones(n), rng.standard_normal(n)])
    x_g = rng.integers(0, 3, size=(n, m)).astype(float)
    y = (rng.random(n) < expit(0.3 + 0.5 * x_e[:, 1])).astype(float)
    return y, x_e, x_g


class TestDenominators:
    def test_intercept_only_reduces_to_centered_norm(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(30)
        g = rng.integers(0, 3, size=(30, 1)).astype(float)
        fit = fit_null(Family.NORMAL, y, np.ones((30, 1)))
        denom = score_denominators(fit, g)
        sigma = np.sqrt(fit.phi_hat)
        centered = g[:, 0] - g[:, 0].mean()
        assert_allclose(denom[0], sigma * np.sqrt(centered @ centered), rtol=1e-12)

    def test_marker_collinear_with_covariates_is_degenerate(self):
        fit = fit_null(Family.NORMAL, np.arange(8.0), np.ones((8, 1)))
        with pytest.raises(DegenerateMarkerError) as info:
            score_denominators(fit, np.ones((8, 1)))  # equals the intercept
        assert info.value.marker == 0

    def test_matches_dense_covariance_oracle(self):
        y, x_e, x_g = _binomial_instance()
        fit = fit_null(Family.BINOMIAL, y, x_e)
        denom = score_denominators(fit, x_g)
        dense = _dense_conditional_covariance(x_g, x_e, fit.variance_diag)
        assert_allclose(denom**2, np.diag(dense), rtol=1e-8)


class TestStatistics:
    def test_zero_residuals_give_zero_statistics(self):
        rng = np.random.default_rng(1)
        x_e = np.column_stack([np.ones(20), rng.standard_normal(20)])
        y = rng.standard_normal(20)
        fit = fit_null(Family.NORMAL, y, x_e)
        perfect = dataclasses.replace(fit, residuals=np.zeros(20))
        stats = score_statistics(perfect, rng.integers(0, 3, (20, 3)).astype(float))
        assert_allclose(stats.t, 0.0, atol=0)
        assert stats.max_abs_t == 0.0

    def test_hand_computed_six_point_example(self):
        # Intercept-only normal fit: residuals (-1,...,-1,5), dispersion
        # 30/5 = 6, centered marker norm sqrt(4), numerator 6.
        y = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 6.0])
        g = np.array([[0.0], [0.0], [1.0], [1.0], [2.0], [2.0]])
        fit = fit_null(Family.NORMAL, y, np.ones((6, 1)))
        stats = score_statistics(fit, g)
        assert_allclose(stats.t[0], 3.0 / np.sqrt(6.0), rtol=1e-10)

    def test_binomial_matches_trend_test_oracle(self):
        # Intercept-only binomial: t^2 equals the classical trend-test
        # chi-square U^2 / (ybar (1-ybar) sum (g - gbar)^2).
        rng = np.random.default_rng(2)
        n = 200
        g = rng.integers(0, 3, size=(n, 1)).astype(float)
        y = (rng.random(n) < 0.4).astype(float)
        fit = fit_null(Family.BINOMIAL, y, np.ones((n, 1)))
        stats = score_statistics(fit, g)
        ybar = y.mean()
        centered = g[:, 0] - g[:, 0].mean()
        u = g[:, 0] @ (y - ybar)
        v = ybar * (1 - ybar) * (centered @ centered)
        assert_allclose(stats.t[0] ** 2, u**2 / v, rtol=1e-8)

    def test_scale_and_location_invariance_normal(self):
        rng = np.random.default_rng(3)
        x_e = np.column_stack([np.ones(40), rng.standard_normal(40)])
        x_g = rng.integers(0, 3, size=(40, 4)).astype(float)
        y = rng.standard_normal(40)
        base = score_statistics(fit_null(Family.NORMAL, y, x_e), x_g)
        shifted = score_statistics(
            fit_null(Family.NORMAL, 3.7 * y - 2.1, x_e), x_g
        )
        assert_allclose(shifted.t, base.t, atol=1e-8)

    def test_matches_dense_standardization_oracle(self):
        # Statistics formed from the dense conditional covariance agree
        # with the projection-based implementation.
        rng = np.random.default_rng(4)
        for n in (30, 100, 200):
            x_e = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
            x_g = rng.integers(0, 3, size=(n, 6)).astype(float)
            y = rng.standard_normal(n)
            fit = fit_null(Family.NORMAL, y, x_e)
            stats = score_statistics(fit, x_g)
            phi = fit.phi_hat
            u = (x_g.T @ fit.residuals) / phi
            v = _dense_conditional_covariance(x_g, x_e, fit.variance_diag) / phi**2
            assert_allclose(stats.t, u / np.sqrt(np.diag(v)), rtol=1e-8)

    def test_max_abs_t_consistent(self):
        y, x_e, x_g = _binomial_instance(seed=5)
        stats = score_statistics(fit_null(Family.BINOMIAL, y, x_e), x_g)
        assert stats.max_abs_t == np.max(np.abs(stats.t))


class TestCorrelation:
    def test_orthogonal_markers_identity(self):
        g = np.array(
            [[0.0, 2.0], [1.0, 1.0], [2.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
        )
        fit = fit_null(Family.NORMAL, np.arange(6.0), np.ones((6, 1)))
        corr = score_correlation(fit, g)
        assert_allclose(corr.r, np.eye(2), atol=1e-12)

    def test_duplicated_marker_perfectly_correlated(self):
        rng = np.random.default_rng(6)
        g = rng.integers(0, 3, size=(25, 1)).astype(float)
        fit = fit_null(Family.NORMAL, rng.standard_normal(25), np.ones((25, 1)))
        corr = score_correlation(fit, np.hstack([g, g]))
        assert_allclose(corr.r[0, 1], 1.0, rtol=1e-12)

    def test_symmetric_unit_diagonal(self):
        y, x_e, x_g = _binomial_instance(seed=7)
        corr = score_correlation(fit_null(Family.BINOMIAL, y, x_e), x_g)
        assert_allclose(corr.r, corr.r.T, atol=1e-12)
        assert_allclose(np.diag(corr.r), 1.0, atol=1e-12)
        assert np.all(corr.r <= 1.0) and np.all(corr.r >= -1.0)

    def test_dense_limit_enforced(self, monkeypatch):
        y, x_e, x_g = _binomial_instance(seed=8)
        fit = fit_null(Family.BINOMIAL, y, x_e)
        monkeypatch.setattr(score, "DENSE_CORRELATION_LIMIT", 3)
        with pytest.raises(SizeLimitError):
            score_correlation(fit, x_g)

    def test_constant_marker_is_degenerate(self):
        y, x_e, x_g = _binomial_instance(seed=9)
        x_g[:, 2] = 1.0
        with pytest.raises(DegenerateMarkerError) as info:
            score_correlation(fit_null(Family.BINOMIAL, y, x_e), x_g)
        assert info.value.marker == 2


def test_two_sided_p_matches_scipy_normal_tail():
    t = np.linspace(-40.0, 40.0, 8001)
    reference = 2 * ndtr(-np.abs(t))
    kept = reference > 1e-300
    ours = np.array([two_sided_p(v) for v in t[kept]])
    assert_allclose(ours, reference[kept], rtol=1e-12, atol=0)


class TestDenominatorCache:
    """score_denominators caches its result on the fit for the first
    read-only genotype matrix and serves it only for that same matrix."""

    @staticmethod
    def _fit(read_only):
        y, x_e, x_g = _binomial_instance(seed=11)
        x_g.flags.writeable = not read_only
        return fit_null(Family.BINOMIAL, y, x_e), x_g

    def test_the_same_read_only_matrix_is_served_from_the_cache(self, monkeypatch):
        fit, x_g = self._fit(read_only=True)
        first = score_denominators(fit, x_g)
        assert not first.flags.writeable
        assert np.array_equal(first, score_denominators(fit, x_g.copy()))

        def recomputed(*args):
            pytest.fail("cached denominators were recomputed")

        monkeypatch.setattr(score, "_weighted_markers", recomputed)
        assert score_denominators(fit, x_g) is first
        assert score_statistics(fit, x_g).denom is first

    def test_a_writable_matrix_is_recomputed_after_a_change(self):
        fit, x_g = self._fit(read_only=False)
        before = score_denominators(fit, x_g)
        x_g[:, 0] = x_g[:, 1]
        assert_allclose(score_denominators(fit, x_g)[0], before[1], rtol=1e-12)

    def test_a_matrix_made_writable_again_is_recomputed(self):
        fit, x_g = self._fit(read_only=True)
        before = score_denominators(fit, x_g)
        x_g.flags.writeable = True
        x_g[:, 0] = x_g[:, 1]
        assert_allclose(score_denominators(fit, x_g)[0], before[1], rtol=1e-12)

    def test_a_read_only_view_of_a_writable_array_is_not_cached(self):
        fit, x_g = self._fit(read_only=False)
        view = x_g[:]
        view.flags.writeable = False
        before = score_denominators(fit, view)
        x_g[:, 0] = x_g[:, 1]
        assert_allclose(score_denominators(fit, view)[0], before[1], rtol=1e-12)

    def test_another_matrix_is_computed_and_leaves_the_cache(self):
        fit, x_g = self._fit(read_only=True)
        first = score_denominators(fit, x_g)
        reversed_g = x_g[:, ::-1].copy()
        reversed_g.flags.writeable = False
        assert_allclose(score_denominators(fit, reversed_g), first[::-1], rtol=1e-12)
        assert score_denominators(fit, x_g) is first

    def test_a_replaced_fit_does_not_inherit_the_cache(self):
        fit, x_g = self._fit(read_only=True)
        score_denominators(fit, x_g)
        reweighted = dataclasses.replace(
            fit, variance_diag=fit.variance_diag * np.linspace(0.5, 2.0, fit.n)
        )
        expected = score_denominators(reweighted, x_g.copy())
        assert np.array_equal(score_denominators(reweighted, x_g), expected)
