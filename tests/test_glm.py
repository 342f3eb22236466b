"""Tests for null-model fitting and the projection structures."""

import inspect
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit

import permscan
from permscan import glm
from permscan import (
    ConvergenceError,
    Dataset,
    Family,
    QuasiSeparationError,
    SingularDesignError,
    fit_null,
)


def _random_design(n, d, seed):
    rng = np.random.default_rng(seed)
    return np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])


def _residual_basis_fit():
    rng = np.random.default_rng(11)
    x_e = np.column_stack([np.ones(400), rng.standard_normal((400, 2))])
    return fit_null(Family.NORMAL, rng.standard_normal(400), x_e)


def _bernoulli_newton_oracle(y, x_e):
    """Direct log-likelihood maximization: coarse grid, then Newton steps
    with hand-written gradient and Hessian. Independent of the IRLS path."""

    def loglik(beta):
        p = np.clip(expit(x_e @ beta), 1e-12, 1 - 1e-12)
        return float(y @ np.log(p) + (1 - y) @ np.log1p(-p))

    grid = np.linspace(-3.0, 3.0, 13)
    best = max(
        (np.array([b0, b1]) for b0 in grid for b1 in grid), key=loglik
    )
    beta = best
    for _ in range(200):
        p = expit(x_e @ beta)
        gradient = x_e.T @ (y - p)
        hessian = -(x_e * (p * (1 - p))[:, None]).T @ x_e
        step = np.linalg.solve(hessian, gradient)
        beta = beta - step
        if np.max(np.abs(step)) < 1e-12:
            break
    return beta


class TestNormalFit:
    def test_intercept_only_fits_the_mean(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(25) * 2.0 + 1.0
        fit = fit_null(Family.NORMAL, y, np.ones((25, 1)))
        assert_allclose(fit.mu_e, np.full(25, y.mean()), rtol=0, atol=1e-12)
        assert_allclose(fit.residuals, y - y.mean(), rtol=0, atol=1e-12)

    def test_residuals_sum_to_zero_with_intercept(self):
        rng = np.random.default_rng(2)
        x_e = _random_design(40, 3, 3)
        y = rng.standard_normal(40)
        fit = fit_null(Family.NORMAL, y, x_e)
        assert abs(fit.residuals.sum()) < 1e-10

    def test_dispersion_is_residual_mean_square(self):
        rng = np.random.default_rng(3)
        x_e = _random_design(30, 2, 4)
        y = rng.standard_normal(30)
        fit = fit_null(Family.NORMAL, y, x_e)
        expected = fit.residuals @ fit.residuals / (30 - 2)
        assert_allclose(fit.phi_hat, expected, rtol=1e-13)
        assert_allclose(fit.variance_diag, np.full(30, expected), rtol=1e-13)

    def test_residuals_equal_projection_of_y(self):
        # For the normal family the weighted projection reduces to the
        # unweighted hat matrix, so residuals == (I - H) y.
        rng = np.random.default_rng(4)
        x_e = _random_design(50, 3, 5)
        y = rng.standard_normal(50)
        fit = fit_null(Family.NORMAL, y, x_e)
        assert_allclose(fit.residuals, y - fit.hat_apply(y), atol=1e-10)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(5)
        x_e = _random_design(30, 2, 6)
        y = rng.standard_normal(30)
        first = fit_null(Family.NORMAL, y, x_e)
        second = fit_null(Family.NORMAL, y, x_e)
        assert np.array_equal(first.coef, second.coef)
        assert np.array_equal(first.residuals, second.residuals)

    def test_singular_design_rejected(self):
        x_e = np.ones((10, 2))  # duplicated intercept
        with pytest.raises(SingularDesignError):
            fit_null(Family.NORMAL, np.arange(10.0), x_e)


class TestBinomialFit:
    def test_intercept_only_fits_the_proportion(self):
        y = np.array([1.0] * 7 + [0.0] * 13)
        fit = fit_null(Family.BINOMIAL, y, np.ones((20, 1)))
        assert_allclose(fit.mu_e, np.full(20, 7 / 20), rtol=1e-9)
        assert fit.phi_hat == 1.0

    def test_matches_newton_oracle(self):
        rng = np.random.default_rng(7)
        x_e = _random_design(20, 2, 8)
        eta = 0.4 + 0.9 * x_e[:, 1]
        y = (rng.random(20) < expit(eta)).astype(float)
        fit = fit_null(Family.BINOMIAL, y, x_e)
        oracle = _bernoulli_newton_oracle(y, x_e)
        assert_allclose(fit.coef, oracle, atol=1e-6)

    def test_variance_diag_is_mu_one_minus_mu(self):
        rng = np.random.default_rng(9)
        x_e = _random_design(60, 2, 10)
        y = (rng.random(60) < 0.5).astype(float)
        fit = fit_null(Family.BINOMIAL, y, x_e)
        assert_allclose(fit.variance_diag, fit.mu_e * (1 - fit.mu_e), rtol=1e-12)

    def test_separation_rejected(self):
        z = np.linspace(-2, 2, 30)
        x_e = np.column_stack([np.ones(30), z])
        y = (z > 0).astype(float)
        with pytest.raises(QuasiSeparationError):
            fit_null(Family.BINOMIAL, y, x_e)

    def test_rank_deficient_design_rejected(self):
        z = np.linspace(-1, 1, 30)
        x_e = np.column_stack([np.ones(30), z, 2 * z])
        y = (np.arange(30) % 3 == 0).astype(float)
        with pytest.raises(SingularDesignError):
            fit_null(Family.BINOMIAL, y, x_e)

    def test_iteration_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(glm, "IRLS_MAX_ITER", 1)
        y = (np.arange(30) % 3 == 0).astype(float)
        with pytest.raises(ConvergenceError):
            fit_null(Family.BINOMIAL, y, _random_design(30, 2, 17))

    def test_non_binary_response_rejected(self):
        with pytest.raises(ValueError):
            fit_null(Family.BINOMIAL, np.array([0.0, 1.0, 2.0]), np.ones((3, 1)))


class TestHatApply:
    def test_intercept_only_closed_form(self):
        # Hat matrix entries are all 1/n, so the constant vector is fixed.
        n = 12
        y = np.arange(n, dtype=float)
        fit = fit_null(Family.NORMAL, y, np.ones((n, 1)))
        assert_allclose(fit.hat_apply(np.ones(n)), np.ones(n), atol=1e-12)
        hat = fit.hat_apply(np.eye(n))
        assert_allclose(hat, np.full((n, n), 1 / n), atol=1e-12)

    @pytest.mark.parametrize("n", [5, 50, 500])
    def test_standardized_covariate_closed_form(self, n):
        # With z centered and scaled to sum(z^2) = n the hat matrix is
        # (1 + z_i z_j) / n.
        rng = np.random.default_rng(n)
        z = rng.standard_normal(n)
        z = z - z.mean()
        z = z * np.sqrt(n / (z @ z))
        x_e = np.column_stack([np.ones(n), z])
        fit = fit_null(Family.NORMAL, rng.standard_normal(n), x_e)
        hat = fit.hat_apply(np.eye(n))
        assert_allclose(hat, (1.0 + np.outer(z, z)) / n, atol=1e-10)

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_intercept_leverage_shrinks(self, n):
        fit = fit_null(Family.NORMAL, np.arange(n, dtype=float), np.ones((n, 1)))
        diagonal = np.einsum("ij,ij->i", fit.hat_basis, fit.hat_basis)
        assert_allclose(diagonal.max(), 1.0 / n, rtol=1e-10)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        x_e = _random_design(40, 3, 12)
        y = (rng.random(40) < 0.4).astype(float)
        fit = fit_null(Family.BINOMIAL, y, x_e)
        v = rng.standard_normal(40)
        assert_allclose(fit.hat_apply(fit.hat_apply(v)), fit.hat_apply(v), atol=1e-8)

    def test_projection_is_symmetric_idempotent_matrix(self):
        rng = np.random.default_rng(13)
        x_e = _random_design(25, 2, 14)
        fit = fit_null(Family.NORMAL, rng.standard_normal(25), x_e)
        hat = fit.hat_apply(np.eye(25))
        assert np.max(np.abs(hat - hat.T)) <= 1e-8
        assert np.max(np.abs(hat @ hat - hat)) <= 1e-8

    def test_dimension_mismatch(self):
        fit = fit_null(Family.NORMAL, np.arange(5.0), np.ones((5, 1)))
        with pytest.raises(ValueError):
            fit.hat_apply(np.ones(4))


class TestQFactor:
    def test_small_intercept_case(self):
        fit = fit_null(Family.NORMAL, np.array([1.0, 2.0, 4.0]), np.ones((3, 1)))
        q = fit.q_factor()
        assert q.shape == (3, 2)
        assert_allclose(q.T @ q, np.eye(2), atol=1e-10)
        residual_projection = np.eye(3) - np.full((3, 3), 1 / 3)
        assert_allclose(q @ q.T, residual_projection, atol=1e-10)

    def test_random_design_identities(self):
        rng = np.random.default_rng(15)
        x_e = _random_design(30, 3, 16)
        fit = fit_null(Family.NORMAL, rng.standard_normal(30), x_e)
        q = fit.q_factor()
        assert q.shape == (30, 27)
        assert_allclose(q.T @ q, np.eye(27), atol=1e-8)
        hat = fit.hat_apply(np.eye(30))
        assert_allclose(q @ q.T, np.eye(30) - hat, atol=1e-8)

    def test_cached(self):
        fit = fit_null(Family.NORMAL, np.arange(6.0), np.ones((6, 1)))
        assert fit.q_factor() is fit.q_factor()

    def test_basis_does_not_depend_on_blas_threads(self, tmp_path):
        # Modified-model permutes in this basis, so a basis that changed with
        # the BLAS thread count would change its replicate statistics.
        script = "\n".join(
            [
                "import sys",
                "import numpy as np",
                "from permscan import Family, fit_null",
                inspect.getsource(_residual_basis_fit),
                "np.save(sys.argv[1], _residual_basis_fit().q_factor())",
            ]
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        src = str(Path(permscan.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / "q.npy"
        subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True)
        q = _residual_basis_fit().q_factor()
        assert_allclose(np.load(out), q, rtol=0, atol=1e-10)

    def test_requires_residual_dimension(self):
        fit = fit_null(
            Family.NORMAL,
            np.array([1.0, 2.0, 3.0]),
            np.column_stack([np.ones(3), [0.0, 1.0, 2.0]]),
        )
        with pytest.raises(ValueError):
            fit.q_factor()


class TestDataset:
    def test_valid_roundtrip(self):
        ds = Dataset(
            y=np.array([0.1, 0.2, 0.3]),
            x_e=np.column_stack([np.ones(3), [0.0, 1.0, 2.0]]),
            x_g=np.array([[0.0], [1.0], [2.0]]),
        )
        assert ds.n == 3 and ds.d == 2 and ds.m == 1

    def test_rejects_bad_genotypes(self):
        with pytest.raises(ValueError):
            Dataset(
                y=np.zeros(3),
                x_e=np.ones((3, 1)),
                x_g=np.array([[0.0], [3.0], [1.0]]),
            )

    def test_rejects_missing_intercept(self):
        with pytest.raises(ValueError):
            Dataset(
                y=np.zeros(3),
                x_e=np.array([[2.0], [1.0], [1.0]]),
                x_g=np.zeros((3, 1)),
            )

    def test_rejects_too_few_rows(self):
        with pytest.raises(ValueError):
            Dataset(
                y=np.zeros(2),
                x_e=np.column_stack([np.ones(2), [0.0, 1.0]]),
                x_g=np.zeros((2, 1)),
            )


def test_family_variance_functions():
    mu = np.array([0.2, 0.5])
    assert_allclose(Family.BINOMIAL.variance(mu), mu * (1 - mu))
    assert_allclose(Family.NORMAL.variance(mu, phi=2.5), [2.5, 2.5])


def test_expit_matches_scipy_without_overflow_warning():
    x = np.linspace(-800.0, 800.0, 160_001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = glm.expit(x)
        ends = glm.expit(np.array([-800.0, 800.0]))
    assert_allclose(ours, expit(x), rtol=1e-15, atol=0)
    assert ends.tolist() == [0.0, 1.0]
