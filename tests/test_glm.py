"""Tests for null-model fitting and the projection structures."""

import dataclasses
import inspect
import os
import subprocess
import sys
import tracemalloc
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


MASKS = ("singular", "separated", "converged")


class TestBatchIrls:
    def test_peak_memory_is_two_row_buffers(self):
        rng = np.random.default_rng(31)
        x_e = _random_design(400, 2, 32)
        ys = (rng.random((512, 400)) < expit(0.3 + 1.2 * x_e[:, 1])).astype(float)
        glm.binomial_irls(x_e, ys)
        tracemalloc.start()
        try:
            glm.binomial_irls(x_e, ys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * ys.nbytes

    def test_each_row_fits_as_a_batch_of_one(self):
        rng = np.random.default_rng(42)
        x_e = _random_design(20, 2, 41)
        z = x_e[:, 1]
        regular = (rng.random((6, 20)) < expit(0.4 + 0.9 * z)).astype(float)
        separated = np.vstack([z > 0, z < -0.5, z > 1.0]).astype(float)
        ys = np.vstack([regular[:2], separated[:1], regular[2:], separated[1:]])
        batch = glm.binomial_irls(x_e, ys)
        assert batch.separated.tolist() == [False] * 2 + [True] + [False] * 4 + [True] * 2
        assert batch.ok.sum() == 6
        for i, y in enumerate(ys):
            single = glm.binomial_irls(x_e, y[None, :])
            for mask in MASKS:
                assert getattr(batch, mask)[i] == getattr(single, mask)[0], (i, mask)
            if batch.ok[i]:
                oracle = _bernoulli_newton_oracle(y, x_e)
                assert_allclose(batch.coef[i], single.coef[0], rtol=0, atol=1e-8)
                assert_allclose(batch.coef[i], oracle, rtol=0, atol=1e-8)

    def test_singular_rows_fit_as_a_batch_of_one(self):
        rng = np.random.default_rng(43)
        z = _random_design(20, 2, 44)[:, 1]
        # A zero column's last pivot is exactly 0; a collinear one's is rounding of either sign.
        x_e = np.column_stack([np.ones(20), z, np.zeros(20)])
        ys = (rng.random((4, 20)) < expit(0.4 + 0.9 * z)).astype(float)
        batch = glm.binomial_irls(x_e, ys)
        assert batch.singular.all() and not batch.ok.any()
        for i, y in enumerate(ys):
            single = glm.binomial_irls(x_e, y[None, :])
            for mask in MASKS:
                assert getattr(batch, mask)[i] == getattr(single, mask)[0], (i, mask)
            assert np.array_equal(batch.coef[i], single.coef[0])

    def test_one_singular_row_is_masked_alone(self, monkeypatch):
        # Row 2's weighted system is replaced by the zero matrix on every
        # Newton pass of the batch; the batch-of-one fits keep theirs.
        rng = np.random.default_rng(45)
        x_e = _random_design(30, 2, 46)
        ys = (rng.random((5, 30)) < expit(0.4 + 0.9 * x_e[:, 1])).astype(float)
        real = glm.cholesky_inverse

        def zero_row_two(a):
            if len(a) == len(ys):
                a = a.copy()
                a[2] = 0.0
            return real(a)

        monkeypatch.setattr(glm, "cholesky_inverse", zero_row_two)
        batch = glm.binomial_irls(x_e, ys)
        assert batch.singular.tolist() == [False, False, True, False, False]
        assert batch.ok.tolist() == [True, True, False, True, True]
        assert np.isfinite(batch.coef).all()
        for i in (0, 1, 3, 4):
            single = glm.binomial_irls(x_e, ys[i][None, :])
            for mask in MASKS:
                assert getattr(batch, mask)[i] == getattr(single, mask)[0], (i, mask)
            assert_allclose(batch.coef[i], single.coef[0], rtol=0, atol=1e-8)
        # The masked row takes zero steps: it keeps its pass-1 coefficients.
        monkeypatch.setattr(glm, "IRLS_MAX_ITER", 1)
        first = glm.binomial_irls(x_e, ys[2][None, :])
        assert_allclose(batch.coef[2], first.coef[0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("start", [None, np.array([0.3, -0.5, 0.2])])
    def test_pass_one_is_the_newton_step_from_the_shared_start(self, monkeypatch, start):
        rng = np.random.default_rng(47)
        x_e = _random_design(40, 3, 48)
        ys = (rng.random((6, 40)) < expit(0.2 + 0.8 * x_e[:, 1])).astype(float)
        at = np.zeros(3) if start is None else start
        mu0 = expit(x_e @ at)
        hessian = (x_e * (mu0 * (1 - mu0))[:, None]).T @ x_e
        expected = at + np.linalg.solve(hessian, x_e.T @ (ys - mu0).T).T
        monkeypatch.setattr(glm, "IRLS_MAX_ITER", 1)
        fit = glm.binomial_irls(x_e, ys, start=start)
        assert fit.iterations == 1 and not fit.converged.any()
        assert_allclose(fit.coef, expected, rtol=0, atol=1e-12)

    def test_a_row_started_at_its_own_fit_converges_on_the_first_newton_pass(self):
        rng = np.random.default_rng(49)
        x_e = _random_design(60, 3, 50)
        y = (rng.random(60) < expit(0.4 + 0.9 * x_e[:, 1])).astype(float)
        fit = fit_null(Family.BINOMIAL, y, x_e)
        again = glm.binomial_irls(x_e, y[None, :], start=fit.coef)
        assert again.iterations == 2 and again.ok[0]
        assert_allclose(again.coef[0], fit.coef, rtol=0, atol=1e-8)

    def test_separated_batch_stops_early(self):
        z = np.linspace(-2, 2, 30)
        x_e = np.column_stack([np.ones(30), z])
        ys = np.vstack([z > 0, z < 0.5]).astype(float)
        fit = glm.binomial_irls(x_e, ys)
        assert fit.separated.all() and not fit.converged.any()
        assert fit.iterations < glm.IRLS_MAX_ITER


class TestCholeskyInverse:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_solves_like_linalg_and_masks_the_rest(self, d):
        # Systems 3, 7 and 11 are singular (a zero last row and column),
        # indefinite (a negative last pivot) and non-finite (NaN in a corner).
        rng = np.random.default_rng(50 + d)
        root = rng.standard_normal((16, d, d))
        a = root @ root.transpose(0, 2, 1) + d * np.eye(d)
        a[3, -1, :] = a[3, :, -1] = 0.0
        a[7] = np.eye(d)
        a[7, -1, -1] = -1.0
        a[11, -1, 0] = a[11, 0, -1] = np.nan
        rhs = rng.standard_normal((16, d))
        masked = np.isin(np.arange(16), (3, 7, 11))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inv, ok = glm.cholesky_inverse(a)
        assert ok.tolist() == (~masked).tolist()
        assert np.isfinite(inv).all()
        solved = np.einsum("bji,bj->bi", inv, np.einsum("bij,bj->bi", inv, rhs))
        expected = np.linalg.solve(a[ok], rhs[ok][..., None])[..., 0]
        assert_allclose(solved[ok], expected, rtol=1e-12, atol=0)
        identity = inv[ok] @ a[ok] @ inv[ok].transpose(0, 2, 1)
        assert_allclose(identity, np.broadcast_to(np.eye(d), identity.shape), atol=1e-12)


# A non-finite phenotype or covariate must be rejected by name, not fitted
# (NaN) or reported as a rank-deficient design (inf).
NON_FINITE = [
    ("y", 3, np.nan),
    ("y", 0, -np.inf),
    ("x_e", 4, np.inf),
    ("x_e", 7, np.nan),
]


def _inputs_with(name, row, value):
    """A 0/1 phenotype and a two-column design with ``value`` put into one."""
    inputs = {
        "y": (np.arange(12) % 3 == 0).astype(float),
        "x_e": _random_design(12, 2, 21),
    }
    if name == "y":
        inputs["y"][row] = value
    else:
        inputs["x_e"][row, 1] = value
    return inputs


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("name, row, value", NON_FINITE)
def test_fit_null_rejects_non_finite_input(family, name, row, value):
    inputs = _inputs_with(name, row, value)
    with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
        fit_null(family, inputs["y"], inputs["x_e"])


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

    def test_replaced_fit_takes_its_own_basis(self):
        # A dataclasses.replace copy with another design spans another
        # residual space, whatever the original's basis was asked for first.
        rng = np.random.default_rng(17)
        fit = fit_null(Family.NORMAL, rng.standard_normal(12), _random_design(12, 2, 18))
        fit.q_factor()
        x_e = _random_design(12, 2, 19)
        other = fit_null(Family.NORMAL, rng.standard_normal(12), x_e)
        copy = dataclasses.replace(fit, x_e=x_e, hat_basis=other.hat_basis)
        q = copy.q_factor()
        assert_allclose(q @ q.T, np.eye(12) - copy.hat_apply(np.eye(12)), atol=1e-10)

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

    @pytest.mark.parametrize("name, row, value", NON_FINITE)
    def test_rejects_non_finite_input(self, name, row, value):
        inputs = _inputs_with(name, row, value)
        with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
            Dataset(x_g=np.zeros((12, 1)), **inputs)

    @pytest.mark.parametrize("name", ["y", "x_e", "x_g"])
    @pytest.mark.parametrize("view", [False, True], ids=["array", "view"])
    def test_leaves_the_callers_arrays_writable(self, name, view):
        # Each input already has the stored dtype and layout, so converting
        # it returns the input itself (or, for a row slice, a view of the
        # caller's array).
        inputs = {
            "y": np.linspace(0.0, 1.0, 8),
            "x_e": np.column_stack([np.ones(8), np.linspace(-1.0, 1.0, 8)]),
            "x_g": np.tile(np.array([[0, 1], [1, 2]], dtype=np.int8), (4, 1)),
        }
        original = inputs[name]
        if view:
            original = np.concatenate([original, original])
            inputs[name] = original[:8]
        dataset = Dataset(**inputs)
        stored = getattr(dataset, name)
        assert stored is not inputs[name]
        assert not np.may_share_memory(stored, original)
        assert not stored.flags.writeable
        assert inputs[name].flags.writeable and original.flags.writeable
        before = stored.copy()
        original[0] = 2
        assert np.array_equal(stored, before)

    def test_shares_a_read_only_input(self):
        x_g = np.tile(np.array([[0, 1], [1, 2]], dtype=np.int8), (4, 1))
        x_g.flags.writeable = False
        dataset = Dataset(
            y=np.linspace(0.0, 1.0, 8),
            x_e=np.column_stack([np.ones(8), np.linspace(-1.0, 1.0, 8)]),
            x_g=x_g,
        )
        assert dataset.x_g is x_g

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
