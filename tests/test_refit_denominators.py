"""Tests for the binomial bootstrap's refit denominators: x_e' W x_e is
factored once per row fit, and each marker block's denominators are one
product with the whitened covariates and a sum of squares."""

import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from permscan import (
    Family,
    ResamplingScheme,
    SimulationConfig,
    fit_null,
    replicate_matrix,
    replicate_statistics,
    score_statistics,
    simulate_dataset,
)
from permscan import glm, resampling
from permscan.glm import Dataset, expit
from permscan.score import score_denominators

BOOTSTRAP = ResamplingScheme.PARAMETRIC_BOOTSTRAP


def _dataset(d, n=150, m=7, seed=3, indicator=0):
    """Binomial dataset with d - 1 covariates. With ``indicator`` > 0 the
    first covariate is 1 on the first ``indicator`` observations, else 0."""
    gen = np.random.default_rng(seed)
    covariates = gen.normal(size=(n, d - 1))
    if indicator:
        covariates[:, 0] = np.arange(n) < indicator
    x_e = np.column_stack([np.ones(n), covariates])
    mu = expit(x_e @ np.linspace(-0.3, 0.4, d))
    y = (gen.random(n) < mu).astype(float)
    x_g = gen.binomial(2, 0.3, size=(n, m)).astype(float)
    return Dataset(y, x_e, x_g)


def _denominators(x_e, x_g, mu):
    """Refit denominators of each row of ``mu`` on every marker of ``x_g``
    and the mask of rows with a regular system and no degenerate marker."""
    weights = resampling._refit_weights(x_e, mu, np.empty((x_e.shape[1], *mu.shape)))
    return resampling._refit_block_denominators(weights, x_g)


@pytest.mark.parametrize("d", [1, 3])
def test_denominators_match_fit_null_per_row(d):
    # The benchmark's datasets have d = 2; intercept-only and two-covariate
    # designs take the other branches of the factor's column loop.
    dataset = _dataset(d)
    gen = np.random.default_rng(40 + d)
    fit = fit_null(Family.BINOMIAL, dataset.y, dataset.x_e)
    rows = (gen.random((20, dataset.n)) < fit.mu_e).astype(float)
    fits = [fit_null(Family.BINOMIAL, row, dataset.x_e) for row in rows]
    mu = np.vstack([row_fit.mu_e for row_fit in fits])
    denom, ok = _denominators(dataset.x_e, dataset.x_g, mu)
    expected = np.vstack([score_denominators(row_fit, dataset.x_g) for row_fit in fits])
    assert ok.all()
    assert_allclose(denom, expected, rtol=1e-10, atol=0)


def test_an_exactly_singular_row_is_flagged_without_warnings():
    # mu of row 2 is exactly 0 on the indicator's support, so its weights
    # vanish there and x_e' W x_e has a zero row and column.
    dataset = _dataset(3, indicator=12)
    fit = fit_null(Family.BINOMIAL, dataset.y, dataset.x_e)
    mu = np.tile(fit.mu_e, (5, 1))
    mu += np.linspace(-0.02, 0.02, 5)[:, None]
    mu[2, :12] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        denom, ok = _denominators(dataset.x_e, dataset.x_g, mu)
    assert ok.tolist() == [True, True, False, True, True]
    assert np.isfinite(denom).all()
    regular = [0, 1, 3, 4]
    alone, alone_ok = _denominators(dataset.x_e, dataset.x_g, mu[regular])
    assert alone_ok.all()
    assert_allclose(denom[regular], alone, rtol=1e-12, atol=0)


def test_a_bootstrap_redraws_a_replicate_whose_system_is_singular(monkeypatch):
    # Replicate 5's refit is made exactly singular after the IRLS, which
    # still reports it as a good fit; only the factor can reject it.
    dataset = _dataset(3, n=200, m=9, indicator=15)
    fit = fit_null(Family.BINOMIAL, dataset.y, dataset.x_e)
    plain = replicate_matrix(BOOTSTRAP, fit, dataset, 600, seed=8)
    real, batches = resampling.binomial_irls, []

    def singular_row_five(x_e, ys, *buffers):
        irls = real(x_e, ys, *buffers)
        if not batches:
            irls.mu[5, :15] = 0.0
        batches.append(len(ys))
        return irls

    monkeypatch.setattr(resampling, "binomial_irls", singular_row_five)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        redrawn = replicate_matrix(BOOTSTRAP, fit, dataset, 600, seed=8)
    assert batches == [600, 1]
    others = np.arange(600) != 5
    assert np.array_equal(redrawn[others], plain[others])
    assert np.isfinite(redrawn[5]).all()
    assert not np.array_equal(redrawn[5], plain[5])


def test_the_marker_map_solves_no_system(monkeypatch):
    # Only the IRLS's passes and the row fit's whitening factor x_e' W x_e,
    # one (rows, d, d) stack at a time; the marker map of a block multiplies.
    dataset = _dataset(2, n=120, m=700)
    fit = fit_null(Family.BINOMIAL, dataset.y, dataset.x_e)
    real_factor, real_map = glm.cholesky_inverse, resampling._refit_block_denominators
    shapes, mapping, widths = [], [], []

    def factor(a):
        if mapping:
            raise AssertionError("the bootstrap's marker map solved a system")
        shapes.append(a.shape)
        return real_factor(a)

    def marker_map(weights, x_cols, **flags):
        mapping.append(x_cols.shape)
        widths.append(x_cols.shape[1])
        try:
            return real_map(weights, x_cols, **flags)
        finally:
            mapping.pop()

    monkeypatch.setattr(glm, "cholesky_inverse", factor)
    monkeypatch.setattr(resampling, "cholesky_inverse", factor)
    monkeypatch.setattr(resampling, "_refit_block_denominators", marker_map)
    dist = replicate_statistics(BOOTSTRAP, fit, dataset, 300, seed=2)
    assert np.isfinite(dist.max_stats).all()
    assert shapes and all(shape[1:] == (2, 2) for shape in shapes)
    assert widths == [512, 188]


def test_a_bootstrap_block_holds_three_row_buffers():
    # At n=1000, B=1024 and m=64 a (rows, n) buffer is 7.8 MiB and each
    # (rows, m) array a sixteenth of one, so the row buffers set the peak:
    # the drawn rows, over which the residuals are written, and the refit's
    # (2, rows, n) block of weights and mu, over which the covariates are
    # whitened.
    sim = SimulationConfig(n=1000, m=64, family=Family.BINOMIAL, beta_e=0.5, rho=0.5, seed=2)
    dataset = simulate_dataset(sim).dataset
    fit = fit_null(sim.family, dataset.y, dataset.x_e)
    score_statistics(fit, dataset.x_g)  # as a scan does before resampling
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        replicate_statistics(BOOTSTRAP, fit, dataset, 1024, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 3.3 * 1024 * dataset.n * 8


@pytest.mark.parametrize("scheme", [ResamplingScheme.RAW_Y, BOOTSTRAP])
def test_refits_leave_the_markers_untouched(scheme):
    dataset = _dataset(3, n=60, m=7)
    fit = fit_null(Family.BINOMIAL, dataset.y, dataset.x_e)
    x_g = dataset.x_g.copy()
    replicate_matrix(scheme, fit, dataset, 1100, seed=4)
    assert np.array_equal(dataset.x_g, x_g)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("dtype", [float, np.int8])
def test_block_denominators_never_write_the_callers_markers(d, dtype):
    dataset = _dataset(d)
    fit = fit_null(Family.BINOMIAL, dataset.y, dataset.x_e)
    mu = np.tile(fit.mu_e, (4, 1)) + np.linspace(-0.02, 0.02, 4)[:, None]
    x_cols = np.array(dataset.x_g, dtype=dtype)
    before = x_cols.copy()
    denom, ok = _denominators(dataset.x_e, x_cols, mu)
    assert np.array_equal(x_cols, before) and x_cols.flags.writeable
    assert ok.all() and np.isfinite(denom).all()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_block_denominators_in_place_restore_the_counts_exactly(d):
    # In place, a float block of counts is squared and rooted back: the
    # block comes back bitwise, and so do the denominators of a fresh square.
    dataset = _dataset(d)
    fit = fit_null(Family.BINOMIAL, dataset.y, dataset.x_e)
    mu = np.tile(fit.mu_e, (4, 1)) + np.linspace(-0.02, 0.02, 4)[:, None]
    weights = resampling._refit_weights(dataset.x_e, mu, np.empty((dataset.d, *mu.shape)))
    x_cols = dataset.x_g.astype(float)
    denom, ok = resampling._refit_block_denominators(weights, x_cols.copy())
    in_place = resampling._refit_block_denominators(weights, x_cols, in_place=True)
    assert np.array_equal(x_cols, dataset.x_g)
    assert np.array_equal(in_place[0], denom) and np.array_equal(in_place[1], ok)
