"""Tests for marker-blocked replicate evaluation: each block of replicate
rows is fit once and mapped ``resampling._MARKER_BLOCK`` marker columns at
a time, keeping only running row maxima."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from permscan import (
    Family,
    ResamplingScheme,
    SimulationConfig,
    exchangeable_transform,
    fit_null,
    replicate_matrix,
    replicate_statistics,
    score_statistics,
    simulate_dataset,
)
from permscan import resampling, score
from permscan.rng import RESAMPLING_LANE, substream


def _instance(family, n, m, beta_e, seed, rho=0.0):
    sim = SimulationConfig(n=n, m=m, family=family, beta_e=beta_e, rho=rho, seed=seed)
    dataset = simulate_dataset(sim).dataset
    return dataset, fit_null(family, dataset.y, dataset.x_e)


@pytest.mark.filterwarnings("ignore:scheme .* relies on normal:UserWarning")
@pytest.mark.parametrize("family", [Family.NORMAL, Family.BINOMIAL])
@pytest.mark.parametrize("scheme", list(ResamplingScheme))
def test_narrow_marker_blocks_match_one_block(monkeypatch, family, scheme):
    # m = 29 in blocks of 8 leaves a ragged last block of 5; b = 1025 spans
    # two draw blocks. Column blocks of a matrix product may round
    # differently in the last bits, hence a relative tolerance.
    dataset, fit = _instance(family, n=60, m=29, beta_e=0.5, seed=17, rho=0.3)
    results = {}
    for width in (64, 8):
        monkeypatch.setattr(resampling, "_MARKER_BLOCK", width)
        results[width] = (
            replicate_statistics(scheme, fit, dataset, 1025, seed=4).max_stats,
            replicate_matrix(scheme, fit, dataset, 1025, seed=4),
        )
    (wide_max, wide_matrix), (narrow_max, narrow_matrix) = results[64], results[8]
    assert_allclose(narrow_max, wide_max, rtol=1e-12)
    assert_allclose(narrow_matrix, wide_matrix, rtol=1e-12)
    assert_allclose(np.sort(np.abs(wide_matrix).max(axis=1)), wide_max, rtol=1e-12)


@pytest.mark.parametrize(
    "scheme", [ResamplingScheme.RAW_Y, ResamplingScheme.PARAMETRIC_BOOTSTRAP]
)
def test_retries_do_not_depend_on_marker_blocks(monkeypatch, scheme):
    # A small binomial dataset whose refits separate, so both refit schemes
    # redraw replicates; m = 6 in blocks of 2 spreads each row over 3 blocks.
    dataset, fit = _instance(Family.BINOMIAL, n=12, m=6, beta_e=2.0, seed=1)
    results = {}
    for width in (6, 2):
        monkeypatch.setattr(resampling, "_MARKER_BLOCK", width)
        retries = []

        def counting(seed, *path):
            if len(path) == 3:  # (lane, replicate, attempt)
                retries.append(path)
            return substream(seed, *path)

        monkeypatch.setattr(resampling, "substream", counting)
        dist = replicate_statistics(scheme, fit, dataset, 1025, seed=3)
        results[width] = retries, dist.max_stats
    (one_retries, one_max), (three_retries, three_max) = results[6], results[2]
    assert one_retries
    assert three_retries == one_retries
    assert_allclose(three_max, one_max, rtol=1e-12)


def test_a_row_failing_only_on_its_last_block_is_redrawn(monkeypatch):
    # Row 5 of the first draw block fails on the last of three marker blocks
    # after its running maximum has taken in the first two; the maximum of
    # its first retry, from stream (seed, lane, 5, 1), replaces it.
    dataset, fit = _instance(Family.NORMAL, n=40, m=6, beta_e=0.5, seed=3)
    scheme = ResamplingScheme.PARAMETRIC_BOOTSTRAP
    monkeypatch.setattr(resampling, "_MARKER_BLOCK", 2)
    kernel = resampling._kernel(scheme, fit, dataset)

    def failing_fit(rows):
        marker_map, ok = kernel.fit(rows)

        def last_block_fails(cols):
            stats, cols_ok = marker_map(cols)
            if len(rows) > 1 and cols.start == 4:
                cols_ok = np.arange(len(rows)) != 5
            return stats, cols_ok

        return last_block_fails, ok

    monkeypatch.setattr(resampling, "_kernel", lambda *args: kernel._replace(fit=failing_fit))
    dist = replicate_statistics(scheme, fit, dataset, 20, seed=8)

    def maxima(rows):
        stats, ok = resampling._evaluate(kernel, rows, dataset.m, True)
        assert ok.all()
        return np.abs(stats).max(axis=1)

    expected = maxima(kernel.draw(substream(8, RESAMPLING_LANE, 0), 20))
    expected[5] = maxima(kernel.draw(substream(8, RESAMPLING_LANE, 5, 1), 1))[0]
    assert np.array_equal(dist.max_stats, np.sort(expected))


@pytest.mark.parametrize(
    "scheme",
    [ResamplingScheme.STANDARDIZED_RESIDUALS, ResamplingScheme.PARAMETRIC_BOOTSTRAP],
)
def test_peak_memory_grows_with_x_g_not_replicates_times_markers(scheme):
    # From m=512 to m=4096 at n=200, b=1024, x_g grows by 5.5 MiB; one
    # (rows, m) array of statistics would grow by 1024 / 200 times that.
    def peak(m):
        dataset, fit = _instance(Family.BINOMIAL, n=200, m=m, beta_e=0.5, seed=2, rho=0.5)
        score_statistics(fit, dataset.x_g)  # as a scan does before resampling
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            replicate_statistics(scheme, fit, dataset, 1024, seed=1)
            return tracemalloc.get_traced_memory()[1] - before, dataset.x_g.nbytes
        finally:
            tracemalloc.stop()

    (small, small_bytes), (large, large_bytes) = peak(512), peak(4096)
    assert large - small <= 2 * (large_bytes - small_bytes)


@pytest.mark.parametrize(
    "scheme, shares_x_g",
    [
        (ResamplingScheme.FREEDMAN_LANE, True),
        (ResamplingScheme.FULL_MODEL_RESIDUALS, True),
        (ResamplingScheme.MODIFIED_MODEL, False),
        (ResamplingScheme.STANDARDIZED_RESIDUALS, False),
    ],
)
def test_transform_scales_only_its_own_marker_matrix_in_place(scheme, shares_x_g):
    dataset, fit = _instance(Family.NORMAL, n=30, m=4, beta_e=0.5, seed=6)
    x_g = dataset.x_g.copy()
    observed = score_statistics(fit, dataset.x_g)
    x_tilde = exchangeable_transform(scheme, fit, dataset).x_tilde
    assert np.array_equal(dataset.x_g, x_g)
    assert not np.shares_memory(x_tilde, dataset.x_g)
    if shares_x_g:
        assert np.array_equal(x_tilde, x_g / observed.denom)


def test_a_scan_weights_its_markers_once(monkeypatch):
    # The observed statistics, the transform schemes and the refit schemes
    # of one fit and dataset share one score_denominators computation.
    dataset, fit = _instance(Family.BINOMIAL, n=40, m=5, beta_e=0.5, seed=8)
    calls = []
    weighted_markers = score._weighted_markers

    def counting(fit, x_g):
        calls.append(x_g)
        return weighted_markers(fit, x_g)

    monkeypatch.setattr(score, "_weighted_markers", counting)
    score_statistics(fit, dataset.x_g)
    for scheme in (
        ResamplingScheme.STANDARDIZED_RESIDUALS,
        ResamplingScheme.RAW_Y,
        ResamplingScheme.PARAMETRIC_BOOTSTRAP,
    ):
        replicate_statistics(scheme, fit, dataset, 30, seed=2)
    assert len(calls) == 1


def _traced_peak(call):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "family, scheme",
    [
        (Family.NORMAL, ResamplingScheme.FREEDMAN_LANE),
        (Family.NORMAL, ResamplingScheme.RAW_Y),
        (Family.NORMAL, ResamplingScheme.PARAMETRIC_BOOTSTRAP),
        (Family.BINOMIAL, ResamplingScheme.RAW_Y),
    ],
)
def test_every_per_block_marker_map_keeps_its_peak_off_m(family, scheme):
    """The bound of test_peak_memory_grows_with_x_g_not_replicates_times_markers,
    counted in int8 bytes (one a count), for the maps built one marker block
    at a time from the int8 x_g. Modified-model is left out: its map
    Q' x_g / denom takes all n rows of every column through the dense Q, so
    it is held whole, (n - d) x m floats, for the whole replicate call."""

    def peak(m):
        dataset, fit = _instance(family, n=200, m=m, beta_e=0.5, seed=2, rho=0.5)
        score_statistics(fit, dataset.x_g)  # as a scan does before resampling
        call = lambda: replicate_statistics(scheme, fit, dataset, 1024, seed=1)  # noqa: E731
        return _traced_peak(call), dataset.x_g.size

    (small, small_bytes), (large, large_bytes) = peak(512), peak(4096)
    assert large - small <= 2 * (large_bytes - small_bytes)


def test_full_model_residuals_map_keeps_its_peak_off_m(monkeypatch):
    """Full-model residuals needs n > m + d, so the m=512 to 4096 sizes of
    the test above would take n > 4098; this takes n=600 and m=64 to 512, the same
    eightfold step, in marker blocks of 64 so both sizes span whole blocks.
    Its joint fit of y on [x_e, x_g] holds the n x (m + d) float design by
    definition, so it is fit before tracing, and the bound applies to the
    rest of the scheme."""
    scheme = ResamplingScheme.FULL_MODEL_RESIDUALS
    monkeypatch.setattr(resampling, "_MARKER_BLOCK", 64)

    def peak(m):
        dataset, fit = _instance(Family.NORMAL, n=600, m=m, beta_e=0.5, seed=2, rho=0.5)
        score_statistics(fit, dataset.x_g)
        joint = fit_null(Family.NORMAL, dataset.y, np.hstack([dataset.x_e, dataset.x_g]))
        monkeypatch.setattr(resampling, "fit_null", lambda *args: joint)
        call = lambda: replicate_statistics(scheme, fit, dataset, 1024, seed=1)  # noqa: E731
        return _traced_peak(call), dataset.x_g.size

    (small, small_bytes), (large, large_bytes) = peak(64), peak(512)
    assert large - small <= 2 * (large_bytes - small_bytes)


def test_score_statistics_peak_stays_off_m():
    # The denominators and the observed t walk the int8 x_g in blocks of
    # score.MARKER_BLOCK columns; only their (m,) results grow with m. The
    # bound counts one byte a count.
    def peak(m):
        dataset, fit = _instance(Family.BINOMIAL, n=200, m=m, beta_e=0.5, seed=2, rho=0.5)
        return _traced_peak(lambda: score_statistics(fit, dataset.x_g)), dataset.x_g.size

    (small, small_bytes), (large, large_bytes) = peak(512), peak(4096)
    assert large - small <= 2 * (large_bytes - small_bytes)
