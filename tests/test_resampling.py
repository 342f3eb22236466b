"""Tests for the resampling schemes and the maxT calibration machinery."""

import dataclasses
import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats as sps

from permscan import (
    ConfigError,
    Family,
    InsufficientReplicatesError,
    InvalidCorrelationError,
    MaxTDistribution,
    ReplicateFailureError,
    ResamplingScheme,
    ScoreCorrelation,
    SimulationConfig,
    SingularDesignError,
    alpha_loc_study,
    bonferroni_sidak,
    cutoff_ci,
    exchangeable_transform,
    fit_null,
    maxt_cutoff,
    mc_mvn_alpha_loc,
    per_dataset_fwer,
    replicate_matrix,
    replicate_statistics,
    score_statistics,
    simulate_dataset,
)
from permscan.score import score_denominators
from permscan import resampling
from permscan.glm import Dataset, NullModelFit
from permscan.rng import RESAMPLING_LANE, substream

TRANSFORM_SCHEMES = [
    ResamplingScheme.FREEDMAN_LANE,
    ResamplingScheme.MODIFIED_MODEL,
    ResamplingScheme.STANDARDIZED_RESIDUALS,
    ResamplingScheme.FULL_MODEL_RESIDUALS,
]


def _normal_instance(n=40, m=4, beta_e=0.7, seed=100, rho=0.0):
    sim = SimulationConfig(
        n=n, m=m, family=Family.NORMAL, beta_e=beta_e, rho=rho, seed=seed
    )
    dataset = simulate_dataset(sim).dataset
    fit = fit_null(Family.NORMAL, dataset.y, dataset.x_e)
    return dataset, fit


def _binomial_instance(n=80, m=4, beta_e=0.8, seed=200):
    sim = SimulationConfig(n=n, m=m, family=Family.BINOMIAL, beta_e=beta_e, seed=seed)
    dataset = simulate_dataset(sim).dataset
    fit = fit_null(Family.BINOMIAL, dataset.y, dataset.x_e)
    return dataset, fit


def _synthetic_dist(values, scheme=ResamplingScheme.FREEDMAN_LANE, exhaustive=False):
    values = np.sort(np.asarray(values, dtype=float))
    return MaxTDistribution(
        max_stats=values, b=len(values), scheme=scheme, seed=0, exhaustive=exhaustive
    )


class TestExchangeableTransform:
    def test_freedman_lane_intercept_only_centers(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(12)
        g = rng.integers(0, 3, (12, 2)).astype(float)
        dataset = Dataset(y=y, x_e=np.ones((12, 1)), x_g=g)
        fit = fit_null(Family.NORMAL, y, dataset.x_e)
        transform = exchangeable_transform(
            ResamplingScheme.FREEDMAN_LANE, fit, dataset
        )
        assert_allclose(transform.y_tilde, y - y.mean(), atol=1e-12)

    def test_modified_model_preserves_residual_norm(self):
        dataset, fit = _normal_instance()
        transform = exchangeable_transform(
            ResamplingScheme.MODIFIED_MODEL, fit, dataset
        )
        assert transform.y_tilde.shape == (dataset.n - dataset.d,)
        projected = dataset.y - fit.hat_apply(dataset.y)
        assert_allclose(
            transform.y_tilde @ transform.y_tilde, projected @ projected, atol=1e-10
        )

    def test_standardized_residuals_match_freedman_lane_normal(self):
        # For the normal family the variance weights are a scalar, so the
        # two transforms differ by 1/sigma only and yield identical
        # statistics for every shared permutation.
        dataset, fit = _normal_instance(seed=101)
        fl = exchangeable_transform(ResamplingScheme.FREEDMAN_LANE, fit, dataset)
        std = exchangeable_transform(
            ResamplingScheme.STANDARDIZED_RESIDUALS, fit, dataset
        )
        sigma = np.sqrt(fit.phi_hat)
        assert_allclose(std.y_tilde, fl.y_tilde / sigma, atol=1e-10)
        fl_stats = replicate_matrix(
            ResamplingScheme.FREEDMAN_LANE, fit, dataset, 25, seed=7
        )
        std_stats = replicate_matrix(
            ResamplingScheme.STANDARDIZED_RESIDUALS, fit, dataset, 25, seed=7
        )
        assert_allclose(std_stats, fl_stats, atol=1e-10)

    def test_refit_schemes_have_no_transform(self):
        dataset, fit = _normal_instance()
        for scheme in (ResamplingScheme.RAW_Y, ResamplingScheme.PARAMETRIC_BOOTSTRAP):
            with pytest.raises(ConfigError):
                exchangeable_transform(scheme, fit, dataset)

    def test_raw_y_keeps_observed_denominators(self):
        # The raw-response scheme refits only the mean: the permuted maxima
        # inflate with the marginal response variance against denominators
        # calibrated to the conditional one (sqrt(1 + 1.5^2) ~ 1.8 here).
        dataset, fit = _normal_instance(n=300, m=20, beta_e=1.5, seed=111)
        raw = replicate_statistics(ResamplingScheme.RAW_Y, fit, dataset, 300, seed=5)
        fl = replicate_statistics(
            ResamplingScheme.FREEDMAN_LANE, fit, dataset, 300, seed=5
        )
        inflation = np.median(raw.max_stats) / np.median(fl.max_stats)
        assert 1.3 < inflation < 2.5

    def test_normal_theory_scheme_warns_for_binomial(self):
        dataset, fit = _binomial_instance()
        with pytest.warns(UserWarning, match="standardized-residuals"):
            exchangeable_transform(ResamplingScheme.FREEDMAN_LANE, fit, dataset)

    def test_full_model_residuals_rejects_a_rank_deficient_marker_design(self):
        dataset, fit = _normal_instance(n=40, m=4)
        x_g = dataset.x_g.copy()
        x_g[:, 3] = x_g[:, 1]
        twin = Dataset(y=dataset.y, x_e=dataset.x_e, x_g=x_g)
        with pytest.raises(
            SingularDesignError, match="^design matrix is numerically rank deficient$"
        ):
            replicate_statistics(
                ResamplingScheme.FULL_MODEL_RESIDUALS, fit, twin, 10, seed=1
            )


class TestIdentityFixedPoint:
    @pytest.mark.parametrize(
        "scheme",
        [
            ResamplingScheme.RAW_Y,
            ResamplingScheme.FREEDMAN_LANE,
            ResamplingScheme.MODIFIED_MODEL,
            ResamplingScheme.STANDARDIZED_RESIDUALS,
            ResamplingScheme.PARAMETRIC_BOOTSTRAP,
        ],
    )
    def test_normal_identity_replicate_equals_observed(self, scheme):
        dataset, fit = _normal_instance(seed=102)
        observed = score_statistics(fit, dataset.x_g)
        dist = replicate_statistics(
            scheme, fit, dataset, 1, seed=0, force_identity=True
        )
        assert_allclose(dist.max_stats[0], observed.max_abs_t, atol=1e-10)

    @pytest.mark.parametrize(
        "scheme",
        [
            ResamplingScheme.RAW_Y,
            ResamplingScheme.STANDARDIZED_RESIDUALS,
            ResamplingScheme.PARAMETRIC_BOOTSTRAP,
        ],
    )
    def test_binomial_identity_replicate_equals_observed(self, scheme):
        dataset, fit = _binomial_instance(seed=201)
        observed = score_statistics(fit, dataset.x_g)
        dist = replicate_statistics(
            scheme, fit, dataset, 1, seed=0, force_identity=True
        )
        assert_allclose(dist.max_stats[0], observed.max_abs_t, atol=1e-8)

    @pytest.mark.parametrize(
        "scheme, family",
        [
            (ResamplingScheme.FREEDMAN_LANE, Family.NORMAL),
            (ResamplingScheme.RAW_Y, Family.BINOMIAL),
        ],
    )
    def test_identity_rows_cross_block_boundary(self, scheme, family):
        if family is Family.NORMAL:
            dataset, fit = _normal_instance(seed=102)
        else:
            dataset, fit = _binomial_instance(seed=201)
        observed = score_statistics(fit, dataset.x_g)
        dist = replicate_statistics(
            scheme, fit, dataset, 1025, seed=0, force_identity=True
        )
        assert dist.b == 1025
        assert_allclose(dist.max_stats, observed.max_abs_t, atol=1e-8)

    def test_full_model_residuals_identity_is_zero(self):
        # Full-model residuals are orthogonal to the markers, so the
        # identity replicate collapses to zero rather than the observed
        # statistic. This is a structural property of the scheme.
        dataset, fit = _normal_instance(seed=103)
        dist = replicate_statistics(
            ResamplingScheme.FULL_MODEL_RESIDUALS,
            fit,
            dataset,
            1,
            seed=0,
            force_identity=True,
        )
        assert dist.max_stats[0] < 1e-10


def _duplicated_marker_instance():
    """A normal dataset whose last marker repeats its first: the score
    correlation is singular, so the normal bootstrap refits its rows."""
    dataset, fit = _normal_instance(seed=106)
    x_g = np.column_stack([dataset.x_g, dataset.x_g[:, :1]])
    return Dataset(y=dataset.y, x_e=dataset.x_e, x_g=x_g), fit


# Every row source by name: (scheme, instance, length of a drawn row).
ROW_SOURCES = {
    "raw-y": (ResamplingScheme.RAW_Y, lambda: _normal_instance(seed=106), 40),
    "freedman-lane": (ResamplingScheme.FREEDMAN_LANE, lambda: _normal_instance(seed=106), 40),
    "binomial-bootstrap": (
        ResamplingScheme.PARAMETRIC_BOOTSTRAP,
        lambda: _binomial_instance(n=30, beta_e=2.0, seed=5),
        30,
    ),
    # m + 1 = 5 numbers a row: chi-square norms first, then the normals.
    "normal-bootstrap-compressed": (
        ResamplingScheme.PARAMETRIC_BOOTSTRAP,
        lambda: _normal_instance(seed=106),
        5,
    ),
    "normal-bootstrap-refit": (
        ResamplingScheme.PARAMETRIC_BOOTSTRAP,
        _duplicated_marker_instance,
        40,
    ),
}


def _row_source(name):
    scheme, instance, length = ROW_SOURCES[name]
    return (scheme, *instance(), length)


class TestReplicateStatistics:
    def test_normal_equivalence_full_distribution(self):
        dataset, fit = _normal_instance(n=60, m=6, seed=104)
        fl = replicate_statistics(
            ResamplingScheme.FREEDMAN_LANE, fit, dataset, 64, seed=9
        )
        std = replicate_statistics(
            ResamplingScheme.STANDARDIZED_RESIDUALS, fit, dataset, 64, seed=9
        )
        assert_allclose(std.max_stats, fl.max_stats, atol=1e-10)

    def test_raw_y_equals_freedman_lane_intercept_only(self):
        # With an intercept-only design, refitting the permuted response
        # just re-centers it, which is exactly the permuted centered
        # response: the two schemes coincide for a shared stream.
        rng = np.random.default_rng(1)
        y = rng.standard_normal(30)
        g = rng.integers(0, 3, (30, 3)).astype(float)
        dataset = Dataset(y=y, x_e=np.ones((30, 1)), x_g=g)
        fit = fit_null(Family.NORMAL, y, dataset.x_e)
        raw = replicate_statistics(ResamplingScheme.RAW_Y, fit, dataset, 50, seed=3)
        fl = replicate_statistics(
            ResamplingScheme.FREEDMAN_LANE, fit, dataset, 50, seed=3
        )
        assert_allclose(raw.max_stats, fl.max_stats, atol=1e-10)

    @pytest.mark.parametrize(
        "scheme, b, family",
        [
            (ResamplingScheme.FREEDMAN_LANE, 40, Family.NORMAL),
            (ResamplingScheme.FREEDMAN_LANE, 1500, Family.NORMAL),
            # Three blocks for every row source: a permuted base vector,
            # N(0, I) draws and Bernoulli draws, the last with retried refits.
            (ResamplingScheme.FREEDMAN_LANE, 2100, Family.NORMAL),
            (ResamplingScheme.RAW_Y, 2100, Family.NORMAL),
            (ResamplingScheme.PARAMETRIC_BOOTSTRAP, 2100, Family.NORMAL),
            (ResamplingScheme.RAW_Y, 2100, Family.BINOMIAL),
            (ResamplingScheme.PARAMETRIC_BOOTSTRAP, 2100, Family.BINOMIAL),
        ],
    )
    def test_maxima_match_replicate_matrix(self, scheme, b, family):
        if family is Family.NORMAL:
            dataset, fit = _normal_instance(seed=106)
        else:
            dataset, fit = _binomial_instance(n=30, beta_e=2.0, seed=5)
        matrix = replicate_matrix(scheme, fit, dataset, b, seed=13)
        dist = replicate_statistics(scheme, fit, dataset, b, seed=13)
        assert_allclose(
            np.sort(np.max(np.abs(matrix), axis=1)), dist.max_stats, atol=0
        )

    @pytest.mark.parametrize("source", sorted(ROW_SOURCES))
    def test_block_rows_come_in_replicate_order(self, source):
        scheme, dataset, fit, length = _row_source(source)
        kernel = resampling._kernel(scheme, fit, dataset)
        assert len(kernel.base) == length
        short, long = (
            replicate_matrix(scheme, fit, dataset, b, seed=13) for b in (40, 1500)
        )
        assert np.array_equal(short, long[:40])

    @pytest.mark.parametrize("b", [1, 1024, 1025, 2100])
    def test_one_stream_per_block(self, b, monkeypatch):
        dataset, fit = _binomial_instance(seed=107)
        keys = []

        def counting(seed, *path):
            keys.append(path)
            return substream(seed, *path)

        monkeypatch.setattr(resampling, "substream", counting)
        replicate_statistics(
            ResamplingScheme.PARAMETRIC_BOOTSTRAP, fit, dataset, b, 5, stream_path=(4,)
        )
        blocks = math.ceil(b / resampling._CHUNK)
        assert keys == [(4, RESAMPLING_LANE, j) for j in range(blocks)]

    def test_replicate_failure_reports_index(self):
        # A fitted null with fitted probabilities ~1e-4 makes bootstrap
        # replicates all-zero with overwhelming probability; every retry
        # separates and the replicate index is reported.
        n = 6
        mu = np.full(n, 1e-4)
        fit = NullModelFit(
            family=Family.BINOMIAL,
            x_e=np.ones((n, 1)),
            coef=np.array([np.log(1e-4 / (1 - 1e-4))]),
            mu_e=mu,
            variance_diag=mu * (1 - mu),
            residuals=np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]) - mu,
            phi_hat=1.0,
            hat_basis=np.full((n, 1), 1.0 / np.sqrt(n)),
        )
        dataset = Dataset(
            y=np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
            x_e=np.ones((n, 1)),
            x_g=np.array([[0.0], [1.0], [2.0], [0.0], [1.0], [2.0]]),
        )
        with pytest.raises(ReplicateFailureError) as info:
            replicate_statistics(
                ResamplingScheme.PARAMETRIC_BOOTSTRAP, fit, dataset, 3, seed=2
            )
        assert info.value.replicate is not None

    def test_rejects_zero_replicates(self):
        dataset, fit = _normal_instance()
        for run in (replicate_statistics, replicate_matrix):
            with pytest.raises(ConfigError):
                run(ResamplingScheme.FREEDMAN_LANE, fit, dataset, 0, seed=0)


class TestExhaustiveMode:
    def test_enumerates_all_permutations(self):
        dataset, fit = _normal_instance(n=6, m=2, seed=107)
        dist = replicate_statistics(
            ResamplingScheme.FREEDMAN_LANE, fit, dataset, None, seed=0, exhaustive=True
        )
        assert dist.b == 720
        assert dist.exhaustive

    def test_permutations_cross_block_boundaries(self):
        # 7! = 5040 rows span five replicate blocks.
        dataset, fit = _normal_instance(n=7, m=2, seed=111)
        dist = replicate_statistics(
            ResamplingScheme.FREEDMAN_LANE, fit, dataset, None, seed=0, exhaustive=True
        )
        assert dist.b == 5040
        y_t, x_block = exchangeable_transform(ResamplingScheme.FREEDMAN_LANE, fit, dataset)
        perms = np.array(list(itertools.permutations(range(7))))
        reference = np.sort(np.max(np.abs(y_t[perms] @ x_block(slice(None))), axis=1))
        assert_allclose(dist.max_stats, reference, rtol=1e-12, atol=0)

    def test_random_sampling_matches_exhaustive_distribution(self):
        dataset, fit = _normal_instance(n=6, m=2, seed=108)
        exact = replicate_statistics(
            ResamplingScheme.FREEDMAN_LANE, fit, dataset, None, seed=0, exhaustive=True
        )
        sampled = replicate_statistics(
            ResamplingScheme.FREEDMAN_LANE, fit, dataset, 20000, seed=21
        )
        ks = sps.ks_2samp(exact.max_stats, sampled.max_stats).statistic
        assert ks <= 0.015

    def test_refuses_large_problems_and_bootstrap(self):
        dataset, fit = _normal_instance(n=12, m=2, seed=109)
        with pytest.raises(ConfigError):
            replicate_statistics(
                ResamplingScheme.FREEDMAN_LANE,
                fit,
                dataset,
                None,
                seed=0,
                exhaustive=True,
            )
        small, small_fit = _normal_instance(n=6, m=2, seed=110)
        with pytest.raises(ConfigError):
            replicate_statistics(
                ResamplingScheme.PARAMETRIC_BOOTSTRAP,
                small_fit,
                small,
                None,
                seed=0,
                exhaustive=True,
            )

    def test_raw_y_exhaustive_p_values_are_subuniform(self):
        # Under beta_e = 0 the raw response is exchangeable, so exhaustive
        # permutation p-values are exactly valid: the empirical CDF stays
        # below the diagonal up to Monte Carlo noise.
        datasets = 400
        p_values = np.empty(datasets)
        for k in range(datasets):
            sim = SimulationConfig(
                n=6, m=2, family=Family.NORMAL, beta_e=0.0, seed=300 + k
            )
            dataset = simulate_dataset(sim).dataset
            fit = fit_null(Family.NORMAL, dataset.y, dataset.x_e)
            observed = score_statistics(fit, dataset.x_g)
            dist = replicate_statistics(
                ResamplingScheme.RAW_Y, fit, dataset, None, seed=0, exhaustive=True
            )
            p_values[k] = per_dataset_fwer(dist, observed)
        grid_units = np.round(p_values * 720)
        assert_allclose(p_values * 720, grid_units, atol=1e-9)
        for alpha in (0.01, 0.05, 0.1, 0.25, 0.5):
            empirical = np.mean(p_values <= alpha)
            buffer = 3 * np.sqrt(alpha * (1 - alpha) / datasets)
            assert empirical <= alpha + buffer


class TestPerDatasetFwer:
    def test_extremes(self):
        dist = _synthetic_dist(np.arange(1.0, 100.0))
        high = dataclasses.replace(
            score_statistics(
                fit_null(Family.NORMAL, np.arange(6.0), np.ones((6, 1))),
                np.array([[0.0], [1.0], [2.0], [0.0], [1.0], [2.0]]),
            ),
            max_abs_t=1000.0,
        )
        low = dataclasses.replace(high, max_abs_t=0.0)
        assert per_dataset_fwer(dist, high) == 1 / 100
        assert per_dataset_fwer(dist, low) == 1.0

    def test_direct_count(self):
        values = np.arange(1.0, 1000.0)  # B = 999
        dist = _synthetic_dist(values)
        observed = dataclasses.replace(
            score_statistics(
                fit_null(Family.NORMAL, np.arange(6.0), np.ones((6, 1))),
                np.array([[0.0], [1.0], [2.0], [0.0], [1.0], [2.0]]),
            ),
            max_abs_t=950.5,
        )
        # 49 replicates (950.., 999) are >= 950.5
        assert per_dataset_fwer(dist, observed) == 50 / 1000

    def test_exhaustive_drops_plus_one(self):
        dist = _synthetic_dist(np.arange(1.0, 721.0), exhaustive=True)
        observed = dataclasses.replace(
            score_statistics(
                fit_null(Family.NORMAL, np.arange(6.0), np.ones((6, 1))),
                np.array([[0.0], [1.0], [2.0], [0.0], [1.0], [2.0]]),
            ),
            max_abs_t=720.0,
        )
        assert per_dataset_fwer(dist, observed) == 1 / 720


class TestMaxtCutoff:
    def test_synthetic_boundary_documented(self):
        # With max stats 1..1000 and alpha = 0.05 the plain 0.95-quantile
        # index is 950 but its exceedance proportion 52/1001 > alpha; the
        # plus-one-corrected bound is first met at index 952.
        dist = _synthetic_dist(np.arange(1.0, 1001.0))
        cutoff = maxt_cutoff(dist, 0.05)
        assert cutoff.quantile_index == 950
        assert cutoff.quantile_value == 950.0
        assert cutoff.eq_index == 952
        assert cutoff.c == 952.0
        assert (np.sum(dist.max_stats >= 952.0) + 1) / 1001 <= 0.05
        assert (np.sum(dist.max_stats >= 951.0) + 1) / 1001 > 0.05
        assert cutoff.eq_satisfied

    def test_degenerate_distribution_falls_back(self):
        dist = _synthetic_dist(np.full(200, 2.5))
        cutoff = maxt_cutoff(dist, 0.05)
        assert cutoff.c == 2.5
        assert not cutoff.eq_satisfied
        assert_allclose(cutoff.alpha_loc, math.erfc(2.5 / math.sqrt(2)), rtol=0)

    def test_alpha_loc_is_two_sided_tail(self):
        dist = _synthetic_dist(np.linspace(0.1, 4.0, 500))
        cutoff = maxt_cutoff(dist, 0.1)
        assert cutoff.alpha_loc == math.erfc(cutoff.c / math.sqrt(2))
        assert cutoff.ci_low <= cutoff.c <= cutoff.ci_high

    def test_cutoff_monotone_in_alpha(self):
        rng = np.random.default_rng(5)
        dist = _synthetic_dist(rng.standard_normal(2000))
        cutoffs = [maxt_cutoff(dist, a).c for a in (0.01, 0.05, 0.1, 0.2)]
        assert all(a >= b for a, b in zip(cutoffs, cutoffs[1:]))
        alpha_locs = [maxt_cutoff(dist, a).alpha_loc for a in (0.01, 0.05, 0.1, 0.2)]
        assert all(a <= b for a, b in zip(alpha_locs, alpha_locs[1:]))

    def test_exhaustive_cutoff_follows_per_dataset_fwer(self):
        # All 720 permutations, identity included: no plus-one correction,
        # so 685.5 (35 of 720 maxima above it) is rejected at 0.05 by both.
        dist = _synthetic_dist(np.arange(1.0, 721.0), exhaustive=True)
        observed = dataclasses.replace(
            score_statistics(
                fit_null(Family.NORMAL, np.arange(6.0), np.ones((6, 1))),
                np.array([[0.0], [1.0], [2.0], [0.0], [1.0], [2.0]]),
            ),
            max_abs_t=685.5,
        )
        assert per_dataset_fwer(dist, observed) == 35 / 720
        cutoff = maxt_cutoff(dist, 0.05)
        assert cutoff.c == 685.0 and cutoff.eq_index == 685
        assert observed.max_abs_t >= cutoff.c

    def test_insufficient_replicates(self):
        dist = _synthetic_dist(np.arange(10.0))
        with pytest.raises(InsufficientReplicatesError):
            maxt_cutoff(dist, 0.95)
        with pytest.raises(ConfigError):
            maxt_cutoff(dist, 1.5)


class TestCutoffCi:
    def test_matches_exact_binomial_enumeration(self):
        # Independent oracle: scan delta with scipy's binomial CDF.
        b, q, conf = 1000, 0.95, 0.95
        dist = _synthetic_dist(np.arange(1.0, b + 1.0))
        low, high = cutoff_ci(dist, q, conf)
        center = int(np.ceil(b * q))
        w = sps.binom(b, q)

        def coverage(delta):
            r, s = max(center - delta, 1), min(center + delta, b)
            return w.cdf(s) - w.cdf(r - 1)

        delta = next(d for d in range(b + 1) if coverage(d) >= conf)
        assert coverage(delta) >= conf
        assert coverage(delta - 1) < conf
        assert low == float(max(center - delta, 1))
        assert high == float(min(center + delta, b))

    def test_symmetric_at_half(self):
        b = 500
        dist = _synthetic_dist(np.arange(1.0, b + 1.0))
        low, high = cutoff_ci(dist, 0.5, 0.9)
        center = int(np.ceil(b * 0.5))
        assert high - center == center - low

    def test_full_range_warning(self):
        dist = _synthetic_dist(np.arange(1.0, 6.0))
        with pytest.warns(UserWarning, match="full sample range"):
            low, high = cutoff_ci(dist, 0.5, 0.9999999999)
        assert low == 1.0 and high == 5.0

    def test_invalid_levels(self):
        dist = _synthetic_dist(np.arange(1.0, 6.0))
        with pytest.raises(ConfigError):
            cutoff_ci(dist, 0.0, 0.9)
        with pytest.raises(ConfigError):
            cutoff_ci(dist, 0.5, 1.0)


class TestClosedForms:
    def test_single_test_is_alpha(self):
        bonf, sidak = bonferroni_sidak(1, 0.05)
        assert bonf == 0.05 and sidak == pytest.approx(0.05, rel=1e-12)

    def test_hundred_tests(self):
        bonf, sidak = bonferroni_sidak(100, 0.05)
        assert bonf == 5.0e-4
        assert_allclose(sidak, 1.0 - np.exp(np.log(0.95) / 100.0), rtol=1e-12)
        assert_allclose(sidak, 5.128014e-4, rtol=1e-5)

    def test_rejects_bad_m(self):
        with pytest.raises(ConfigError):
            bonferroni_sidak(0, 0.05)


class TestMcMvnAlphaLoc:
    def test_single_marker_recovers_alpha(self):
        result = mc_mvn_alpha_loc(np.eye(1), 0.05, draws=200_000, seed=17)
        assert abs(result.alpha_loc - 0.05) <= 4 * result.se

    def test_independent_markers_match_sidak(self):
        _, sidak = bonferroni_sidak(100, 0.05)
        result = mc_mvn_alpha_loc(np.eye(100), 0.05, draws=200_000, seed=18)
        assert abs(result.alpha_loc - sidak) <= 3 * result.se

    def test_perfect_correlation_recovers_alpha(self):
        r = np.ones((5, 5))
        result = mc_mvn_alpha_loc(r, 0.05, draws=200_000, seed=19)
        assert abs(result.alpha_loc - 0.05) <= 4 * result.se

    def test_accepts_score_correlation_wrapper(self):
        result = mc_mvn_alpha_loc(
            ScoreCorrelation(r=np.eye(2)), 0.1, draws=20_000, seed=20
        )
        assert 0.0 < result.alpha_loc < 1.0

    def test_rejects_indefinite_matrix(self):
        bad = np.array([[1.0, 1.5], [1.5, 1.0]])
        with pytest.raises(InvalidCorrelationError):
            mc_mvn_alpha_loc(bad, 0.05, draws=1000, seed=21)

    @pytest.mark.parametrize(
        "r, error, message",
        [
            (np.zeros((0, 0)), ConfigError, "square matrix of at least one marker"),
            ([[1.0, np.nan], [np.nan, 1.0]], InvalidCorrelationError, "finite and symmetric"),
            # eigh would read the lower triangle alone and return a level.
            ([[1.0, 2.0], [0.0, 1.0]], InvalidCorrelationError, "finite and symmetric"),
        ],
        ids=["empty", "nan", "asymmetric"],
    )
    def test_rejects_a_matrix_that_is_not_a_correlation_matrix(self, r, error, message):
        with pytest.raises(error, match=message) as raised:
            mc_mvn_alpha_loc(r, 0.05, draws=1000, seed=22)
        assert type(raised.value) is error

    def test_accepts_rounding_asymmetry_within_the_tolerance(self):
        r = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
        assert 0.0 < mc_mvn_alpha_loc(r, 0.05, draws=1000, seed=23).alpha_loc < 1.0


class TestSecondMomentExchangeability:
    def test_modified_model_transform_is_white(self):
        # Across many simulated null datasets the transformed response has
        # identity covariance (scaled by the noise variance).
        reps = 10_000
        n, d = 8, 2
        collected = np.empty((reps, n - d))
        for k in range(reps):
            sim = SimulationConfig(
                n=n, m=1, family=Family.NORMAL, beta_e=1.0, seed=40_000 + k
            )
            dataset = simulate_dataset(sim).dataset
            fit = fit_null(Family.NORMAL, dataset.y, dataset.x_e)
            collected[k] = fit.q_factor().T @ dataset.y
        covariance = np.cov(collected.T)
        se_diag = np.sqrt(2.0 / reps)
        se_off = np.sqrt(1.0 / reps)
        for i in range(n - d):
            for j in range(n - d):
                tolerance = 3 * (se_diag if i == j else se_off)
                target = 1.0 if i == j else 0.0
                assert abs(covariance[i, j] - target) <= tolerance


class TestMaxTDistributionInvariants:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            MaxTDistribution(
                max_stats=np.array([2.0, 1.0]),
                b=2,
                scheme=ResamplingScheme.FREEDMAN_LANE,
                seed=0,
            )

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            MaxTDistribution(
                max_stats=np.array([1.0, 2.0]),
                b=3,
                scheme=ResamplingScheme.FREEDMAN_LANE,
                seed=0,
            )


def _ols_residuals(x_e, v):
    return v - x_e @ np.linalg.lstsq(x_e, v, rcond=None)[0]


def _random_markers(rng, n, m):
    x_g = rng.integers(0, 3, (n, m)).astype(float)
    x_g[:2] = [[0.0], [2.0]]  # no constant marker
    return x_g


class TestModifiedModelIndexBlock:
    """Modified-model reads the dataset's length-n index block: each row's
    indices below n - d, in order, permute its (n - d)-vector."""

    @pytest.mark.parametrize("b", [7, 1030])
    def test_rows_are_the_length_n_block_filtered_below_n_minus_d(self, b):
        n, m, seed, path = 12, 3, 21, (4,)
        dataset, fit = _normal_instance(n=n, m=m, seed=105)
        length = n - dataset.d
        q = fit.q_factor()
        resid_x_sq = np.sum(_ols_residuals(dataset.x_e, dataset.x_g.astype(float)) ** 2, axis=0)
        x_map = (q.T @ dataset.x_g) / np.sqrt(fit.phi_hat * resid_x_sq)
        y_tilde = q.T @ dataset.y
        rows = []
        for j, lo in enumerate(range(0, b, 1024)):
            count = min(b - lo, 1024)
            index = substream(seed, *path, RESAMPLING_LANE, j).permuted(
                np.tile(np.arange(n), (count, 1)), axis=1
            )
            rows.append(y_tilde[index[index < length].reshape(count, length)])
        reference = np.vstack(rows) @ x_map
        stats = replicate_matrix(
            ResamplingScheme.MODIFIED_MODEL, fit, dataset, b, seed, stream_path=path
        )
        assert stats.shape == (b, m)
        assert_allclose(stats, reference, rtol=1e-10, atol=1e-12)

    def test_every_order_of_a_length_three_base_is_equally_likely(self):
        # n - d = 3: 6000 rows give each of the 3! orders 1000 expected, with
        # a standard deviation of about 29; the bound, 150, is over five.
        dataset, fit = _normal_instance(n=5, m=1, seed=106)
        assert dataset.n - dataset.d == 3
        kernel = resampling._kernel(ResamplingScheme.MODIFIED_MODEL, fit, dataset)
        assert len(np.unique(kernel.base)) == 3
        rows = resampling._draw(kernel, 6000, dataset.n, 8, RESAMPLING_LANE, 0)
        orders = Counter(tuple(row) for row in np.argsort(rows, axis=1))
        assert set(orders) == set(itertools.permutations(range(3)))
        assert all(abs(count - 1000) <= 150 for count in orders.values())


class TestKernelReferences:
    """Replicate maxima against plain-numpy refits of every replicate, with
    the rows drawn from the block stream and retries from their own
    ``(replicate, attempt)`` streams."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        n=st.integers(8, 30),
        d=st.integers(1, 3),
        m=st.integers(1, 4),
        b=st.integers(1, 20),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=8, d=3, m=4, b=20, data_seed=0, seed=0)  # 3m > n - d: refit draws
    def test_normal_refit_schemes_match_lstsq(self, n, d, m, b, data_seed, seed):
        rng = np.random.default_rng(data_seed)
        x_e = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
        x_g = _random_markers(rng, n, m)
        y = x_e @ rng.standard_normal(d) + rng.standard_normal(n)
        dataset = Dataset(y=y, x_e=x_e, x_g=x_g)
        fit = fit_null(Family.NORMAL, y, x_e)
        resid_x_sq = np.sum(_ols_residuals(x_e, x_g) ** 2, axis=0)
        resid = _ols_residuals(x_e, y)
        phi = resid @ resid / (n - d)

        def refit(v):
            r = _ols_residuals(x_e, v)
            return r, r @ r / (n - d)

        permuted = substream(seed, 3, RESAMPLING_LANE, 0).permuted(
            np.tile(y, (b, 1)), axis=1
        )
        noise = substream(seed, 3, RESAMPLING_LANE, 0).standard_normal((b, n))
        raw, boot = np.empty(b), np.empty(b)
        for rep in range(b):
            r, _ = refit(permuted[rep])
            raw[rep] = np.max(np.abs(x_g.T @ r / np.sqrt(phi * resid_x_sq)))
            r, phi_rep = refit(y - resid + np.sqrt(phi) * noise[rep])
            boot[rep] = np.max(np.abs(x_g.T @ r / np.sqrt(phi_rep * resid_x_sq)))
        kernel = resampling._kernel(ResamplingScheme.PARAMETRIC_BOOTSTRAP, fit, dataset)
        if len(kernel.base) == m + 1:
            # Compressed draws: the block stream yields _CHUNK chi-squares on
            # n - d - m degrees of freedom, then rows g of m normals, and a
            # replicate is sqrt(n - d) g' U / ||(g, s)|| for the Cholesky
            # factor U' U of the residualized markers' correlation.
            gen = substream(seed, 3, RESAMPLING_LANE, 0)
            s_sq = gen.chisquare(n - d - m, resampling._CHUNK)[:b]
            g = gen.standard_normal((b, m))
            unit = _ols_residuals(x_e, x_g) / np.sqrt(resid_x_sq)
            u = np.linalg.cholesky(unit.T @ unit).T
            t = np.sqrt(n - d) * (g @ u) / np.sqrt(np.sum(g**2, axis=1) + s_sq)[:, None]
            boot = np.max(np.abs(t), axis=1)
        for scheme, reference in (
            (ResamplingScheme.RAW_Y, raw),
            (ResamplingScheme.PARAMETRIC_BOOTSTRAP, boot),
        ):
            dist = replicate_statistics(
                scheme, fit, dataset, b, seed, stream_path=(3,)
            )
            assert_allclose(dist.max_stats, np.sort(reference), rtol=1e-10, atol=0)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        n=st.integers(5, 8),
        frac=st.floats(0.25, 0.75),
        m=st.integers(1, 3),
        b=st.integers(1, 30),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=5, frac=0.25, m=2, b=30, data_seed=0, seed=0)
    def test_binomial_bootstrap_redraws_constant_rows(
        self, n, frac, m, b, data_seed, seed
    ):
        # With an intercept-only design and small n, some Bernoulli draws
        # are all 0 or all 1 and separate; retry a of such a replicate draws
        # from the stream (seed, RESAMPLING_LANE, replicate, a). A
        # non-constant draw has the closed-form score
        # t_j = x_j'(y - p) / sqrt(p (1 - p) sum_i (x_ij - mean_j)^2).
        rng = np.random.default_rng(data_seed)
        ones = min(max(round(frac * n), 1), n - 1)
        y = rng.permutation(np.arange(n) < ones).astype(float)
        x_g = _random_markers(rng, n, m)
        dataset = Dataset(y=y, x_e=np.ones((n, 1)), x_g=x_g)
        fit = fit_null(Family.BINOMIAL, y, dataset.x_e)
        centered_sq = np.sum((x_g - x_g.mean(axis=0)) ** 2, axis=0)
        uniform = substream(seed, RESAMPLING_LANE, 0).random((b, n))
        block = (uniform < fit.mu_e).astype(float)
        reference = np.empty(b)
        for rep in range(b):
            draw, attempt = block[rep], 0
            while draw.min() == draw.max():
                attempt += 1
                uniform = substream(seed, RESAMPLING_LANE, rep, attempt).random(n)
                draw = (uniform < fit.mu_e).astype(float)
            p = draw.mean()
            t = x_g.T @ (draw - p) / np.sqrt(p * (1.0 - p) * centered_sq)
            reference[rep] = np.max(np.abs(t))
        dist = replicate_statistics(
            ResamplingScheme.PARAMETRIC_BOOTSTRAP, fit, dataset, b, seed
        )
        # Integer data can cancel a numerator exactly, hence the absolute floor.
        assert_allclose(dist.max_stats, np.sort(reference), rtol=1e-8, atol=1e-8)


class TestCompressedNormalBootstrap:
    """The normal bootstrap on m + 1 numbers a row against refits of
    N(0, I_n) rows, and the datasets that keep the refit."""

    def test_maxima_follow_the_law_of_refit_rows(self):
        n, m, b = 400, 100, 20_000
        sim = SimulationConfig(n=n, m=m, family=Family.NORMAL, beta_e=0.5, rho=0.7, seed=11)
        dataset = simulate_dataset(sim).dataset
        fit = fit_null(Family.NORMAL, dataset.y, dataset.x_e)
        scheme = ResamplingScheme.PARAMETRIC_BOOTSTRAP
        assert len(resampling._kernel(scheme, fit, dataset).base) == m + 1
        compressed = replicate_statistics(scheme, fit, dataset, b, seed=12).max_stats
        x_e, d = dataset.x_e, dataset.d
        resid_x = _ols_residuals(x_e, dataset.x_g.astype(float))
        unit = resid_x / np.linalg.norm(resid_x, axis=0)
        rng = np.random.default_rng(13)
        reference = []
        for _ in range(b // 1000):
            r = _ols_residuals(x_e, rng.standard_normal((n, 1000)))
            t = np.sqrt(n - d) * (r.T @ unit) / np.linalg.norm(r, axis=0)[:, None]
            reference.append(np.max(np.abs(t), axis=1))
        result = sps.ks_2samp(compressed, np.concatenate(reference))
        # The two-sample critical value at level 0.1 %.
        critical = math.sqrt(-0.5 * math.log(0.0005)) * math.sqrt(2 / b)
        assert result.statistic < critical

    def test_a_dataset_without_markers_keeps_the_refit(self):
        dataset, fit = _normal_instance(seed=106)
        dataset = Dataset(y=dataset.y, x_e=dataset.x_e, x_g=dataset.x_g[:, :0])
        scheme = ResamplingScheme.PARAMETRIC_BOOTSTRAP
        assert resampling._kernel(scheme, fit, dataset).base is dataset.y
        dist = replicate_statistics(scheme, fit, dataset, 5, seed=1)
        assert dist.max_stats.tolist() == [0.0] * 5

    @pytest.mark.parametrize(
        "case", ["duplicated-marker", "3m > n - d", "m > MARKER_BLOCK"]
    )
    def test_refit_datasets_keep_the_refit_of_normal_rows(self, case, monkeypatch):
        if case == "duplicated-marker":
            dataset, fit = _duplicated_marker_instance()
        elif case == "3m > n - d":
            dataset, fit = _normal_instance(n=40, m=13, seed=106)
        else:
            monkeypatch.setattr(resampling, "_MARKER_BLOCK", 3)
            dataset, fit = _normal_instance(seed=106)
        scheme, (n, d), b = ResamplingScheme.PARAMETRIC_BOOTSTRAP, dataset.x_e.shape, 1100
        assert resampling._kernel(scheme, fit, dataset).base is dataset.y
        # Block j's rows are N(0, I_n) draws of its stream; each is refit by
        # (I - H), scaled to the observed residual sum of squares and mapped
        # by the markers over the observed denominators.
        denom = score_denominators(fit, dataset.x_g)
        expected = []
        for j, rows in enumerate((1024, b - 1024)):
            z = substream(7, RESAMPLING_LANE, j).standard_normal((rows, n))
            resid = z - (z @ fit.hat_basis) @ fit.hat_basis.T
            ss = np.einsum("bn,bn->b", resid, resid)
            resid *= np.sqrt(fit.phi_hat * (n - d) / ss)[:, None]
            blocks = resampling.marker_blocks(dataset.m, resampling._MARKER_BLOCK)
            expected.append(
                np.hstack([resid @ (dataset.x_g[:, c].astype(float) / denom[c]) for c in blocks])
            )
        matrix = replicate_matrix(scheme, fit, dataset, b, seed=7)
        assert np.array_equal(matrix, np.vstack(expected))


def test_bootstrap_denominators_match_fit_null_per_row():
    # The bootstrap's stacked x_e' W x_e and x_e' W x_g products give each
    # row the denominators that a fit of that row alone gives.
    dataset, fit = _binomial_instance(n=80, m=6, seed=201)
    kernel = resampling._kernel(ResamplingScheme.PARAMETRIC_BOOTSTRAP, fit, dataset)
    rows = kernel.draw(substream(9, RESAMPLING_LANE, 0), 24)
    fits = [fit_null(Family.BINOMIAL, row, dataset.x_e) for row in rows]
    mu = np.vstack([row_fit.mu_e for row_fit in fits])
    weights = resampling._refit_weights(dataset.x_e, mu)
    denom, ok = resampling._refit_block_denominators(weights, dataset.x_g)
    expected = np.vstack([score_denominators(row_fit, dataset.x_g) for row_fit in fits])
    assert ok.all()
    assert_allclose(denom, expected, rtol=1e-10, atol=0)


def test_bernoulli_rows_match_a_plain_comparison():
    gen_args = (4, RESAMPLING_LANE, 0)
    mu_e = np.linspace(0.05, 0.95, 30)
    rows = resampling._bernoulli_rows(substream(*gen_args), 50, mu_e)
    expected = (substream(*gen_args).random((50, 30)) < mu_e).astype(float)
    assert rows.dtype == np.float64
    assert np.array_equal(rows, expected)


class TestSeedCheck:
    @pytest.mark.parametrize(
        "seed, message",
        [
            (-1, "seed must be >= 0, got -1"),
            (1.5, "seed must be an integer, got 1.5"),
            ("3", "seed must be an integer, got '3'"),
            (None, "seed must be an integer, got None"),
            (True, "seed must be an integer, got True"),
        ],
    )
    def test_rejected_before_any_work(self, seed, message, monkeypatch):
        dataset, fit = _normal_instance()

        def no_work(*args, **kwargs):
            pytest.fail("worked before checking the seed")

        monkeypatch.setattr(resampling, "_kernel", no_work)
        monkeypatch.setattr(resampling, "substream", no_work)
        # b=0 and a non-square matrix would raise their own errors if the
        # seed were checked later.
        for resampler in (replicate_statistics, replicate_matrix):
            with pytest.raises(ConfigError, match=re.escape(message)):
                resampler(ResamplingScheme.FREEDMAN_LANE, fit, dataset, 0, seed)
        with pytest.raises(ConfigError, match=re.escape(message)):
            mc_mvn_alpha_loc(np.ones(3), 0.05, draws=100, seed=seed)

    def test_numpy_integer_seed_draws_as_int(self):
        dataset, fit = _normal_instance()
        scheme = ResamplingScheme.FREEDMAN_LANE
        assert np.array_equal(
            replicate_matrix(scheme, fit, dataset, 20, np.int64(4)),
            replicate_matrix(scheme, fit, dataset, 20, 4),
        )


class TestCountCheck:
    @pytest.mark.parametrize(
        "count", [10.5, np.float64(20.0), "3", True], ids=["float", "np-float", "str", "bool"]
    )
    def test_replicate_count_is_an_integer(self, count, monkeypatch):
        dataset, fit = _normal_instance()

        def no_work(*args, **kwargs):
            pytest.fail("worked before checking the replicate count")

        monkeypatch.setattr(resampling, "_kernel", no_work)
        for resampler in (replicate_statistics, replicate_matrix):
            with pytest.raises(ConfigError, match="b must be an integer"):
                resampler(ResamplingScheme.FREEDMAN_LANE, fit, dataset, count, 1)
        sim = SimulationConfig(n=30, m=3, family=Family.NORMAL, seed=1)
        with pytest.raises(ConfigError, match="b must be an integer"):
            alpha_loc_study(sim, ResamplingScheme.FREEDMAN_LANE, b=count)

    @pytest.mark.parametrize(
        "draws", [2.5, np.float64(20.0), "3", True], ids=["float", "np-float", "str", "bool"]
    )
    def test_monte_carlo_draw_count_is_an_integer(self, draws):
        with pytest.raises(ConfigError, match="draws must be an integer"):
            mc_mvn_alpha_loc(np.eye(3), 0.05, draws=draws, seed=1)
