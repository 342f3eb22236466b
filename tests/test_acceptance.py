"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line. The
calibration studies (criteria 1 and 2) run at desk scale, K = 1000 datasets
by B = 500 replicates, and dominate the runtime of this module.
"""

import math
import time

import numpy as np
from numpy.testing import assert_allclose
from scipy import stats as sps
from scipy.special import ndtr, ndtri

from permscan import (
    Family,
    MaxTDistribution,
    ResamplingScheme,
    SimulationConfig,
    StudyConfig,
    alpha_loc_study,
    bonferroni_sidak,
    cutoff_ci,
    fit_null,
    maxt_cutoff,
    mc_mvn_alpha_loc,
    per_dataset_fwer,
    replicate_matrix,
    replicate_statistics,
    run_study,
    score_correlation,
    score_statistics,
    simulate_dataset,
)
from permscan.cli import main
from permscan.glm import Dataset

MASTER_SEED = 20260808
DESK_K = 1000
DESK_B = 500
BAND = (0.05 - 0.021, 0.05 + 0.021)

VALID_SCHEMES = (
    ResamplingScheme.FREEDMAN_LANE,
    ResamplingScheme.STANDARDIZED_RESIDUALS,
    ResamplingScheme.MODIFIED_MODEL,
    ResamplingScheme.PARAMETRIC_BOOTSTRAP,
)

# Criteria 1 and 2 also compare each scheme's K alpha_hat values with the
# grid j/(B+1), on which a valid scheme's alpha_hat is uniform. The bound
# was fixed before any data were seen: the Dvoretzky-Kiefer-Wolfowitz 1 %
# critical value of the Kolmogorov distance, Bonferroni-adjusted over the
# 18 grid checks (16 uniformity checks, 2 raw-y checks).
GRID_CHECKS = 18
GRID_BOUND = math.sqrt(math.log(2 * GRID_CHECKS / 0.01) / (2 * DESK_K))


def _report(number, label, checks):
    failed = [detail for ok, detail in checks if not ok]
    status = "FAIL" if failed else "PASS"
    print(f"[acceptance] criterion {number} ({label}): {status}")
    for ok, detail in checks:
        print(f"    {'ok  ' if ok else 'FAIL'} {detail}")
    assert not failed, f"criterion {number} failed: {failed}"


def _grid_gap(alpha_hat, b):
    """F(j/(b+1)) - j/(b+1) for j = 1..b+1, F the empirical CDF of alpha_hat."""
    j = np.rint(np.asarray(alpha_hat) * (b + 1)).astype(int)
    ecdf = np.cumsum(np.bincount(j, minlength=b + 2)[1:]) / len(j)
    return ecdf - np.arange(1, b + 2) / (b + 1)


def _uniform_check(result, scheme, label):
    gap = _grid_gap(result.per_scheme[scheme].alpha_hat, DESK_B)
    distance = float(np.max(np.abs(gap)))
    return (
        distance <= GRID_BOUND,
        f"{label} {scheme.value}: Kolmogorov distance to the grid "
        f"{distance:.4f} <= {GRID_BOUND:.4f}",
    )


def _below_grid_check(result, label):
    """Raw-y's empirical CDF lies below the grid: nowhere above it by more
    than the bound, and somewhere below it by more than the bound."""
    gap = _grid_gap(result.per_scheme[ResamplingScheme.RAW_Y].alpha_hat, DESK_B)
    above, below = float(gap.max()), float(-gap.min())
    return (
        above <= GRID_BOUND < below,
        f"{label} raw-y: ECDF above the grid by at most {above:.4f} <= "
        f"{GRID_BOUND:.4f} < {below:.4f} below it",
    )


def _calibration(family, beta_e, schemes, rho=0.7):
    sim = SimulationConfig(
        n=400, m=100, family=family, beta_e=beta_e, rho=rho, seed=MASTER_SEED
    )
    config = StudyConfig(
        sim=sim,
        schemes=schemes,
        k=DESK_K,
        b=DESK_B,
        alpha=0.05,
        workers=1,
        master_seed=MASTER_SEED,
    )
    return run_study(config)


def test_criterion_1_normal_calibration_pattern():
    schemes = VALID_SCHEMES + (ResamplingScheme.RAW_Y,)
    checks = []
    start = time.perf_counter()
    for beta_e in (0.0, 0.5, 1.0):
        result = _calibration(Family.NORMAL, beta_e, schemes)
        for scheme in VALID_SCHEMES:
            value = result.per_scheme[scheme].alpha_tilde
            checks.append(
                (
                    BAND[0] <= value <= BAND[1],
                    f"beta_e={beta_e} {scheme.value}: alpha_tilde={value:.4f} "
                    f"in [{BAND[0]:.3f}, {BAND[1]:.3f}]",
                )
            )
        for scheme in VALID_SCHEMES:
            checks.append(_uniform_check(result, scheme, f"beta_e={beta_e}"))
        if beta_e >= 0.5:
            checks.append(_below_grid_check(result, f"beta_e={beta_e}"))
        raw = result.per_scheme[ResamplingScheme.RAW_Y].alpha_tilde
        if beta_e == 0.5:
            checks.append((raw <= 0.035, f"beta_e=0.5 raw-y: {raw:.4f} <= 0.035"))
        elif beta_e == 1.0:
            checks.append((raw <= 0.005, f"beta_e=1.0 raw-y: {raw:.4f} <= 0.005"))
        # The reduced-residual and standardized-residual schemes are the
        # same procedure for the normal family; the harness runs both and
        # checks the equality instead of aliasing the rows.
        equal = np.array_equal(
            result.per_scheme[ResamplingScheme.FREEDMAN_LANE].alpha_hat,
            result.per_scheme[ResamplingScheme.STANDARDIZED_RESIDUALS].alpha_hat,
        )
        checks.append((equal, f"beta_e={beta_e}: FL and standardized agree"))
    checks.append((True, f"elapsed {time.perf_counter() - start:.0f} s"))
    _report(1, "normal-family calibration table", checks)


def test_criterion_2_binomial_calibration_pattern():
    schemes = (
        ResamplingScheme.STANDARDIZED_RESIDUALS,
        ResamplingScheme.RAW_Y,
        ResamplingScheme.PARAMETRIC_BOOTSTRAP,
    )
    checks = []
    start = time.perf_counter()
    for beta_e in (0.0, 1.5):
        result = _calibration(Family.BINOMIAL, beta_e, schemes)
        values = {s: result.per_scheme[s].alpha_tilde for s in schemes}
        if beta_e == 0.0:
            for scheme, value in values.items():
                checks.append(
                    (
                        BAND[0] <= value <= BAND[1],
                        f"beta_e=0 {scheme.value}: alpha_tilde={value:.4f} in band",
                    )
                )
                checks.append(_uniform_check(result, scheme, "beta_e=0"))
        else:
            raw = values[ResamplingScheme.RAW_Y]
            boot = values[ResamplingScheme.PARAMETRIC_BOOTSTRAP]
            std = values[ResamplingScheme.STANDARDIZED_RESIDUALS]
            checks.append((raw <= 0.02, f"beta_e=1.5 raw-y: {raw:.4f} <= 0.02"))
            checks.append(
                (
                    BAND[0] <= boot <= BAND[1],
                    f"beta_e=1.5 bootstrap: {boot:.4f} in band",
                )
            )
            checks.append(
                _uniform_check(result, ResamplingScheme.PARAMETRIC_BOOTSTRAP, "beta_e=1.5")
            )
            checks.append(
                (
                    0.015 <= std <= 0.05,
                    f"beta_e=1.5 standardized-residuals: {std:.4f} in [0.015, 0.05]",
                )
            )
    checks.append((True, f"elapsed {time.perf_counter() - start:.0f} s"))
    _report(2, "binomial-family calibration table", checks)


def test_criterion_3_standardized_residuals_match_freedman_lane():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 401))
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 101))
        x_e = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
        x_g = rng.integers(0, 3, size=(n, m)).astype(float)
        # Avoid degenerate markers in tiny samples.
        for j in range(m):
            while x_g[:, j].min() == x_g[:, j].max():
                x_g[:, j] = rng.integers(0, 3, size=n)
        y = rng.standard_normal(n) + 0.8 * x_e[:, -1]
        dataset = Dataset(y=y, x_e=x_e, x_g=x_g)
        fit = fit_null(Family.NORMAL, y, x_e)
        seed = int(rng.integers(0, 2**32))
        fl = replicate_matrix(
            ResamplingScheme.FREEDMAN_LANE, fit, dataset, 30, seed
        )
        std = replicate_matrix(
            ResamplingScheme.STANDARDIZED_RESIDUALS, fit, dataset, 30, seed
        )
        worst = max(worst, float(np.max(np.abs(fl - std))))
    _report(
        3,
        "scheme equivalence for the normal family",
        [(worst <= 1e-10, f"max |difference| over 50 datasets = {worst:.2e} <= 1e-10")],
    )


def test_criterion_4_exhaustive_permutation_oracle():
    start = time.perf_counter()
    checks = []
    worst_gap = 0.0
    for k in range(20):
        sim = SimulationConfig(
            n=6, m=2, family=Family.NORMAL, beta_e=0.5, seed=4000 + k
        )
        dataset = simulate_dataset(sim).dataset
        fit = fit_null(Family.NORMAL, dataset.y, dataset.x_e)
        observed = score_statistics(fit, dataset.x_g)
        exact = replicate_statistics(
            ResamplingScheme.FREEDMAN_LANE, fit, dataset, None, seed=0, exhaustive=True
        )
        p_exact = per_dataset_fwer(exact, observed)
        grid_ok = abs(p_exact * 720 - round(p_exact * 720)) < 1e-9
        if not grid_ok:
            checks.append((False, f"dataset {k}: p={p_exact} not on the 1/720 grid"))
        sampled = replicate_statistics(
            ResamplingScheme.FREEDMAN_LANE, fit, dataset, 50_000, seed=4100 + k
        )
        p_sampled = per_dataset_fwer(sampled, observed)
        worst_gap = max(worst_gap, abs(p_sampled - p_exact))
    elapsed = time.perf_counter() - start
    checks.append((exact.b == 720, "720 permutations enumerated"))
    checks.append(
        (worst_gap <= 0.01, f"max |sampled - exhaustive| = {worst_gap:.4f} <= 0.01")
    )
    checks.append((elapsed <= 60.0, f"elapsed {elapsed:.0f} s <= 60 s"))
    _report(4, "exhaustive permutation oracle", checks)


def test_criterion_5_hat_matrix_closed_forms():
    checks = []
    for n in (5, 50, 500):
        fit = fit_null(Family.NORMAL, np.arange(n, dtype=float), np.ones((n, 1)))
        gap = np.max(np.abs(fit.hat_apply(np.eye(n)) - 1.0 / n))
        checks.append((gap <= 1e-10, f"intercept-only n={n}: max gap {gap:.2e}"))
        rng = np.random.default_rng(n)
        z = rng.standard_normal(n)
        z = z - z.mean()
        z = z * np.sqrt(n / (z @ z))
        fit = fit_null(
            Family.NORMAL,
            rng.standard_normal(n),
            np.column_stack([np.ones(n), z]),
        )
        closed_form = (1.0 + np.outer(z, z)) / n
        gap = np.max(np.abs(fit.hat_apply(np.eye(n)) - closed_form))
        checks.append((gap <= 1e-10, f"standardized covariate n={n}: max gap {gap:.2e}"))
    _report(5, "hat-matrix closed forms", checks)


def test_criterion_6_order_statistic_interval_coverage():
    b, q, conf = 500, 0.95, 0.95
    true_quantile = float(ndtri(q))
    rng = np.random.default_rng(6)
    covered = 0
    reps = 2000
    for _ in range(reps):
        sample = np.sort(rng.standard_normal(b))
        dist = MaxTDistribution(
            max_stats=sample, b=b, scheme=ResamplingScheme.FREEDMAN_LANE, seed=0
        )
        low, high = cutoff_ci(dist, q, conf)
        covered += low <= true_quantile <= high
    coverage = covered / reps

    # Exact-binomial delta search against full enumeration at B = 1000.
    enum_b = 1000
    pmf = sps.binom.pmf(np.arange(enum_b + 1), enum_b, q)
    cdf = np.cumsum(pmf)
    center = int(np.ceil(enum_b * q))

    def enum_coverage(delta):
        r, s = max(center - delta, 1), min(center + delta, enum_b)
        return cdf[s] - (cdf[r - 1] if r >= 1 else 0.0)

    delta = next(d for d in range(enum_b + 1) if enum_coverage(d) >= conf)
    dist = MaxTDistribution(
        max_stats=np.arange(1.0, enum_b + 1.0),
        b=enum_b,
        scheme=ResamplingScheme.FREEDMAN_LANE,
        seed=0,
    )
    low, high = cutoff_ci(dist, q, conf)
    enum_match = low == float(center - delta) and high == float(
        min(center + delta, enum_b)
    )
    _report(
        6,
        "order-statistic interval coverage",
        [
            (
                0.93 <= coverage <= 0.97,
                f"coverage {coverage:.4f} in [0.93, 0.97] over {reps} repetitions",
            ),
            (enum_match, f"delta search matches enumeration (delta={delta})"),
        ],
    )


def test_criterion_7_sidak_cross_check():
    _, sidak = bonferroni_sidak(100, 0.05)
    sim = SimulationConfig(
        n=400, m=100, family=Family.NORMAL, beta_e=0.5, rho=0.0, seed=424
    )
    result = alpha_loc_study(
        sim,
        ResamplingScheme.FREEDMAN_LANE,
        b=20_000,
        alpha=0.05,
        mc_draws=200_000,
        mc_seed=17,
    )
    cutoff = result.cutoff
    mc = result.mc_check
    maxt_err = abs(cutoff.alpha_loc - sidak) / sidak
    mc_err = abs(mc.alpha_loc - sidak) / sidak
    # Permutation-side standard error via the order-statistic interval,
    # mapped to the local-level scale through the Gaussian density.
    se_c = (cutoff.ci_high - cutoff.ci_low) / (2 * 1.96)
    se_perm = 2 * sps.norm.pdf(cutoff.c) * se_c
    combined = float(np.hypot(se_perm, mc.se))
    gap = abs(cutoff.alpha_loc - mc.alpha_loc)
    _report(
        7,
        "independent-marker local level vs closed form",
        [
            (
                maxt_err <= 0.20,
                f"maxT alpha_loc {cutoff.alpha_loc:.4e} within 20% of Sidak "
                f"{sidak:.4e} (err {maxt_err:.1%})",
            ),
            (
                mc_err <= 0.20,
                f"MC alpha_loc {mc.alpha_loc:.4e} within 20% of Sidak "
                f"(err {mc_err:.1%})",
            ),
            (
                gap <= 3 * combined,
                f"|maxT - MC| = {gap:.2e} <= 3 x combined SE {3 * combined:.2e}",
            ),
        ],
    )


def test_criterion_8_local_level_ordering():
    checks = []
    for family, seed, others in (
        (
            Family.NORMAL,
            88,
            (
                ResamplingScheme.FREEDMAN_LANE,
                ResamplingScheme.STANDARDIZED_RESIDUALS,
                ResamplingScheme.PARAMETRIC_BOOTSTRAP,
            ),
        ),
        (
            Family.BINOMIAL,
            2024,
            (
                ResamplingScheme.STANDARDIZED_RESIDUALS,
                ResamplingScheme.PARAMETRIC_BOOTSTRAP,
            ),
        ),
    ):
        sim = SimulationConfig(
            n=400, m=100, family=family, beta_e=1.5, rho=0.7, seed=seed
        )
        raw = alpha_loc_study(
            sim, ResamplingScheme.RAW_Y, b=5000, alpha=0.05
        ).cutoff.alpha_loc
        for scheme in others:
            value = alpha_loc_study(sim, scheme, b=5000, alpha=0.05).cutoff.alpha_loc
            ratio = value / raw if raw > 0 else np.inf
            checks.append(
                (
                    ratio >= 10.0,
                    f"{family.value} {scheme.value}: alpha_loc {value:.3e} >= "
                    f"10 x raw-y {raw:.3e} (ratio {ratio:.1f})",
                )
            )
    _report(8, "raw-response conservativeness ordering", checks)


def test_criterion_9_byte_identical_outputs(tmp_path):
    sim_dir = tmp_path / "data"
    assert (
        main(
            [
                "simulate",
                "--family",
                "normal",
                "--n",
                "60",
                "--m",
                "5",
                "--beta-e",
                "0.5",
                "--seed",
                "9",
                "--out-dir",
                str(sim_dir),
            ]
        )
        == 0
    )
    scan_blobs = []
    # scan has no worker count: its reports are compared across reruns.
    for run in range(4):
        out = tmp_path / f"scan{run}.json"
        code = main(
            [
                "scan",
                "--phenotype",
                str(sim_dir / "phenotype.csv"),
                "--covariates",
                str(sim_dir / "covariates.csv"),
                "--genotypes",
                str(sim_dir / "genotypes.csv"),
                "--b",
                "400",
                "--seed",
                "11",
                "--out",
                str(out),
                "--format",
                "json",
            ]
        )
        assert code == 0
        scan_blobs.append(out.read_bytes())
    config_file = tmp_path / "study.cfg"
    config_file.write_text(
        "n = 40\nm = 4\nschemes = freedman-lane,raw-y\nk = 6\nb = 50\nseed = 3\n"
    )
    study_blobs = []
    for run, workers in enumerate(("1", "4", "8", "4")):
        out = tmp_path / f"study{run}.csv"
        code = main(
            [
                "study",
                "--config",
                str(config_file),
                "--workers",
                workers,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        study_blobs.append(out.read_bytes())
    _report(
        9,
        "byte-identical outputs for any worker count",
        [
            (
                all(blob == scan_blobs[0] for blob in scan_blobs),
                "scan reports identical across four reruns",
            ),
            (
                all(blob == study_blobs[0] for blob in study_blobs),
                "study tables identical for workers 1/4/8 and rerun",
            ),
        ],
    )
