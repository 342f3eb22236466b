"""Tests for the correlated-genotype and null-phenotype simulator."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate
from scipy import stats as sps
from scipy.special import expit, ndtri

import permscan
from permscan import (
    ConfigError,
    Family,
    SimulationConfig,
    fit_null,
    score_statistics,
    simulate_dataset,
    simulate_genotypes,
    simulate_phenotype,
)
from permscan import simulate
from permscan.simulate import correlation_factor


def _root_matrix(m, rho):
    a, c = correlation_factor(m, rho)
    return a * np.eye(m) + c * np.ones((m, m))


def _compound_symmetry(m, rho):
    sigma = np.full((m, m), rho)
    np.fill_diagonal(sigma, 1.0)
    return sigma


class TestCorrelationFactor:
    def test_independent_is_identity(self):
        assert correlation_factor(7, 0.0) == (1.0, 0.0)

    def test_two_marker_reconstruction(self):
        root = _root_matrix(2, 0.7)
        assert_allclose(root @ root, _compound_symmetry(2, 0.7), atol=1e-12)

    def test_compound_symmetry_spectrum(self):
        m, rho = 100, 0.7
        root = _root_matrix(m, rho)
        sigma = root @ root
        assert_allclose(sigma, _compound_symmetry(m, rho), atol=1e-10)
        # One eigenvalue 1 + (m - 1) rho along the ones vector, and 1 - rho
        # repeated m - 1 times on its complement.
        expected = np.r_[np.full(m - 1, 1 - rho), 1 + (m - 1) * rho]
        assert_allclose(np.linalg.eigvalsh(sigma), expected, rtol=1e-10)

    def test_rejects_invalid_rho(self):
        with pytest.raises(ConfigError):
            correlation_factor(5, 1.0)
        with pytest.raises(ConfigError):
            correlation_factor(5, -0.2)

    def test_closed_form_matches_the_dense_root(self):
        n, m, rho = 50, 300, 0.5
        threshold = np.linspace(-1.5, 0.0, m)
        alleles = simulate._draw_alleles(
            np.random.default_rng(3), n, correlation_factor(m, rho), threshold
        )
        latent = np.random.default_rng(3).standard_normal((n, m)) @ _root_matrix(m, rho)
        assert np.array_equal(alleles, latent < threshold)

    def test_genotypes_do_not_depend_on_blas_threads(self, tmp_path):
        # The root is applied in closed form, with no BLAS call whose last
        # bits could follow the thread count into the thresholded latents.
        config = "SimulationConfig(n=50, m=2000, family=Family.NORMAL, rho=0.5)"
        script = "\n".join(
            [
                "import sys",
                "import numpy as np",
                "from permscan import Family, SimulationConfig, simulate_genotypes",
                "from permscan.simulate import correlation_factor",
                "np.save(sys.argv[1], correlation_factor(2000, 0.5))",
                f"np.save(sys.argv[2], simulate_genotypes({config})[0])",
            ]
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        src = str(Path(permscan.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        factor, genotypes = tmp_path / "factor.npy", tmp_path / "genotypes.npy"
        subprocess.run(
            [sys.executable, "-c", script, str(factor), str(genotypes)],
            env=env,
            check=True,
        )
        sim = SimulationConfig(n=50, m=2000, family=Family.NORMAL, rho=0.5)
        assert tuple(np.load(factor)) == correlation_factor(2000, 0.5)
        assert np.load(genotypes).tobytes() == simulate_genotypes(sim)[0].tobytes()


class TestGenotypes:
    def test_hardy_weinberg_at_half(self):
        # MAF pinned at 0.5 with independent copies: genotype frequencies
        # (1/4, 1/2, 1/4).
        config = SimulationConfig(
            n=100_000, m=2, family=Family.NORMAL, maf_range=(0.5, 0.5), seed=1
        )
        genotypes, maf = simulate_genotypes(config)
        assert_allclose(maf, 0.5, atol=0)
        n = config.n
        for expected, value in ((0.25, 0.0), (0.5, 1.0), (0.25, 2.0)):
            frequency = np.mean(genotypes == value, axis=0)
            tolerance = 3 * np.sqrt(expected * (1 - expected) / n)
            assert np.all(np.abs(frequency - expected) <= tolerance)

    def test_marginal_allele_frequency(self):
        p = 0.3
        config = SimulationConfig(
            n=100_000, m=3, family=Family.NORMAL, maf_range=(p, p), seed=2
        )
        genotypes, _ = simulate_genotypes(config)
        allele_freq = genotypes.mean(axis=0) / 2.0
        tolerance = 3 * np.sqrt(p * (1 - p) / (2 * config.n))
        assert np.all(np.abs(allele_freq - p) <= tolerance)

    def test_entries_are_genotypes(self):
        config = SimulationConfig(n=500, m=20, family=Family.NORMAL, rho=0.4, seed=3)
        genotypes, _ = simulate_genotypes(config)
        assert set(np.unique(genotypes)) <= {0.0, 1.0, 2.0}

    def test_latent_correlation_attenuates(self):
        # At latent rho = 0.7 the realized mean genotype correlation is far
        # lower; it historically lands between 0.367 and 0.477 per dataset.
        per_dataset = []
        for k in range(20):
            config = SimulationConfig(
                n=400, m=100, family=Family.NORMAL, rho=0.7, seed=500 + k
            )
            genotypes, _ = simulate_genotypes(config)
            corr = np.corrcoef(genotypes.T)
            off = corr[~np.eye(100, dtype=bool)]
            per_dataset.append(off.mean())
        per_dataset = np.array(per_dataset)
        assert np.all(per_dataset > 0.33) and np.all(per_dataset < 0.51)
        assert 0.3667 <= per_dataset.mean() <= 0.4768

    def test_maf_thresholds_match_scipy_quantile(self, monkeypatch):
        thresholds = []
        draw = simulate._draw_alleles

        def recording(gen, n, root, threshold):
            thresholds.append(threshold)
            return draw(gen, n, root, threshold)

        monkeypatch.setattr(simulate, "_draw_alleles", recording)
        config = SimulationConfig(n=200, m=500, family=Family.NORMAL, seed=6)
        _, maf = simulate_genotypes(config)
        assert_allclose(thresholds[0], ndtri(maf), rtol=0, atol=2e-15)

    def test_memory_is_linear_in_markers(self):
        # A dense m x m root alone would take 8 m^2 bytes (128 MB here).
        config = SimulationConfig(n=20, m=4000, family=Family.NORMAL, rho=0.5)
        tracemalloc.start()
        try:
            simulate_genotypes(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * config.n * config.m * 8

    def test_monomorphic_columns_redrawn(self):
        # Tiny n with extreme MAF produces monomorphic draws with high
        # probability; the redraw loop must still deliver polymorphic data.
        config = SimulationConfig(
            n=3, m=1, family=Family.NORMAL, maf_range=(0.05, 0.05), seed=4
        )
        genotypes, _ = simulate_genotypes(config)
        assert genotypes[:, 0].min() < genotypes[:, 0].max()


class TestPhenotype:
    def test_normal_null_is_standard_noise(self):
        config = SimulationConfig(n=100_000, m=1, family=Family.NORMAL, seed=5)
        y = simulate_phenotype(config, np.zeros(config.n))
        assert abs(y.mean()) <= 3 / np.sqrt(config.n)
        assert abs(y.std() - 1.0) <= 3 / np.sqrt(2 * config.n)

    def test_binomial_null_is_fair_coin(self):
        config = SimulationConfig(n=100_000, m=1, family=Family.BINOMIAL, seed=6)
        y = simulate_phenotype(config, np.zeros(config.n))
        assert abs(y.mean() - 0.5) <= 3 * 0.5 / np.sqrt(config.n)

    def test_binomial_mean_matches_quadrature_oracle(self):
        beta = 1.5
        config = SimulationConfig(
            n=100_000, m=1, family=Family.BINOMIAL, beta_e=beta, seed=7
        )
        rng = np.random.default_rng(8)
        covariate = rng.standard_normal(config.n)
        y = simulate_phenotype(config, covariate)
        expected, _ = integrate.quad(
            lambda z: expit(beta * z) * sps.norm.pdf(z), -10, 10
        )
        se = np.sqrt(expected * (1 - expected) / config.n)
        assert abs(y.mean() - expected) <= 3 * se


class TestDatasetAssembly:
    def test_bitwise_reproducible(self):
        config = SimulationConfig(
            n=200, m=10, family=Family.BINOMIAL, beta_e=0.5, rho=0.3, seed=9
        )
        first = simulate_dataset(config)
        second = simulate_dataset(config)
        assert np.array_equal(first.dataset.y, second.dataset.y)
        assert np.array_equal(first.dataset.x_e, second.dataset.x_e)
        assert np.array_equal(first.dataset.x_g, second.dataset.x_g)
        assert np.array_equal(first.true_maf, second.true_maf)

    def test_stream_paths_give_distinct_datasets(self):
        config = SimulationConfig(n=50, m=3, family=Family.NORMAL, seed=10)
        a = simulate_dataset(config, stream_path=(0,))
        b = simulate_dataset(config, stream_path=(1,))
        assert not np.array_equal(a.dataset.y, b.dataset.y)

    def test_design_structure(self):
        config = SimulationConfig(n=80, m=4, family=Family.NORMAL, seed=11)
        simulated = simulate_dataset(config)
        x_e = simulated.dataset.x_e
        assert x_e.shape == (80, 2)
        assert np.all(x_e[:, 0] == 1.0)

    def test_null_score_statistics_are_standard_normal(self):
        # Across many independent datasets the single-marker statistic is
        # N(0, 1) under the complete null, covariate effect included.
        datasets = 5000
        stats = np.empty(datasets)
        config = SimulationConfig(
            n=2000, m=1, family=Family.NORMAL, beta_e=0.5, seed=12
        )
        for k in range(datasets):
            simulated = simulate_dataset(config, stream_path=(k,))
            fit = fit_null(Family.NORMAL, simulated.dataset.y, simulated.dataset.x_e)
            stats[k] = score_statistics(fit, simulated.dataset.x_g).t[0]
        assert sps.kstest(stats, "norm").pvalue > 0.01


class TestConfigValidation:
    def test_rejects_bad_rho(self):
        with pytest.raises(ConfigError):
            SimulationConfig(n=10, m=2, family=Family.NORMAL, rho=1.0)

    def test_rejects_bad_maf_range(self):
        with pytest.raises(ConfigError):
            SimulationConfig(n=10, m=2, family=Family.NORMAL, maf_range=(0.0, 0.5))
        with pytest.raises(ConfigError):
            SimulationConfig(n=10, m=2, family=Family.NORMAL, maf_range=(0.4, 0.2))
        with pytest.raises(ConfigError):
            SimulationConfig(n=10, m=2, family=Family.NORMAL, maf_range=(0.1, 0.6))

    def test_rejects_tiny_problems(self):
        with pytest.raises(ConfigError):
            SimulationConfig(n=2, m=1, family=Family.NORMAL)
        with pytest.raises(ConfigError):
            SimulationConfig(n=10, m=0, family=Family.NORMAL)

    @pytest.mark.parametrize("field", ["n", "m", "seed"])
    @pytest.mark.parametrize("value", [10.5, 10.0, "10", True, None])
    def test_rejects_sizes_and_seeds_that_are_not_integers(self, field, value):
        fields = {"n": 10, "m": 2, "seed": 0, field: value}
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            SimulationConfig(family=Family.NORMAL, **fields)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            SimulationConfig(n=10, m=2, family=Family.NORMAL, seed=-1)

    @pytest.mark.parametrize("maf_range", [0.1, (0.1,), (0.05, 0.2, 0.3), [0.1, 0.2]])
    def test_rejects_a_maf_range_that_is_not_a_pair(self, maf_range):
        with pytest.raises(ConfigError, match="maf_range must be a 2-tuple"):
            SimulationConfig(n=10, m=2, family=Family.NORMAL, maf_range=maf_range)

    @pytest.mark.parametrize("family", ["normal", "binomial", None])
    def test_rejects_a_family_that_is_not_a_family(self, family):
        with pytest.raises(ConfigError, match="family must be a Family"):
            SimulationConfig(n=10, m=2, family=family)


class TestRealFields:
    NOT_FINITE_REALS = ["0.5", None, True, np.bool_(False), float("nan"), float("inf"), -np.inf]

    @pytest.mark.parametrize("value", NOT_FINITE_REALS)
    def test_rejects_a_rho_that_is_not_a_finite_real(self, value):
        with pytest.raises(ConfigError, match="rho must be a finite real number"):
            SimulationConfig(n=10, m=2, family=Family.NORMAL, rho=value)

    @pytest.mark.parametrize("value", NOT_FINITE_REALS)
    def test_rejects_a_beta_e_that_is_not_a_finite_real(self, value):
        with pytest.raises(ConfigError, match="beta_e must be a finite real number"):
            SimulationConfig(n=10, m=2, family=Family.NORMAL, beta_e=value)

    @pytest.mark.parametrize("value", NOT_FINITE_REALS)
    @pytest.mark.parametrize("position", [0, 1])
    def test_rejects_a_maf_bound_that_is_not_a_finite_real(self, value, position):
        maf_range = [0.05, 0.5]
        maf_range[position] = value
        with pytest.raises(ConfigError, match="maf_range entry must be a finite real number"):
            SimulationConfig(n=10, m=2, family=Family.NORMAL, maf_range=tuple(maf_range))

    def test_reals_are_stored_as_given(self):
        values = {"beta_e": 1, "rho": np.float32(0.25), "maf_range": (np.float64(0.1), 0.5)}
        config = SimulationConfig(n=10, m=2, family=Family.NORMAL, **values)
        for name, value in values.items():
            assert getattr(config, name) is value


def test_allele_draw_matches_the_closed_form_root():
    # The in-place a z + c sum(z) gives the bits of the plain expression.
    from permscan.rng import substream

    config = SimulationConfig(n=50, m=40, family=Family.NORMAL, rho=0.6)
    root = correlation_factor(config.m, config.rho)
    threshold = np.linspace(-1.5, 0.0, config.m)
    draws = simulate._draw_alleles(substream(5, 1), config.n, root, threshold)
    z = substream(5, 1).standard_normal((config.n, config.m))
    a, c = root
    assert np.array_equal(draws, a * z + c * z.sum(axis=1, keepdims=True) < threshold)
