"""Tests for the Monte Carlo calibration harness."""

import multiprocessing
import os
import sys
import threading
import time
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from permscan import (
    ConfigError,
    FitError,
    Family,
    PermscanError,
    ReplicateFailureError,
    ResamplingScheme,
    SimulationConfig,
    StudyConfig,
    alpha_loc_study,
    fit_null,
    per_dataset_fwer,
    replicate_matrix,
    replicate_statistics,
    run_study,
    score_statistics,
    simulate_dataset,
    table_rows,
    wald_ci,
)
from permscan import resampling, study
from permscan.io import TABLE_FIELDS
from permscan.rng import RESAMPLING_LANE, substream


def _small_config(workers=1, schemes=None, k=6, b=40):
    sim = SimulationConfig(n=30, m=3, family=Family.NORMAL, beta_e=0.4, seed=77)
    return StudyConfig(
        sim=sim,
        schemes=tuple(
            schemes
            or (ResamplingScheme.FREEDMAN_LANE, ResamplingScheme.PARAMETRIC_BOOTSTRAP)
        ),
        k=k,
        b=b,
        alpha=0.05,
        workers=workers,
        master_seed=123,
    )


class TestWaldCi:
    def test_published_scale_five_thousand(self):
        low, high = wald_ci(0.0522, 5000)
        assert round(low, 4) == 0.0460
        assert round(high, 4) == 0.0584

    def test_published_scale_one_thousand(self):
        low, high = wald_ci(0.041, 1000)
        assert round(low, 4) == 0.0287
        assert round(high, 4) == 0.0533

    def test_degenerate_proportion(self):
        assert wald_ci(0.0, 100) == (0.0, 0.0)
        assert wald_ci(1.0, 100) == (1.0, 1.0)

    def test_clamped_to_unit_interval(self):
        low, high = wald_ci(0.01, 10)
        assert low == 0.0 and 0.0 < high < 1.0


class TestRunStudy:
    def test_degenerate_single_dataset_study(self):
        config = _small_config(k=1, b=1, schemes=(ResamplingScheme.FREEDMAN_LANE,))
        result = run_study(config)
        calibration = result.per_scheme[ResamplingScheme.FREEDMAN_LANE]
        assert calibration.alpha_hat.shape == (1,)
        assert calibration.alpha_tilde in (0.0, 1.0)

    def test_alpha_tilde_is_rejection_proportion(self):
        config = _small_config()
        result = run_study(config)
        for scheme in config.schemes:
            calibration = result.per_scheme[scheme]
            expected = np.mean(calibration.alpha_hat <= config.alpha)
            assert calibration.alpha_tilde == expected
            low, high = wald_ci(calibration.alpha_tilde, config.k)
            assert (calibration.ci_low, calibration.ci_high) == (low, high)

    def test_worker_count_never_changes_results(self):
        serial = run_study(_small_config(workers=1))
        pooled = run_study(_small_config(workers=2))
        for scheme in serial.per_scheme:
            assert np.array_equal(
                serial.per_scheme[scheme].alpha_hat,
                pooled.per_scheme[scheme].alpha_hat,
            )

    @pytest.mark.parametrize("workers, k, sizes", [(8, 2, [2]), (2, 3, [2]), (4, 1, [])])
    def test_pool_never_exceeds_dataset_count(self, monkeypatch, workers, k, sizes):
        started = []

        class Recording(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(study, "ProcessPoolExecutor", Recording)
        run_study(_small_config(workers=workers, k=k, b=9))
        assert started == sizes

    def test_schemes_share_permutation_streams(self):
        # The normal-family equivalence carries through the harness: the
        # reduced-residual and standardized-residual schemes produce the
        # same alpha_hat vector when run in one study.
        config = _small_config(
            schemes=(
                ResamplingScheme.FREEDMAN_LANE,
                ResamplingScheme.STANDARDIZED_RESIDUALS,
            )
        )
        result = run_study(config)
        assert_allclose(
            result.per_scheme[ResamplingScheme.FREEDMAN_LANE].alpha_hat,
            result.per_scheme[ResamplingScheme.STANDARDIZED_RESIDUALS].alpha_hat,
            atol=0,
        )

    def test_table_rows_schema(self):
        result = run_study(_small_config(k=2, b=20))
        rows = table_rows(result)
        assert len(rows) == 2
        for row in rows:
            assert list(row) == TABLE_FIELDS
            assert 0.0 <= row["alpha_tilde"] <= 1.0
            assert row["config_hash"] == result.config_hash
            assert row["K"] == 2 and row["B"] == 20

    def test_dataset_errors_keep_their_context(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ReplicateFailureError("replicate 3 failed", replicate=3)

        monkeypatch.setattr("permscan.study.replicate_statistics", fail)
        with pytest.raises(ReplicateFailureError) as info:
            run_study(_small_config(k=2))
        assert info.value.replicate == 3
        assert "dataset 0" in str(info.value)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_warning_is_emitted_once(self, workers):
        # Every binomial dataset warns that freedman-lane rests on normal
        # theory; the study passes the warning on once, in any process layout.
        sim = SimulationConfig(n=60, m=5, family=Family.BINOMIAL, seed=1)
        config = StudyConfig(
            sim=sim, schemes=(ResamplingScheme.FREEDMAN_LANE,), k=4, b=19, workers=workers
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            run_study(config)
        messages = [str(w.message) for w in caught if w.category is UserWarning]
        assert len(messages) == 1
        assert "standardized-residuals scheme is the intended analogue" in messages[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_runtime_warning_in_a_dataset_is_an_error(self, monkeypatch, workers):
        def warn(dist, observed):
            warnings.warn("overflow in a dataset", RuntimeWarning)
            return 0.5

        monkeypatch.setattr(study, "per_dataset_fwer", warn)
        with pytest.raises(RuntimeWarning, match="overflow in a dataset"):
            run_study(_small_config(workers=workers, k=2))

    def test_rejects_empty_schemes(self):
        sim = SimulationConfig(n=30, m=3, family=Family.NORMAL, seed=1)
        with pytest.raises(ConfigError):
            StudyConfig(sim=sim, schemes=(), k=1, b=1)

    @pytest.mark.parametrize(
        "schemes", [("freedman-lane",), "freedman-lane", (ResamplingScheme.RAW_Y, None)]
    )
    def test_rejects_schemes_that_are_not_schemes(self, schemes):
        sim = SimulationConfig(n=30, m=3, family=Family.NORMAL, seed=1)
        with pytest.raises(ConfigError, match="scheme must be a ResamplingScheme"):
            StudyConfig(sim=sim, schemes=schemes, k=1, b=1)

    def test_rejects_a_sim_that_is_not_a_simulation_config(self):
        with pytest.raises(ConfigError, match="sim must be a SimulationConfig"):
            StudyConfig(sim="x", schemes=(ResamplingScheme.RAW_Y,), k=1, b=1)

    def test_rejects_a_bare_scheme(self):
        sim = SimulationConfig(n=30, m=3, family=Family.NORMAL, seed=1)
        with pytest.raises(ConfigError, match="schemes must be iterable"):
            StudyConfig(sim=sim, schemes=ResamplingScheme.RAW_Y, k=1, b=1)

    @pytest.mark.parametrize("field", ["k", "b", "workers", "master_seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, "2", True, None])
    def test_rejects_counts_and_seeds_that_are_not_integers(self, field, value):
        sim = SimulationConfig(n=30, m=3, family=Family.NORMAL, seed=1)
        fields = {"k": 2, "b": 2, "workers": 1, "master_seed": 0, field: value}
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            StudyConfig(sim=sim, schemes=(ResamplingScheme.RAW_Y,), **fields)

    @pytest.mark.parametrize("field, value", [("k", 0), ("b", -2), ("master_seed", -1)])
    def test_rejects_counts_and_seeds_below_their_minimum(self, field, value):
        sim = SimulationConfig(n=30, m=3, family=Family.NORMAL, seed=1)
        fields = {"k": 2, "b": 2, field: value}
        with pytest.raises(ConfigError, match=f"{field} must be >= "):
            StudyConfig(sim=sim, schemes=(ResamplingScheme.RAW_Y,), **fields)

    def test_numpy_integers_are_stored_as_ints(self):
        def config(integer):
            sim = SimulationConfig(
                n=integer(30), m=integer(3), family=Family.NORMAL, seed=integer(1)
            )
            return StudyConfig(
                sim=sim,
                schemes=(ResamplingScheme.RAW_Y,),
                k=integer(2),
                b=integer(9),
                workers=integer(1),
                master_seed=integer(5),
            )

        numpy, python = (run_study(config(kind)) for kind in (np.int64, int))
        values = [numpy.config.sim.n, numpy.config.sim.m, numpy.config.sim.seed]
        values += [numpy.config.k, numpy.config.b, numpy.config.workers]
        assert all(type(value) is int for value in values + [numpy.config.master_seed])
        assert numpy.config_hash == python.config_hash
        raw_y = ResamplingScheme.RAW_Y
        assert np.array_equal(
            numpy.per_scheme[raw_y].alpha_hat, python.per_scheme[raw_y].alpha_hat
        )

    @pytest.mark.parametrize("mc_draws", [1, -3])
    def test_alpha_loc_study_checks_mc_draws_before_resampling(
        self, monkeypatch, mc_draws
    ):
        def replicate_statistics(*args, **kwargs):
            pytest.fail("resampled before checking the Monte Carlo draw count")

        monkeypatch.setattr(study, "replicate_statistics", replicate_statistics)
        sim = SimulationConfig(n=30, m=3, family=Family.NORMAL, seed=1)
        with pytest.raises(ConfigError, match="need at least two Monte Carlo draws"):
            alpha_loc_study(
                sim, ResamplingScheme.FREEDMAN_LANE, b=20_000, mc_draws=mc_draws
            )

    @pytest.mark.parametrize("alpha, b", [(1.5, 100_000), (0.99, 50)])
    def test_alpha_loc_study_checks_alpha_before_resampling(self, monkeypatch, alpha, b):
        def replicate_statistics(*args, **kwargs):
            pytest.fail("resampled before checking alpha against B")

        monkeypatch.setattr(study, "replicate_statistics", replicate_statistics)
        sim = SimulationConfig(n=30, m=3, family=Family.NORMAL, seed=1)
        with pytest.raises(PermscanError, match="alpha must be in|cannot resolve"):
            alpha_loc_study(sim, ResamplingScheme.FREEDMAN_LANE, b=b, alpha=alpha)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(ConfigError, match=f"workers must be >= 1, got {workers}"):
            _small_config(workers=workers)

    def test_raw_y_alpha_hat_subuniform_under_exchangeability(self):
        # With no covariate effect the raw response is exchangeable, so the
        # per-dataset estimates are stochastically no smaller than uniform.
        sim = SimulationConfig(n=100, m=10, family=Family.NORMAL, beta_e=0.0, seed=31)
        config = StudyConfig(
            sim=sim,
            schemes=(ResamplingScheme.RAW_Y,),
            k=200,
            b=150,
            master_seed=777,
        )
        hats = run_study(config).per_scheme[ResamplingScheme.RAW_Y].alpha_hat
        for alpha in (0.05, 0.1, 0.25, 0.5):
            buffer = 3 * np.sqrt(alpha * (1 - alpha) / config.k)
            assert np.mean(hats <= alpha) <= alpha + buffer

    def test_residual_schemes_ignore_the_covariate_effect(self):
        # These schemes see the normal response only through (I - H) y, and
        # the covariate effect lies in the span of x_e; raw-y shows that the
        # response did change.
        invariant = (
            ResamplingScheme.FREEDMAN_LANE,
            ResamplingScheme.STANDARDIZED_RESIDUALS,
            ResamplingScheme.MODIFIED_MODEL,
            ResamplingScheme.PARAMETRIC_BOOTSTRAP,
        )
        hats = []
        for beta_e in (0.0, 0.5, 1.0):
            sim = SimulationConfig(n=60, m=8, family=Family.NORMAL, beta_e=beta_e, rho=0.5)
            config = StudyConfig(
                sim=sim,
                schemes=invariant + (ResamplingScheme.RAW_Y,),
                k=20,
                b=100,
                master_seed=4242,
            )
            hats.append({s: c.alpha_hat for s, c in run_study(config).per_scheme.items()})
        for other in hats[1:]:
            for scheme in invariant:
                assert np.array_equal(other[scheme], hats[0][scheme]), scheme
        raw = [h[ResamplingScheme.RAW_Y] for h in hats]
        assert not np.array_equal(raw[0], raw[2])


@pytest.fixture
def blas():
    """numpy's OpenBLAS with the caller's thread count set to 2 (not 1) for
    the test and put back after it."""
    lib = study._openblas()
    if lib is None:
        pytest.skip("numpy is not linked against its bundled OpenBLAS")
    previous = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    yield lib
    lib.scipy_openblas_set_num_threads64_(previous)


def _blas_threads():
    """BLAS thread count of the process that runs it (a pool probe task)."""
    return study._openblas().scipy_openblas_get_num_threads64_()


class _CountingBlas:
    """Stand-in for the OpenBLAS library whose thread count variable,
    ``blas_cpu_number``, counts the writes to it."""

    def __init__(self, threads):
        self.threads = threads
        self.sets = 0

    @property
    def blas_cpu_number(self):
        return self

    @property
    def value(self):
        return self.threads

    @value.setter
    def value(self, threads):
        self.threads = threads
        self.sets += 1


class TestBlasThreads:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_datasets_run_on_one_blas_thread(self, blas, monkeypatch, workers):
        # Pool workers are forked, so they inherit the wrapper; a failure
        # there comes back through the pool as an exception.
        def pinned(*args, **kwargs):
            threads = blas.scipy_openblas_get_num_threads64_()
            if threads != 1:
                raise RuntimeError(f"replicates ran on {threads} BLAS threads")
            return replicate_statistics(*args, **kwargs)

        replicate_statistics = study.replicate_statistics
        monkeypatch.setattr(study, "replicate_statistics", pinned)
        run_study(_small_config(workers=workers))

    def test_forked_worker_starts_no_blas_thread(self, blas, monkeypatch):
        # Setting the count in a forked worker restarts OpenBLAS's thread
        # pool, which would show here as a second OS thread.
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count a process's threads")
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers are not forked on this platform")

        def one_thread(*args, **kwargs):
            result = replicate_statistics(*args, **kwargs)
            threads = len(os.listdir("/proc/self/task"))
            if threads != 1:
                raise RuntimeError(f"the worker ran {threads} OS threads")
            return result

        replicate_statistics = study.replicate_statistics
        monkeypatch.setattr(study, "replicate_statistics", one_thread)
        run_study(_small_config(workers=2))

    def test_spawned_worker_is_pinned(self, blas):
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=1, mp_context=context, initializer=study._pin_blas
        ) as pool:
            assert pool.submit(_blas_threads).result(timeout=120) == 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_blas_thread_sets_only_a_count_that_is_not_one(
        self, monkeypatch, threads
    ):
        fake = _CountingBlas(threads)
        monkeypatch.setattr(study, "_openblas", lambda: fake)
        with study._one_blas_thread():
            assert fake.threads == 1
        assert fake.threads == threads
        assert fake.sets == (0 if threads == 1 else 2)

    def test_overlapping_pins_hold_one_thread_until_the_last_leaves(self, monkeypatch):
        # More threads than cores, switching every microsecond: a block that
        # sees the caller's count, or a count not restored after the last
        # block, is a lost pin.
        fake = _CountingBlas(2)
        monkeypatch.setattr(study, "_openblas", lambda: fake)
        seen = []

        def pin_repeatedly():
            for _ in range(200):
                with study._one_blas_thread():
                    seen.append(fake.threads)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=pin_repeatedly) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [1] * 800
        assert fake.threads == 2

    def test_caller_thread_count_is_restored(self, blas):
        run_study(_small_config(workers=2))
        assert blas.scipy_openblas_get_num_threads64_() == 2

    def test_caller_thread_count_is_restored_after_an_error(self, blas, monkeypatch):
        def fail(*args, **kwargs):
            raise FitError("made to fail")

        monkeypatch.setattr(study, "replicate_statistics", fail)
        with pytest.raises(FitError, match="dataset 0: made to fail"):
            run_study(_small_config(k=2))
        assert blas.scipy_openblas_get_num_threads64_() == 2

    def test_a_pooled_study_leaves_no_blas_thread_busy(self, blas):
        # A fork shuts the caller's BLAS thread pool down. OpenBLAS's setter
        # starts the pool again, and its idle thread spins on a core; a
        # written count leaves the pool to the caller's next threaded call.
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers are not forked on this platform")
        a = np.random.default_rng(0).random((1000, 1000))
        before = a @ a
        run_study(_small_config(workers=2))
        start = time.process_time()
        time.sleep(0.3)
        assert time.process_time() - start < 0.03
        assert blas.scipy_openblas_get_num_threads64_() == 2
        assert (a @ a).tobytes() == before.tobytes()

    def test_two_threads_keep_the_pin(self, blas, monkeypatch):
        # At n=400, m=100 and B=500 a scheme's statistics are a 500x400 by
        # 400x100 product, whose last bits differ between one and two BLAS
        # threads (an n=30 product is never split). The first study pins
        # the count and returns while the second still has datasets to run.
        sim = SimulationConfig(n=400, m=100, family=Family.NORMAL, beta_e=0.4)
        first = StudyConfig(
            sim=sim, schemes=(ResamplingScheme.FREEDMAN_LANE,), k=2, b=500, master_seed=1
        )
        second = replace(first, k=4, master_seed=2)
        first_in, second_in, first_out = (threading.Event() for _ in range(3))
        counts, maxima = [], {}

        def recorded(scheme, fit, dataset, b, seed, *, stream_path):
            if seed == first.master_seed:
                first_in.set()
                if stream_path == (first.k - 1,):
                    assert second_in.wait(120)
            elif stream_path == (0,):
                second_in.set()
            else:
                assert first_out.wait(120)
            counts.append(blas.scipy_openblas_get_num_threads64_())
            dist = replicate_statistics(scheme, fit, dataset, b, seed, stream_path=stream_path)
            maxima[seed, stream_path] = dist.max_stats.tobytes()
            return dist

        def run_first():
            try:
                return run_study(first)
            finally:
                first_out.set()

        def run_second():
            assert first_in.wait(120)
            return run_study(second)

        replicate_statistics = study.replicate_statistics
        monkeypatch.setattr(study, "replicate_statistics", recorded)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run_first), pool.submit(run_second)]
            threaded = [future.result(timeout=300) for future in futures]
        assert counts == [1] * (first.k + second.k)
        threaded_maxima = dict(maxima)
        serial = [run_study(config) for config in (first, second)]
        assert maxima == threaded_maxima
        for one, other in zip(threaded, serial):
            for scheme, calibration in other.per_scheme.items():
                assert one.per_scheme[scheme].alpha_hat.tobytes() == calibration.alpha_hat.tobytes()

    def test_runs_unchanged_without_openblas(self, monkeypatch):
        expected = run_study(_small_config(workers=2))
        monkeypatch.setattr(study, "_openblas", lambda: None)
        for workers in (1, 2):
            result = run_study(_small_config(workers=workers))
            for scheme, calibration in expected.per_scheme.items():
                assert np.array_equal(
                    result.per_scheme[scheme].alpha_hat, calibration.alpha_hat
                )


class TestAlphaLocStudy:
    def test_single_marker_recovers_alpha(self):
        sim = SimulationConfig(n=200, m=1, family=Family.NORMAL, beta_e=0.3, seed=42)
        result = alpha_loc_study(
            sim, ResamplingScheme.FREEDMAN_LANE, b=2000, alpha=0.05
        )
        assert abs(result.cutoff.alpha_loc - 0.05) <= 0.02
        assert result.mc_check is None

    def test_mc_cross_check_agrees(self):
        sim = SimulationConfig(n=150, m=5, family=Family.NORMAL, beta_e=0.5, seed=43)
        result = alpha_loc_study(
            sim,
            ResamplingScheme.FREEDMAN_LANE,
            b=4000,
            alpha=0.05,
            mc_draws=100_000,
            mc_seed=11,
        )
        cutoff = result.cutoff
        permutation_se = (
            2.0 * abs(cutoff.ci_high - cutoff.ci_low) / (2 * 1.96) or 1e-6
        )
        # Convert the cutoff CI to the alpha_loc scale via the local slope.
        from scipy.stats import norm

        slope = 2 * norm.pdf(cutoff.c)
        combined = np.hypot(slope * permutation_se / 2, result.mc_check.se)
        difference = abs(cutoff.alpha_loc - result.mc_check.alpha_loc)
        assert difference <= 4 * combined


class TestSharedPermutations:
    """Within one dataset a study draws each permutation index block once,
    of length n, and shares it across every permuting scheme; modified-model
    reads the entries of each row below n - d."""

    def test_one_stream_per_dataset_and_block(self, monkeypatch):
        sim = SimulationConfig(n=30, m=3, family=Family.NORMAL, beta_e=0.4)
        config = StudyConfig(
            sim=sim, schemes=tuple(ResamplingScheme), k=2, b=1025, master_seed=9
        )
        permuted = Counter()

        class Recording:
            def __init__(self, gen, path):
                self._gen, self._path = gen, path

            def permuted(self, block, **kwargs):
                permuted[self._path, block.shape] += 1
                return self._gen.permuted(block, **kwargs)

            def __getattr__(self, name):
                return getattr(self._gen, name)

        monkeypatch.setattr(
            resampling, "substream", lambda seed, *path: Recording(substream(seed, *path), path)
        )
        run_study(config)
        assert permuted == {
            ((k, RESAMPLING_LANE, j), (rows, 30)): 1
            for k in range(2)
            for j, rows in enumerate((1024, 1))
        }

    @pytest.mark.parametrize(
        "family, n, m, beta_e, schemes, b, master_seed",
        [
            (Family.NORMAL, 30, 3, 0.4, tuple(ResamplingScheme), 300, 9),
            # Small binomial datasets whose permuted responses can separate,
            # so raw-y redraws replicates from unshared streams.
            (
                Family.BINOMIAL,
                12,
                2,
                2.0,
                (ResamplingScheme.STANDARDIZED_RESIDUALS, ResamplingScheme.RAW_Y),
                1025,
                3,
            ),
        ],
    )
    def test_alpha_hat_equals_a_lone_resampler(
        self, monkeypatch, family, n, m, beta_e, schemes, b, master_seed
    ):
        sim = SimulationConfig(n=n, m=m, family=family, beta_e=beta_e)
        config = StudyConfig(sim=sim, schemes=schemes, k=3, b=b, master_seed=master_seed)
        retries = []

        def counting(seed, *path):
            if len(path) == 4:  # (k, lane, replicate, attempt)
                retries.append(path)
            return substream(seed, *path)

        monkeypatch.setattr(resampling, "substream", counting)
        result = run_study(config)
        assert bool(retries) == (family is Family.BINOMIAL)
        for k in range(config.k):
            dataset = simulate_dataset(replace(sim, seed=master_seed), stream_path=(k,)).dataset
            fit = fit_null(family, dataset.y, dataset.x_e)
            observed = score_statistics(fit, dataset.x_g)
            for scheme in schemes:
                dist = replicate_statistics(
                    scheme, fit, dataset, b, master_seed, stream_path=(k,)
                )
                assert result.per_scheme[scheme].alpha_hat[k] == per_dataset_fwer(
                    dist, observed
                )

    def test_no_block_outlives_the_study(self):
        run_study(_small_config(k=2))
        assert resampling._workspace.get() is None

    def test_no_block_outlives_a_failed_dataset(self, monkeypatch):
        cached = []

        def failing(dist, observed):
            cached.append(sum(isinstance(key, tuple) for key in resampling._workspace.get()))
            raise FitError("fit failed")

        monkeypatch.setattr(study, "per_dataset_fwer", failing)
        with pytest.raises(FitError, match="dataset 0: fit failed"):
            run_study(_small_config(k=2))
        assert cached == [1]  # freedman-lane's block, drawn inside the scope
        assert resampling._workspace.get() is None


def _workspace_arrays():
    """Every buffer and index block of the running workspace."""
    held = resampling._workspace.get().values()
    return [value[1] if isinstance(value, tuple) else value for value in held]


class TestReplicateWorkspace:
    """A study draws and refits its replicate blocks in buffers it holds
    until it returns; nothing it returns aliases them."""

    @pytest.mark.parametrize(
        "scheme, n, seed",
        [(ResamplingScheme.RAW_Y, 12, 2), (ResamplingScheme.PARAMETRIC_BOOTSTRAP, 30, 1)],
    )
    def test_redrawn_rows_are_the_rows_drawn_outside(self, monkeypatch, scheme, n, seed):
        # At beta_e=2 many rows fail to refit and are redrawn one by one
        # (raw-y's permuted responses separate only at a smaller n); each
        # redrawn row must take its own array.
        sim = SimulationConfig(n=n, m=5, family=Family.BINOMIAL, beta_e=2.0, seed=seed)
        dataset = simulate_dataset(sim).dataset
        fit = fit_null(sim.family, dataset.y, dataset.x_e)
        outside = replicate_matrix(scheme, fit, dataset, 2048, 5)
        retries = []

        def counting(seed, *path):
            if len(path) == 3:  # (lane, replicate, attempt)
                retries.append(path)
            return substream(seed, *path)

        monkeypatch.setattr(resampling, "substream", counting)
        with resampling.replicate_workspace():
            inside = replicate_matrix(scheme, fit, dataset, 2048, 5)
            assert resampling._workspace.get()
        assert len({path[1] for path in retries}) >= 10
        assert inside.tobytes() == outside.tobytes()

    @pytest.mark.parametrize(
        "scheme, n, seed",
        [(ResamplingScheme.RAW_Y, 12, 2), (ResamplingScheme.PARAMETRIC_BOOTSTRAP, 30, 1)],
    )
    def test_every_refit_starts_at_the_fit_its_rows_perturb(self, monkeypatch, scheme, n, seed):
        # The bootstrap's rows are drawn from the null fit; raw-y's keep the
        # mean of y, whose intercept-only fit is (logit ybar, 0, ...). Both
        # hold for the blocks and for the rows redrawn one by one.
        sim = SimulationConfig(n=n, m=5, family=Family.BINOMIAL, beta_e=2.0, seed=seed)
        dataset = simulate_dataset(sim).dataset
        fit = fit_null(sim.family, dataset.y, dataset.x_e)
        ybar = dataset.y.mean()
        expected = np.zeros(dataset.d)
        expected[0] = np.log(ybar / (1 - ybar))
        if scheme is ResamplingScheme.PARAMETRIC_BOOTSTRAP:
            expected = fit.coef
        real, batches = resampling.binomial_irls, []

        def recording(x_e, ys, buffers=None, start=None):
            batches.append((len(ys), start))
            return real(x_e, ys, buffers, start)

        monkeypatch.setattr(resampling, "binomial_irls", recording)
        replicate_matrix(scheme, fit, dataset, 2048, 5)
        rows = [len_ys for len_ys, _ in batches]
        assert rows.count(1024) == 2 and sum(rows) - 2048 >= 10
        for _, start in batches:
            assert_allclose(start, expected, rtol=1e-15, atol=0)

    @pytest.mark.parametrize(
        "family, schemes",
        [
            (Family.NORMAL, tuple(ResamplingScheme)),
            (
                Family.BINOMIAL,
                (
                    ResamplingScheme.STANDARDIZED_RESIDUALS,
                    ResamplingScheme.RAW_Y,
                    ResamplingScheme.PARAMETRIC_BOOTSTRAP,
                ),
            ),
        ],
    )
    def test_no_returned_array_shares_a_workspace_buffer(self, family, schemes):
        sim = SimulationConfig(n=60, m=4, family=family, beta_e=0.5, seed=3)
        dataset = simulate_dataset(sim).dataset
        returned = []
        with resampling.replicate_workspace():
            fit = fit_null(family, dataset.y, dataset.x_e)
            for scheme in schemes:
                returned.append(replicate_matrix(scheme, fit, dataset, 1100, 2))
                returned.append(replicate_statistics(scheme, fit, dataset, 1100, 2).max_stats)
            refit = fit_null(family, dataset.y, dataset.x_e)
            held = _workspace_arrays()
            assert len(held) >= 3
        for result in (fit, refit):
            returned += [result.coef, result.mu_e, result.residuals, result.variance_diag]
            returned.append(result.hat_basis)
        for array in returned:
            assert not any(np.shares_memory(array, buffer) for buffer in held)

    def test_threads_keep_their_own_workspace(self):
        configs = [_small_config(schemes=tuple(ResamplingScheme), k=4, b=1100)]
        configs.append(replace(configs[0], master_seed=7))
        serial = [
            {s: c.alpha_hat.tobytes() for s, c in run_study(config).per_scheme.items()}
            for config in configs
        ]
        start, threaded = threading.Barrier(len(configs)), [None] * len(configs)

        def run(i):
            start.wait()
            per_scheme = run_study(configs[i]).per_scheme
            threaded[i] = {s: c.alpha_hat.tobytes() for s, c in per_scheme.items()}

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert threaded == serial


class TestRealFields:
    @pytest.mark.parametrize(
        "value", ["0.05", None, True, np.bool_(True), float("nan"), float("inf")]
    )
    def test_rejects_an_alpha_that_is_not_a_finite_real(self, value):
        sim = SimulationConfig(n=30, m=3, family=Family.NORMAL, seed=1)
        with pytest.raises(ConfigError, match="alpha must be a finite real number"):
            StudyConfig(sim=sim, schemes=(ResamplingScheme.RAW_Y,), k=1, b=1, alpha=value)

    def test_numpy_reals_hash_and_run_as_python_floats(self):
        def config(real):
            sim = SimulationConfig(
                n=30, m=3, family=Family.NORMAL, beta_e=real(0.5), rho=real(0.25)
            )
            return StudyConfig(
                sim=sim, schemes=(ResamplingScheme.FREEDMAN_LANE,), k=2, b=20, alpha=real(0.25)
            )

        hashes = {run_study(config(real)).config_hash for real in (float, np.float64, np.float32)}
        assert hashes == {study.config_digest(config(float))}
        assert config(np.float32).alpha.dtype == np.float32  # stored as given
