"""Monte Carlo calibration studies.

Simulates K independent complete-null datasets, resamples each one B times
under every requested scheme, and aggregates the per-dataset familywise
error estimates

    alpha_hat_k = (#(replicate max >= observed max) + 1) / (B + 1)

into the rejection proportion alpha_tilde = #(alpha_hat_k <= alpha) / K with
a 1.96-sigma Wald interval. Dataset k draws all of its randomness from
streams keyed by (master_seed, k, lane, ...) as ``rng`` lays out, so results
are reproducible for any worker count and insensitive to completion order.
"""

import ctypes
import hashlib
import json
import threading
import time
import warnings
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, PermscanError, check_integer, check_real
from .glm import fit_null
from .resampling import (
    ResamplingScheme,
    check_cutoff_request,
    check_mc_draws,
    maxt_cutoff,
    mc_mvn_alpha_loc,
    per_dataset_fwer,
    replicate_statistics,
    replicate_workspace,
)
from .score import score_correlation, score_statistics
from .simulate import SimulationConfig, check_integers, simulate_dataset

__all__ = [
    "StudyConfig",
    "SchemeCalibration",
    "StudyResult",
    "AlphaLocResult",
    "run_study",
    "wald_ci",
    "alpha_loc_study",
    "table_rows",
]

WALD_Z = 1.96


@dataclass(frozen=True)
class StudyConfig:
    """K-dataset x B-replicate study description.

    ``master_seed`` governs every stream in the study; the seed field of
    ``sim`` is ignored. ``workers`` bounds the size of the process pool over
    datasets (the pool never exceeds ``k``); every process runs its datasets
    on one BLAS thread, so the worker count never changes numeric results.
    The one thread is set by writing OpenBLAS's process-wide thread count,
    which starts no thread pool (see ``run_study``).
    """

    sim: SimulationConfig
    schemes: tuple[ResamplingScheme, ...]
    k: int
    b: int
    alpha: float = 0.05
    workers: int = 1
    master_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.sim, SimulationConfig):
            raise ConfigError(f"sim must be a SimulationConfig, got {self.sim!r}")
        try:
            object.__setattr__(self, "schemes", tuple(self.schemes))
        except TypeError:
            raise ConfigError(f"schemes must be iterable, got {self.schemes!r}") from None
        check_integers(self, k=1, b=1, workers=1, master_seed=0)
        if not self.schemes:
            raise ConfigError("at least one resampling scheme is required")
        for scheme in self.schemes:
            if not isinstance(scheme, ResamplingScheme):
                raise ConfigError(f"scheme must be a ResamplingScheme, got {scheme!r}")
        check_real("alpha", self.alpha)
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must be in (0, 1)")


@dataclass(frozen=True)
class SchemeCalibration:
    """Aggregated calibration of one scheme over the K datasets.

    ``seconds`` is the scheme's wall time summed over the datasets. The
    permuting schemes of a dataset share one index block per permuted
    length and block, and the first of them in ``config.schemes`` pays for
    drawing it.
    """

    scheme: ResamplingScheme
    alpha_hat: np.ndarray
    alpha_tilde: float
    ci_low: float
    ci_high: float
    seconds: float


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    per_scheme: dict
    config_hash: str


@dataclass(frozen=True)
class AlphaLocResult:
    """Single-dataset local-level estimate for one scheme."""

    scheme: ResamplingScheme
    cutoff: object
    observed_max: float
    mc_check: object | None


def config_digest(config):
    """Stable hex digest of the resolved study configuration."""
    payload = {
        "family": config.sim.family.value,
        "n": config.sim.n,
        "m": config.sim.m,
        "beta_e": config.sim.beta_e,
        "rho": config.sim.rho,
        "maf_range": list(config.sim.maf_range),
        "schemes": [s.value for s in config.schemes],
        "k": config.k,
        "b": config.b,
        "alpha": config.alpha,
        "master_seed": config.master_seed,
    }
    blob = json.dumps(payload, sort_keys=True, default=float).encode()  # numpy floats too
    return hashlib.sha256(blob).hexdigest()[:16]


def wald_ci(alpha_tilde, k):
    """1.96-sigma Wald interval for a proportion, clamped to [0, 1]."""
    half = WALD_Z * np.sqrt(alpha_tilde * (1.0 - alpha_tilde) / k)
    return max(0.0, alpha_tilde - half), min(1.0, alpha_tilde + half)


@cache
def _openblas():
    """numpy's bundled OpenBLAS, or None when numpy uses another BLAS. Its
    ``blas_cpu_number`` is bound to OpenBLAS's thread count, the variable
    that ``scipy_openblas_get_num_threads64_`` returns."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            lib.blas_cpu_number = ctypes.c_int.in_dll(lib, "blas_cpu_number")
        except (OSError, ValueError):
            continue
        return lib
    return None


def _pin_blas():
    """Put numpy's OpenBLAS on one thread unless it already is (pool worker
    initializer); return the count it replaced, or None if it set nothing.

    The count is written to OpenBLAS's thread count variable, which starts
    and stops no thread: a spawn or forkserver worker starts at the default
    count and is pinned, and its pool's threads go idle; a forked worker
    inherits the caller's pin and is left alone.
    """
    lib = _openblas()
    if lib is None:
        return None
    previous = lib.blas_cpu_number.value
    if previous == 1:
        return None
    lib.blas_cpu_number.value = 1
    return previous


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_previous = None


@contextmanager
def _one_blas_thread():
    """Run the block on one BLAS thread and restore the caller's count after.

    A matmul's last bits depend on the BLAS thread count, so pinning every
    process of a study to one thread makes its results the same for any
    worker count by construction, and keeps pool workers from contending
    for cores with BLAS threads. The count is process-wide, so the pin has
    one owner: the first block to enter pins and records the caller's
    count, and the last to leave writes back a count that was changed.
    The write starts no thread pool; the caller's next threaded BLAS call
    starts the one that a fork shut down. Without numpy's bundled OpenBLAS
    this does nothing.
    """
    global _pin_depth, _pin_previous
    with _pin_lock:
        if _pin_depth == 0:
            _pin_previous = _pin_blas()
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0 and _pin_previous is not None:
                _openblas().blas_cpu_number.value = _pin_previous


def _dataset_alpha_hats(config, k):
    """alpha_hat_k for every scheme on dataset k (worker task), with the
    warnings the dataset raised. They are recorded under the caller's
    filters, so a filter that turns a warning into an error raises here."""
    sim = replace(config.sim, seed=config.master_seed)
    try:
        with warnings.catch_warnings(record=True) as caught:
            simulated = simulate_dataset(sim, stream_path=(k,))
            dataset = simulated.dataset
            fit = fit_null(sim.family, dataset.y, dataset.x_e)
            observed = score_statistics(fit, dataset.x_g)
            alpha_hats = {}
            seconds = {}
            for scheme in config.schemes:
                start = time.perf_counter()
                dist = replicate_statistics(
                    scheme, fit, dataset, config.b, config.master_seed, stream_path=(k,)
                )
                alpha_hats[scheme] = per_dataset_fwer(dist, observed)
                seconds[scheme] = time.perf_counter() - start
    except PermscanError as exc:
        # Re-raise the same object so that its type and context attributes
        # (replicate, marker, row, column) survive the prefix.
        exc.args = (f"dataset {k}: {exc}",)
        raise
    return k, alpha_hats, seconds, [w.message for w in caught]


def ProcessPoolExecutor(*args, **kwargs):
    """``concurrent.futures.ProcessPoolExecutor``, imported on first call so
    that a process that starts no pool never loads ``multiprocessing``."""
    from concurrent.futures import ProcessPoolExecutor as executor

    return executor(*args, **kwargs)


def run_study(config):
    """Run the full K x B study described by ``config``.

    Datasets are independent units of work; with ``workers > 1`` they are
    dispatched to a process pool of ``min(workers, k)`` processes, the
    package's only parallel layer. The calling process and every pool worker
    run on one BLAS thread for the whole loop. The count is OpenBLAS's
    process-wide variable, so while any study runs, BLAS calls in the
    caller's other threads run on one thread too; the last study to return
    or raise writes the caller's count back. A write starts no BLAS thread
    pool: the caller's next threaded BLAS call starts the one that forking
    the workers shut down. Aggregation is keyed by dataset index, so the
    result is identical for any worker count.
    Each distinct warning the datasets raise is emitted once, whatever the
    worker count.
    The loop runs in one ``replicate_workspace``, which holds the replicate
    buffers (index blocks, drawn rows, refit residuals, IRLS and whitening
    blocks; about 8 x rows x n bytes each) until the study returns or
    raises. Forked pool workers inherit it; other workers allocate per block.
    """
    alpha_hat = {scheme: np.empty(config.k) for scheme in config.schemes}
    seconds = {scheme: 0.0 for scheme in config.schemes}
    task = partial(_dataset_alpha_hats, config)
    workers = min(config.workers, config.k)
    emitted = set()
    with ExitStack() as stack:
        stack.enter_context(_one_blas_thread())
        stack.enter_context(replicate_workspace())
        results = map(task, range(config.k))
        if workers > 1:
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=workers, initializer=_pin_blas)
            )
            chunk = max(1, config.k // (workers * 8))
            results = pool.map(task, range(config.k), chunksize=chunk)
        for k, hats, secs, caught in results:
            for scheme in config.schemes:
                alpha_hat[scheme][k] = hats[scheme]
                seconds[scheme] += secs[scheme]
            for message in caught:
                key = (type(message), str(message))
                if key not in emitted:
                    emitted.add(key)
                    warnings.warn(message, stacklevel=2)

    per_scheme = {}
    for scheme in config.schemes:
        hats = alpha_hat[scheme]
        hats.flags.writeable = False
        alpha_tilde = float(np.count_nonzero(hats <= config.alpha)) / config.k
        low, high = wald_ci(alpha_tilde, config.k)
        per_scheme[scheme] = SchemeCalibration(
            scheme=scheme,
            alpha_hat=hats,
            alpha_tilde=alpha_tilde,
            ci_low=low,
            ci_high=high,
            seconds=seconds[scheme],
        )
    return StudyResult(
        config=config, per_scheme=per_scheme, config_hash=config_digest(config)
    )


def alpha_loc_study(sim, scheme, b, alpha=0.05, *, mc_draws=0, mc_seed=1):
    """Estimate the local significance level from one simulated dataset.

    Simulates a single dataset from ``sim``, resamples it ``b`` times under
    ``scheme`` and returns the maxT cutoff result (local level plus
    order-statistic confidence interval). With ``mc_draws > 0`` the realized
    score correlation matrix is also fed to the multivariate-normal Monte
    Carlo estimator as an independent cross-check.
    """
    check_cutoff_request(b, alpha)
    if mc_draws:
        check_mc_draws(mc_draws)
        check_integer("mc_seed", mc_seed, 0)
    simulated = simulate_dataset(sim)
    dataset = simulated.dataset
    fit = fit_null(sim.family, dataset.y, dataset.x_e)
    observed = score_statistics(fit, dataset.x_g)
    dist = replicate_statistics(scheme, fit, dataset, b, sim.seed)
    cutoff = maxt_cutoff(dist, alpha)
    mc_check = None
    if mc_draws:
        correlation = score_correlation(fit, dataset.x_g)
        mc_check = mc_mvn_alpha_loc(correlation, alpha, mc_draws, mc_seed)
    return AlphaLocResult(
        scheme=scheme,
        cutoff=cutoff,
        observed_max=observed.max_abs_t,
        mc_check=mc_check,
    )


def table_rows(result):
    """Flatten a StudyResult into one row per scheme.

    Row keys follow the emitted table schema: scheme, family, beta_e, n, m,
    K, B, alpha_tilde, ci_low, ci_high, seconds, config_hash.
    """
    sim = result.config.sim
    rows = []
    for scheme in result.config.schemes:
        cal = result.per_scheme[scheme]
        rows.append(
            {
                "scheme": scheme.value,
                "family": sim.family.value,
                "beta_e": sim.beta_e,
                "n": sim.n,
                "m": sim.m,
                "K": result.config.k,
                "B": result.config.b,
                "alpha_tilde": cal.alpha_tilde,
                "ci_low": cal.ci_low,
                "ci_high": cal.ci_high,
                "seconds": cal.seconds,
                "config_hash": result.config_hash,
            }
        )
    return rows
