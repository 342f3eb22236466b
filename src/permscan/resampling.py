"""Resampling schemes and maxT calibration.

Six ways to generate the null distribution of the maximal absolute score
statistic:

* ``RAW_Y`` permutes the raw response, refits the null mean on every
  permuted response and recomputes the score numerators against the
  original denominators. Exact when the response itself is exchangeable;
  increasingly conservative as the covariate effect grows, because the
  permuted numerator carries the full marginal response variance against
  denominators calibrated to the conditional one.
* ``FREEDMAN_LANE`` permutes the residual projection of the response
  (reduced-model residual permutation).
* ``MODIFIED_MODEL`` maps the response into the (n - d)-dimensional residual
  space through an orthonormal basis and permutes there, which makes the
  transformed response second-moment exchangeable.
* ``FULL_MODEL_RESIDUALS`` permutes the residuals of the model that includes
  the markers (ter Braak style, permutation under the alternative).
* ``STANDARDIZED_RESIDUALS`` scales the null residuals by the inverse square
  root of the estimated response variance and rescales the markers to match;
  this is the scheme intended for non-normal families and coincides with
  Freedman-Lane for the normal family.
* ``PARAMETRIC_BOOTSTRAP`` draws new responses from the fitted null
  distribution and refits the model (denominators included) on every
  replicate.

Every scheme is one *row source* feeding one *evaluator*. The row source
draws a replicate row: a permutation of a fixed base vector (the four
transform schemes and raw-y), N(0, I) noise (normal bootstrap) or
Bernoulli(mu_e) responses (binomial bootstrap). The evaluator maps a block
of rows to a block of statistics and is one of two kinds:

* a fixed linear map. For the transform schemes it is ``x_tilde``, with the
  per-dataset denominators computed once. Refitting a permuted normal
  response is a projection, so normal raw-y is the map (I - H) x_g / denom.
  The normal bootstrap statistic depends on neither mu_e nor phi_hat: it is
  z (I - H) x_g / unit_denom with each row divided by its residual standard
  error ||(I - H) z|| / sqrt(n - d);
* a binomial refit by batch IRLS: of the mean only against the observed
  denominators (raw-y), or of the mean, variance weights and denominators
  (bootstrap).

Replicates are drawn in fixed blocks of ``_CHUNK``, in replicate order,
each block from one counter-based stream in the resampling lane of
``rng`` (whose docstring lays out every key), so replicate r is the same
row whatever the number of replicates. A row whose binomial refit fails
(separation, non-convergence, a singular system) is redrawn, at most
``MAX_REPLICATE_RETRIES`` times, each attempt from its own stream. Test
hooks replace the draws with fixed rows: the base row (``force_identity``)
or all of its permutations (``exhaustive``). A fixed row is never redrawn,
so its failed refit raises at once.
"""

import enum
import math
import warnings
from dataclasses import dataclass
from itertools import permutations as _all_permutations
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    InsufficientReplicatesError,
    InvalidCorrelationError,
    ReplicateFailureError,
)
from .glm import Family, batch_solve, binomial_irls, fit_null
from .rng import MONTE_CARLO_LANE, RESAMPLING_LANE, substream
from .score import DEGENERATE_TOL, degenerate, score_denominators, two_sided_p

__all__ = [
    "ResamplingScheme",
    "MaxTDistribution",
    "CutoffResult",
    "Transform",
    "exchangeable_transform",
    "replicate_statistics",
    "replicate_matrix",
    "maxt_cutoff",
    "cutoff_ci",
    "per_dataset_fwer",
    "bonferroni_sidak",
    "mc_mvn_alpha_loc",
    "McAlphaLoc",
]

MAX_REPLICATE_RETRIES = 10
EXHAUSTIVE_LENGTH_LIMIT = 8
# Confidence level of maxt_cutoff's order-statistic interval.
CUTOFF_CONF = 0.95
# Bootstrap resamples behind mc_mvn_alpha_loc's standard error.
MC_BOOTSTRAPS = 100
# Replicates per random stream. Part of the stream definition: changing it
# changes every draw. Fixed blocks keep replicate r the same for any b.
_CHUNK = 1024


class ResamplingScheme(enum.Enum):
    RAW_Y = "raw-y"
    FREEDMAN_LANE = "freedman-lane"
    MODIFIED_MODEL = "modified-model"
    FULL_MODEL_RESIDUALS = "full-model-residuals"
    STANDARDIZED_RESIDUALS = "standardized-residuals"
    PARAMETRIC_BOOTSTRAP = "parametric-bootstrap"

    @property
    def refits_per_replicate(self):
        """True for schemes that refit the null mean inside every replicate."""
        return self in (ResamplingScheme.RAW_Y, ResamplingScheme.PARAMETRIC_BOOTSTRAP)

    def permuted_length(self, n, d):
        """Length of the vector the scheme permutes."""
        if self is ResamplingScheme.MODIFIED_MODEL:
            return n - d
        return n


# Schemes whose exchangeability argument assumes the normal linear model.
_NORMAL_THEORY_SCHEMES = (
    ResamplingScheme.FREEDMAN_LANE,
    ResamplingScheme.MODIFIED_MODEL,
    ResamplingScheme.FULL_MODEL_RESIDUALS,
)


class Transform(NamedTuple):
    """Scheme-specific pair: replicate statistics are ``(P y_tilde) @ x_tilde``."""

    y_tilde: np.ndarray
    x_tilde: np.ndarray


@dataclass(frozen=True)
class MaxTDistribution:
    """Sorted replicate maxima of the absolute score statistics."""

    max_stats: np.ndarray
    b: int
    scheme: ResamplingScheme
    seed: int
    exhaustive: bool = False

    def __post_init__(self):
        stats = np.asarray(self.max_stats, dtype=float)
        if stats.shape != (self.b,):
            raise ValueError(f"expected {self.b} replicate maxima, got {stats.shape}")
        if np.any(np.diff(stats) < 0):
            raise ValueError("max_stats must be sorted ascending")
        stats.flags.writeable = False
        object.__setattr__(self, "max_stats", stats)


@dataclass(frozen=True)
class CutoffResult:
    """MaxT cutoff with its order-statistic confidence interval.

    ``c`` is the smallest realized order statistic whose exceedance
    proportion (``per_dataset_fwer``'s rule) stays at or below ``alpha``
    (``eq_index``, 1-based). When no order statistic achieves the bound
    (fully degenerate distributions) ``c`` falls back to the plain
    ceil(B * (1 - alpha)) order statistic, which is always reported
    alongside as ``quantile_index`` / ``quantile_value``.
    """

    c: float
    ci_low: float
    ci_high: float
    alpha_loc: float
    alpha: float
    quantile_index: int
    quantile_value: float
    eq_index: int | None
    eq_satisfied: bool


class McAlphaLoc(NamedTuple):
    """Monte Carlo local-level estimate with bootstrap standard error."""

    alpha_loc: float
    se: float
    c: float


def _warn_family_mismatch(scheme, fit):
    if fit.family is not Family.NORMAL and scheme in _NORMAL_THEORY_SCHEMES:
        warnings.warn(
            f"scheme {scheme.value!r} relies on normal linear-model residual "
            "theory; the standardized-residuals scheme is the intended "
            "analogue for this family",
            UserWarning,
            stacklevel=3,
        )


def exchangeable_transform(scheme, fit, dataset):
    """Build the (y_tilde, x_tilde) pair whose permutations reproduce the
    scheme's replicate statistics with fixed denominators.

    Refit-per-replicate schemes (raw-y, parametric bootstrap) have no fixed
    transform and are rejected here.
    """
    if scheme.refits_per_replicate:
        raise ConfigError(
            f"scheme {scheme.value!r} refits per replicate and has no fixed "
            "exchangeable transform"
        )
    n, m, d = dataset.n, dataset.m, dataset.d
    if scheme is ResamplingScheme.FULL_MODEL_RESIDUALS and n <= m + d:
        raise ConfigError(
            "scheme 'full-model-residuals' fits all markers jointly and needs "
            f"n > m + d observations; got n={n}, m={m}, d={d}"
        )
    if scheme is ResamplingScheme.MODIFIED_MODEL and n - d < 2:
        raise ConfigError(
            "scheme 'modified-model' permutes in the (n - d)-dimensional "
            f"residual space and needs n - d >= 2; got n={n}, d={d}"
        )
    _warn_family_mismatch(scheme, fit)
    denom = score_denominators(fit, dataset.x_g)
    x_g = dataset.x_g
    if scheme is ResamplingScheme.FREEDMAN_LANE:
        y_t = dataset.y - fit.hat_apply(dataset.y)
        x_t = x_g / denom
    elif scheme is ResamplingScheme.MODIFIED_MODEL:
        q = fit.q_factor()
        y_t = q.T @ dataset.y
        x_t = (q.T @ x_g) / denom
    elif scheme is ResamplingScheme.STANDARDIZED_RESIDUALS:
        root_var = np.sqrt(fit.variance_diag)
        y_t = fit.residuals / root_var
        x_t = (root_var[:, None] * x_g) / denom
    else:  # FULL_MODEL_RESIDUALS
        full = fit_null(fit.family, dataset.y, np.hstack([dataset.x_e, x_g]))
        y_t = full.residuals
        x_t = x_g / denom
    return Transform(y_tilde=y_t, x_tilde=x_t)


class _Kernel(NamedTuple):
    """A scheme's replicate machinery: ``draw(gen, rows)`` returns a
    (rows, length) block of replicate rows, ``base`` is the identity
    replicate's row, and ``evaluate(block)`` maps a block to its (rows, m)
    statistics and a mask of the rows whose refit succeeded."""

    base: np.ndarray
    draw: Callable
    evaluate: Callable


def _permuting(base, evaluate):
    def draw(gen, rows):
        block = np.tile(base, (rows, 1))
        return gen.permuted(block, axis=1, out=block)

    return _Kernel(base, draw, evaluate)


def _linear(x_map, hat_basis=None):
    """Evaluator ``rows @ x_map``. Given ``hat_basis``, each row is also
    divided by its residual standard error ||(I - H) row|| / sqrt(n - d)."""

    def evaluate(rows):
        stats = rows @ x_map
        if hat_basis is not None:
            n, d = hat_basis.shape
            resid = rows - (rows @ hat_basis) @ hat_basis.T
            stats /= np.sqrt(np.einsum("bn,bn->b", resid, resid) / (n - d))[:, None]
        return stats, np.ones(rows.shape[0], dtype=bool)

    return evaluate


def _binomial_refit(x_e, x_g, denom):
    """Evaluator that refits the binomial null mean on every row. With the
    observed ``denom`` only the mean is refit; with ``denom=None`` the
    variance weights and denominators are recomputed too."""

    def evaluate(rows):
        fit = binomial_irls(x_e, rows)
        mu, ok = fit.mu, fit.ok
        row_denom = denom
        if denom is None:
            row_denom, denom_ok = _refit_denominators(x_e, x_g, mu)
            ok &= denom_ok
        return ((rows - mu) @ x_g) / row_denom, ok

    return evaluate


def _refit_denominators(x_e, x_g, mu):
    """Score denominators of each row of fitted probabilities ``mu`` and the
    mask of rows with a regular system and no degenerate marker. Returning
    frees the (rows, d, m) intermediates before the statistics are formed."""
    w = mu * (1.0 - mu)
    term1 = w @ (x_g**2)
    cross = np.einsum("ni,bn,nj->bij", x_e, w, x_g, optimize=True)
    a = np.einsum("ni,bn,nj->bij", x_e, w, x_e, optimize=True)
    sol, ok = batch_solve(a, cross)
    denom_sq = term1 - np.einsum("bij,bij->bj", cross, sol)
    ok &= ~degenerate(denom_sq, term1).any(axis=1)
    return np.sqrt(np.maximum(denom_sq, DEGENERATE_TOL**2)), ok


def _kernel(scheme, fit, dataset):
    """Base row, draw and evaluator of ``scheme`` on ``dataset``."""
    if not scheme.refits_per_replicate:
        transform = exchangeable_transform(scheme, fit, dataset)
        return _permuting(transform.y_tilde, _linear(transform.x_tilde))
    x_g, n = dataset.x_g, dataset.n
    denom = score_denominators(fit, x_g)  # rejects degenerate markers up front
    bootstrap = scheme is ResamplingScheme.PARAMETRIC_BOOTSTRAP
    if fit.family is Family.NORMAL:
        resid_x = x_g - fit.hat_apply(x_g)
        if not bootstrap:
            return _permuting(dataset.y, _linear(resid_x / denom))
        unit_denom = np.sqrt(np.einsum("ij,ij->j", resid_x, resid_x))
        return _Kernel(
            fit.residuals / math.sqrt(fit.phi_hat),
            lambda gen, rows: gen.standard_normal((rows, n)),
            _linear(resid_x / unit_denom, fit.hat_basis),
        )
    if not bootstrap:
        return _permuting(dataset.y, _binomial_refit(fit.x_e, x_g, denom))
    return _Kernel(
        dataset.y,
        lambda gen, rows: (gen.random((rows, n)) < fit.mu_e).astype(float),
        _binomial_refit(fit.x_e, x_g, None),
    )


def _statistics(kernel, seed, path, b, fixed=None):
    """Yield the (rows, m) statistics of replicates 0..b-1, block by block
    in replicate order.

    ``path`` names the dataset; block j and each attempt to redraw a failed
    replicate draw from their own stream in its resampling lane (``rng``
    lays out the keys). Given a ``fixed`` (b, length) index array the rows
    are gathered from ``kernel.base``, and a fixed row is never redrawn, so
    its failed refit raises at once.
    """
    path = (*path, RESAMPLING_LANE)
    for lo in range(0, b, _CHUNK):
        hi = min(lo + _CHUNK, b)
        if fixed is None:
            rows = kernel.draw(substream(seed, *path, lo // _CHUNK), hi - lo)
        else:
            rows = kernel.base[fixed[lo:hi]]
        stats, ok = kernel.evaluate(rows)
        failed = np.flatnonzero(~ok)
        for attempt in range(1, MAX_REPLICATE_RETRIES + 1):
            if fixed is not None or not failed.size:
                break
            gens = (substream(seed, *path, lo + i, attempt) for i in failed)
            retry_stats, ok = kernel.evaluate(np.vstack([kernel.draw(g, 1) for g in gens]))
            stats[failed] = retry_stats
            failed = failed[~ok]
        if failed.size:
            r = lo + int(failed[0])
            how = "to refit" if fixed is not None else f"after {MAX_REPLICATE_RETRIES} retries"
            raise ReplicateFailureError(f"replicate {r} failed {how}", replicate=r)
        yield stats


def replicate_statistics(
    scheme,
    fit,
    dataset,
    b,
    seed,
    *,
    stream_path=(),
    exhaustive=False,
    force_identity=False,
):
    """Generate the maxT null distribution for ``scheme``.

    ``b`` replicates are drawn in blocks of ``_CHUNK`` from the resampling
    lane of the dataset that ``stream_path`` names (``rng`` lays out the
    keys); the blocks run serially in replicate order. ``exhaustive``
    enumerates all permutations (tiny problems only; ``b`` is ignored) and
    ``force_identity`` replaces every draw with the identity
    permutation/resample; both are test hooks.
    """
    fixed = None
    length = scheme.permuted_length(dataset.n, dataset.d)
    if exhaustive:
        if length > EXHAUSTIVE_LENGTH_LIMIT:
            raise ConfigError(
                f"exhaustive mode enumerates {length}! permutations; "
                f"limited to length <= {EXHAUSTIVE_LENGTH_LIMIT}"
            )
        if scheme is ResamplingScheme.PARAMETRIC_BOOTSTRAP:
            raise ConfigError("exhaustive mode is defined for permutation schemes only")
        fixed = np.array(list(_all_permutations(range(length))), dtype=np.intp)
        b = len(fixed)
    elif b < 1:
        raise ConfigError("need at least one replicate")
    elif force_identity:
        fixed = np.broadcast_to(np.arange(length), (b, length))
    kernel = _kernel(scheme, fit, dataset)
    maxima = np.concatenate(
        [np.max(np.abs(s), axis=1) for s in _statistics(kernel, seed, stream_path, b, fixed)]
    )
    return MaxTDistribution(np.sort(maxima), b, scheme, seed, exhaustive=exhaustive)


def replicate_matrix(scheme, fit, dataset, b, seed, *, stream_path=()):
    """Full (b, m) matrix of replicate statistics.

    Diagnostic helper: the blocks of ``replicate_statistics`` stacked
    without the reduction to maxima, so row r is replicate r.
    """
    if b < 1:
        raise ConfigError("need at least one replicate")
    kernel = _kernel(scheme, fit, dataset)
    return np.vstack(list(_statistics(kernel, seed, stream_path, b)))


def _exceedance(dist, values):
    """Proportion of replicate maxima at or above each of ``values``: plus-one
    corrected, except in the exhaustive mode, whose permutations already
    include the identity."""
    counts = dist.b - np.searchsorted(dist.max_stats, values, side="left")
    if dist.exhaustive:
        return counts / dist.b
    return (counts + 1) / (dist.b + 1)


def per_dataset_fwer(dist, observed):
    """Exceedance proportion of the observed maximum among the replicate maxima."""
    return float(_exceedance(dist, observed.max_abs_t))


def check_cutoff_request(b, alpha):
    """Raise unless ``b`` replicates can give a cutoff at FWER level
    ``alpha``: ``alpha`` in (0, 1) and at least one replicate above the
    ceil(b(1 - alpha)) order statistic. Callers check before resampling."""
    if b < 1:
        raise ConfigError("need at least one replicate")
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must be in (0, 1)")
    if b * (1.0 - alpha) < 1.0:
        raise InsufficientReplicatesError(
            f"B={b} replicates cannot resolve the {1 - alpha:.4g} quantile"
        )


def maxt_cutoff(dist, alpha):
    """Estimate the rejection cutoff for FWER level ``alpha``.

    ``c`` is the smallest realized order statistic whose exceedance
    proportion (as in ``per_dataset_fwer``) is at or below ``alpha``; the
    plain ceil(B(1-alpha)) quantile index is recorded alongside (the two
    differ by a couple of indices; the exceedance form is the
    validity-preserving choice). The local level is 2 * Phi(-c) and the
    CUTOFF_CONF order-statistic confidence interval for the quantile is
    attached.
    """
    b = dist.b
    check_cutoff_request(b, alpha)
    stats = dist.max_stats
    quantile_index = math.ceil(b * (1.0 - alpha))
    quantile_value = float(stats[quantile_index - 1])

    satisfies = _exceedance(dist, stats) <= alpha
    if satisfies.any():
        eq_index = int(np.argmax(satisfies)) + 1
        c = float(stats[eq_index - 1])
        eq_satisfied = True
    else:
        eq_index = None
        c = quantile_value
        eq_satisfied = False
    ci_low, ci_high = cutoff_ci(dist, 1.0 - alpha, CUTOFF_CONF)
    return CutoffResult(
        c=c,
        ci_low=ci_low,
        ci_high=ci_high,
        alpha_loc=two_sided_p(c),
        alpha=alpha,
        quantile_index=quantile_index,
        quantile_value=quantile_value,
        eq_index=eq_index,
        eq_satisfied=eq_satisfied,
    )


def _binomial_log_pmf(b, q):
    k = np.arange(b + 1)
    log_factorial = np.array([math.lgamma(v + 1) for v in k])
    log_choose = log_factorial[b] - log_factorial - log_factorial[::-1]
    return log_choose + k * math.log(q) + (b - k) * math.log1p(-q)


def cutoff_ci(dist, q, conf):
    """Order-statistic confidence interval for the ``q`` quantile.

    Searches for the smallest symmetric index window around ceil(B q) whose
    exact binomial coverage reaches ``conf``, evaluating the Binomial(B, q)
    distribution in log space. Returns the order statistics at the window
    ends (indices clamped to [1, B]); falls back to the full range with a
    warning when even that window cannot reach ``conf``.
    """
    if not 0.0 < q < 1.0:
        raise ConfigError("quantile level must be in (0, 1)")
    if not 0.0 < conf < 1.0:
        raise ConfigError("confidence level must be in (0, 1)")
    b = dist.b
    stats = dist.max_stats
    center = math.ceil(b * q)
    cdf = np.cumsum(np.exp(_binomial_log_pmf(b, q)))  # 0-indexed by count
    for delta in range(b + 1):
        r = max(center - delta, 1)
        s = min(center + delta, b)
        # P(r <= W <= s) with W ~ Binomial(b, q).
        if cdf[s] - cdf[r - 1] >= conf:
            return float(stats[r - 1]), float(stats[s - 1])
        if r == 1 and s == b:
            break
    warnings.warn(
        "order-statistic interval could not reach the requested confidence; "
        "returning the full sample range",
        UserWarning,
        stacklevel=2,
    )
    return float(stats[0]), float(stats[-1])


def bonferroni_sidak(m, alpha):
    """Closed-form local levels: (alpha / m, 1 - (1 - alpha)^(1/m))."""
    if m < 1:
        raise ConfigError("m must be at least 1")
    return alpha / m, 1.0 - (1.0 - alpha) ** (1.0 / m)


def check_mc_draws(draws):
    """Raise unless ``draws`` is at least 2; callers check before resampling."""
    if draws < 2:
        raise ConfigError("need at least two Monte Carlo draws")


def mc_mvn_alpha_loc(correlation, alpha, draws, seed):
    """Monte Carlo local level under a multivariate normal score vector.

    Samples ``draws`` vectors from N(0, R) through the symmetric square
    root of ``R``, estimates the cutoff as the empirical (1 - alpha)
    quantile of the maximal absolute component and returns
    2 * Phi(-cutoff) with a standard error from MC_BOOTSTRAPS bootstrap
    resamples of the draws. Both draw from the Monte Carlo lane of ``seed``.
    """
    r = np.asarray(getattr(correlation, "r", correlation), dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ConfigError("correlation must be a square matrix")
    check_mc_draws(draws)
    eigenvalues, eigenvectors = np.linalg.eigh(r)
    if eigenvalues.min() < -1e-8:
        raise InvalidCorrelationError(
            f"correlation matrix has eigenvalue {eigenvalues.min():.3g} < -1e-8"
        )
    factor = (eigenvectors * np.sqrt(np.clip(eigenvalues, 0.0, None))) @ eigenvectors.T
    m = r.shape[0]
    gen = substream(seed, MONTE_CARLO_LANE, 0)
    max_abs = np.empty(draws)
    block = max(1, min(draws, 65536 // max(m, 1) * 16))
    for lo in range(0, draws, block):
        hi = min(lo + block, draws)
        z = gen.standard_normal((hi - lo, m))
        max_abs[lo:hi] = np.max(np.abs(z @ factor), axis=1)
    c = float(np.quantile(max_abs, 1.0 - alpha))
    alpha_loc = two_sided_p(c)
    boot_gen = substream(seed, MONTE_CARLO_LANE, 1)
    boot = np.empty(MC_BOOTSTRAPS)
    for i in range(MC_BOOTSTRAPS):
        idx = boot_gen.integers(0, draws, size=draws)
        boot[i] = two_sided_p(np.quantile(max_abs[idx], 1.0 - alpha))
    return McAlphaLoc(alpha_loc=alpha_loc, se=float(np.std(boot, ddof=1)), c=c)
