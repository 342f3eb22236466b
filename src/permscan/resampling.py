"""Resampling schemes and maxT calibration.

Six ways to generate the null distribution of the maximal absolute score
statistic:

* ``RAW_Y`` permutes the raw response, refits the null mean on every
  permuted response and keeps the observed denominators. Exact when the
  response itself is exchangeable; increasingly conservative as the
  covariate effect grows, since the permuted numerator carries the marginal
  response variance against denominators calibrated to the conditional one.
* ``FREEDMAN_LANE`` permutes the reduced-model residuals of the response.
* ``MODIFIED_MODEL`` maps the response into the (n - d)-dimensional residual
  space through an orthonormal basis and permutes there, which makes it
  second-moment exchangeable.
* ``FULL_MODEL_RESIDUALS`` permutes the residuals of the model that includes
  the markers (ter Braak style, permutation under the alternative).
* ``STANDARDIZED_RESIDUALS`` scales the null residuals by the inverse root
  of the estimated response variance and rescales the markers to match: the
  scheme for non-normal families, equal to Freedman-Lane for the normal one.
* ``PARAMETRIC_BOOTSTRAP`` draws new responses from the fitted null
  distribution and refits everything, denominators included, per replicate.

Every scheme is one *row source* feeding one *evaluator*. A replicate row is
a permutation of a fixed base vector (the four transform schemes and raw-y),
gathered from a block of permutation indices, or a bootstrap draw: N(0, I)
noise (normal) or Bernoulli(mu_e) responses (binomial). The evaluator is a
marker-free *row fit* of a block of rows followed by a *marker map* that
turns one block of ``_MARKER_BLOCK`` marker columns at a time into
statistics, so no (rows, m) array is held unless ``replicate_matrix`` asks
for one. It is one of two kinds:

* a fixed linear map: ``x_tilde`` for the transform schemes, with the
  per-dataset denominators computed once, and no row fit. Refitting a
  permuted normal response is a projection, so normal raw-y is
  (I - H) x_g / denom. The normal bootstrap statistic depends on neither
  mu_e nor phi_hat: it is z (I - H) x_g / unit_denom with each row divided
  by its residual standard error ||(I - H) z|| / sqrt(n - d), which is its
  row fit. Each map is built one marker block at a time from the int8
  ``x_g`` and dropped after its block, so no n x m float matrix is held.
  Modified-model is the exception: its Q' x_g takes all n rows of every
  column through the dense residual basis Q, so its (n - d) x m map is
  built once per replicate call;
* a binomial refit: the row fit is one batch IRLS of the whole block, of
  the mean only against the observed denominators (raw-y), or of the mean
  and weights (bootstrap), whose marker map also takes each row's
  denominators of its columns. The bootstrap has each row's x_e' W x_e
  factored and the covariates whitened once per row fit; each marker block
  is one product and a sum of squares. y - mu_hat is formed in the IRLS's
  own buffer, and the drawn rows are released once the row fit has run.
  A binomial bootstrap row is written as 0/1 floats into the buffer of the
  uniforms it compares.

Replicates are drawn in fixed blocks of ``_CHUNK``, in replicate order,
each block from one counter-based stream in the resampling lane of ``rng``
(whose docstring lays out every key), so replicate r is the same row
whatever the number of replicates. Permutation indices depend only on the
stream and the length, so inside ``shared_permutations`` (a study's scheme
loop over one dataset) each index block is drawn once and shared by every
permuting scheme of that length. A row whose binomial refit fails
(separation, non-convergence, a singular system) is redrawn, at most
``MAX_REPLICATE_RETRIES`` times, each attempt from its own stream. Test
hooks replace the draws with fixed index rows: the identity
(``force_identity``) or every permutation (``exhaustive``). A fixed row is
never redrawn, so its failed refit raises at once.
"""

import enum
import math
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import permutations as _all_permutations
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    InsufficientReplicatesError,
    InvalidCorrelationError,
    ReplicateFailureError,
    check_integer,
)
from .glm import Family, binomial_irls, fit_null, outer_rows
from .rng import MONTE_CARLO_LANE, RESAMPLING_LANE, substream
from .score import (
    DEGENERATE_TOL,
    MARKER_BLOCK,
    degenerate,
    marker_blocks,
    score_denominators,
    two_sided_p,
)

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
# Marker columns a replicate block maps at a time, so a scan holds
# (rows, _MARKER_BLOCK) statistics and running row maxima, never (rows, m),
# and builds float marker maps one block at a time from the int8 x_g.
_MARKER_BLOCK = MARKER_BLOCK


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
        return n - d if self is ResamplingScheme.MODIFIED_MODEL else n


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


def _transform(scheme, fit, dataset):
    """The permuted vector ``y_tilde`` of a transform scheme and the
    function that builds the columns ``cols`` of its ``x_tilde`` from the
    int8 ``x_g`` alone. Modified-model's map, Q' x_g / denom, takes all n
    rows of each column through the dense Q, so its whole (n - d) x m map
    is built here, one block of x_g at a time, and sliced."""
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
    if fit.family is not Family.NORMAL and scheme in _NORMAL_THEORY_SCHEMES:
        warnings.warn(
            f"scheme {scheme.value!r} relies on normal linear-model residual "
            "theory; the standardized-residuals scheme is the intended "
            "analogue for this family",
            UserWarning,
            stacklevel=3,
        )
    denom = score_denominators(fit, dataset.x_g)
    x_g, scale = dataset.x_g, None
    if scheme is ResamplingScheme.FREEDMAN_LANE:
        y_t = dataset.y - fit.hat_apply(dataset.y)
    elif scheme is ResamplingScheme.MODIFIED_MODEL:
        q = fit.q_factor()
        x_t = np.empty((n - d, m))
        for cols in marker_blocks(m, _MARKER_BLOCK):
            x_t[:, cols] = q.T @ x_g[:, cols]
        x_t /= denom
        return q.T @ dataset.y, lambda cols: x_t[:, cols]
    elif scheme is ResamplingScheme.STANDARDIZED_RESIDUALS:
        scale = np.sqrt(fit.variance_diag)[:, None]
        y_t = fit.residuals / scale[:, 0]
    else:  # FULL_MODEL_RESIDUALS
        y_t = fit_null(fit.family, dataset.y, np.hstack([dataset.x_e, x_g])).residuals

    def x_block(cols):
        if scale is None:
            return x_g[:, cols] / denom[cols]
        x_t = scale * x_g[:, cols]
        x_t /= denom[cols]
        return x_t

    return y_t, x_block


def exchangeable_transform(scheme, fit, dataset):
    """Build the (y_tilde, x_tilde) pair whose permutations reproduce the
    scheme's replicate statistics with fixed denominators.

    ``x_tilde`` is stacked from the marker blocks that resampling maps one
    at a time. Refit-per-replicate schemes (raw-y, parametric bootstrap)
    have no fixed transform and are rejected here.
    """
    y_t, x_block = _transform(scheme, fit, dataset)
    x_t = np.empty((len(y_t), dataset.m))
    for cols in marker_blocks(dataset.m, _MARKER_BLOCK):
        x_t[:, cols] = x_block(cols)
    return Transform(y_tilde=y_t, x_tilde=x_t)


class _Kernel(NamedTuple):
    """A scheme's replicate machinery: ``base`` is the identity replicate's
    row, ``draw(gen, rows)`` returns a (rows, length) block of bootstrap
    rows, or is None when the rows are permutations of ``base``, and
    ``fit(rows)`` is the marker-free row fit of a block. It returns the
    block's marker map and the mask of rows whose fit succeeded; the marker
    map takes a slice of marker columns and returns their (rows, columns)
    statistics with the mask of rows that stay regular on those columns."""

    base: np.ndarray
    draw: Callable | None
    fit: Callable


# Permutation index blocks keyed by (seed, *path, block, rows, length), which
# alone determine them; None outside ``shared_permutations``.
_shared_blocks = ContextVar("_shared_blocks", default=None)


@contextmanager
def shared_permutations():
    """Within the block, a permutation block drawn for one scheme is reused
    by every later scheme that permutes a vector of the same length from the
    same stream. ``Generator.permuted`` moves positions without reading
    values, so the replicates are the ones each scheme would draw alone."""
    token = _shared_blocks.set({})
    try:
        yield
    finally:
        _shared_blocks.reset(token)


def _draw(kernel, rows, seed, *path, share=False):
    """``rows`` replicate rows from the stream ``(seed, *path)``. A permuting
    kernel gathers them from a block of intp permutation indices; with
    ``share`` inside ``shared_permutations`` that block is drawn once per
    stream, size and length."""
    if kernel.draw is not None:
        return kernel.draw(substream(seed, *path), rows)
    length = len(kernel.base)
    shared = _shared_blocks.get() if share else None
    blocks = {} if shared is None else shared
    key = (seed, *path, rows, length)
    if key not in blocks:
        index = np.tile(np.arange(length, dtype=np.intp), (rows, 1))
        blocks[key] = substream(seed, *path).permuted(index, axis=1, out=index)
    return kernel.base[blocks[key]]


def _linear(x_block, hat_basis=None):
    """Row fit whose marker map is ``rows @ x_block(cols)``. Given
    ``hat_basis``, the row fit takes each row's residual standard error
    ||(I - H) row|| / sqrt(n - d), and the map divides each row by it."""

    def fit(rows):
        scale = None
        if hat_basis is not None:
            n, d = hat_basis.shape
            resid = rows - (rows @ hat_basis) @ hat_basis.T
            scale = np.sqrt(np.einsum("bn,bn->b", resid, resid) / (n - d))[:, None]

        def marker_map(cols):
            stats = rows @ x_block(cols)
            if scale is not None:
                stats /= scale
            return stats, True

        return marker_map, np.ones(rows.shape[0], dtype=bool)

    return fit


def _binomial_refit(x_e, x_g, denom):
    """Row fit that refits the binomial null mean on every row by batch
    IRLS. With the observed ``denom`` only the mean is refit; with
    ``denom=None`` the row fit also takes the variance weights, and the
    marker map each row's denominators of its columns. The map keeps the
    residuals, formed in the IRLS's own buffer, and not the rows."""

    def fit(rows):
        irls = binomial_irls(x_e, rows)
        weights = None if denom is not None else _refit_weights(x_e, irls.mu)
        resid = np.subtract(rows, irls.mu, out=irls.mu)

        def marker_map(cols):
            x_cols = x_g[:, cols].astype(float)
            if weights is None:
                row_denom, ok = denom[cols], True
            else:
                row_denom, ok = _refit_block_denominators(weights, x_cols)
            stats = resid @ x_cols
            stats /= row_denom
            return stats, ok

        return marker_map, irls.ok

    return fit


def _refit_weights(x_e, mu):
    """Marker-free half of the refit denominators of each row of fitted
    probabilities ``mu``: the covariates whitened against x_e' W x_e, the
    pivot l_00 of its Cholesky factor L and the mask of rows whose factor
    exists.

    The (d, rows, n) array holds v = L^-1 x_e' W, except slice 0, which is
    the weights w themselves: x_e[:, 0] is the intercept column of ones that
    ``Dataset`` checks, so row 0 of L^-1 is (1/l_00, 0, ...) and v_0 is
    w / l_00. A row whose pivot is not positive and finite is masked out and
    gets the placeholder pivot 1, so every factor stays finite.
    """
    (rows, n), d = mu.shape, x_e.shape[1]
    whitened = np.empty((d, rows, n))
    w = np.subtract(1.0, mu, out=whitened[0])
    w *= mu
    a = (w @ outer_rows(x_e)).reshape(rows, d, d)
    chol, inv = np.zeros_like(a), np.zeros_like(a)
    ok = np.ones(rows, dtype=bool)
    for j in range(d):
        pivot = a[:, j, j] - np.einsum("bk,bk->b", chol[:, j, :j], chol[:, j, :j])
        regular = np.isfinite(pivot) & (pivot > 0)
        ok &= regular
        l_jj = np.sqrt(np.where(regular, pivot, 1.0))
        chol[:, j, j], inv[:, j, j] = l_jj, 1.0 / l_jj
        below = a[:, j + 1 :, j] - np.einsum("bik,bk->bi", chol[:, j + 1 :, :j], chol[:, j, :j])
        chol[:, j + 1 :, j] = below / l_jj[:, None]
        inv[:, j, :j] = -np.einsum("bk,bki->bi", chol[:, j, :j], inv[:, :j, :j]) / l_jj[:, None]
    # Slice i >= 1 is w times row i of L^-1 applied to x_e: one product.
    rows_of_inv = inv[:, 1:, :].transpose(1, 0, 2).reshape(-1, d)
    np.matmul(rows_of_inv, x_e.T, out=whitened[1:].reshape(-1, n))
    whitened[1:] *= w
    return whitened, chol[:, 0, 0], ok


def _refit_block_denominators(weights, x_cols):
    """Score denominators of the marker columns ``x_cols`` for every row of
    ``_refit_weights`` and the mask of rows with a regular system and no
    degenerate marker among them. With v = L^-1 x_e' W, the score variance
    a' (I - H) a is ||W^1/2 x||^2 - ||v x||^2: one (d * rows, n) product
    and a sum of squares, with no solve."""
    whitened, l00, ok = weights
    d, rows, n = whitened.shape
    cross = (whitened.reshape(d * rows, n) @ x_cols).reshape(d, rows, -1)
    term1 = whitened[0] @ (x_cols**2)
    cross[0] /= l00[:, None]
    denom_sq = term1 - np.einsum("irj,irj->rj", cross, cross)
    ok = ok & ~degenerate(denom_sq, term1).any(axis=1)
    np.maximum(denom_sq, DEGENERATE_TOL**2, out=denom_sq)
    return np.sqrt(denom_sq, out=denom_sq), ok


def _refit_denominators(x_e, x_g, mu):
    """Score denominators of each row of fitted probabilities ``mu`` on all
    markers of ``x_g``, and the mask of rows with a regular system and no
    degenerate marker."""
    return _refit_block_denominators(_refit_weights(x_e, mu), x_g)


def _bernoulli_rows(gen, rows, mu_e):
    """(rows, n) block of 0/1 draws with probabilities ``mu_e``, written as
    floats into the buffer of the uniforms they compare."""
    u = gen.random((rows, len(mu_e)))
    return np.less(u, mu_e, out=u, casting="unsafe")


def _residual_markers(fit, x_g, denom, bootstrap):
    """Marker block map (I - H) x_g[:, cols] of the normal raw-y and
    bootstrap, divided by the observed denominators (raw-y) or by its own
    column norms (bootstrap)."""

    def x_block(cols):
        x_cols = x_g[:, cols]
        resid_x = x_cols - fit.hat_apply(x_cols)
        if bootstrap:
            resid_x /= np.sqrt(np.einsum("ij,ij->j", resid_x, resid_x))
        else:
            resid_x /= denom[cols]
        return resid_x

    return x_block


def _kernel(scheme, fit, dataset):
    """Base row, draw and row fit of ``scheme`` on ``dataset``."""
    if not scheme.refits_per_replicate:
        y_tilde, x_block = _transform(scheme, fit, dataset)
        return _Kernel(y_tilde, None, _linear(x_block))
    x_g, n = dataset.x_g, dataset.n
    denom = score_denominators(fit, x_g)  # rejects degenerate markers up front
    bootstrap = scheme is ResamplingScheme.PARAMETRIC_BOOTSTRAP
    if fit.family is Family.NORMAL:
        x_block = _residual_markers(fit, x_g, denom, bootstrap)
        if not bootstrap:
            return _Kernel(dataset.y, None, _linear(x_block))
        return _Kernel(
            fit.residuals / math.sqrt(fit.phi_hat),
            lambda gen, rows: gen.standard_normal((rows, n)),
            _linear(x_block, fit.hat_basis),
        )
    if not bootstrap:
        return _Kernel(dataset.y, None, _binomial_refit(dataset.x_e, x_g, denom))
    return _Kernel(
        dataset.y,
        lambda gen, rows: _bernoulli_rows(gen, rows, fit.mu_e),
        _binomial_refit(dataset.x_e, x_g, None),
    )


def _evaluate(kernel, rows, m, full):
    """Statistics of a block of replicate rows, mapped _MARKER_BLOCK marker
    columns at a time: the (rows, m) matrix if ``full``, else each row's
    running maximum of |t|. Returns them with the mask of rows whose fit
    succeeded and stayed regular on every column. The rows are released
    once fit, unless the caller or the marker map holds them."""
    marker_map, ok = kernel.fit(rows)
    out = np.empty((len(rows), m)) if full else np.zeros(len(rows))
    del rows
    for cols in marker_blocks(m, _MARKER_BLOCK):
        stats, cols_ok = marker_map(cols)
        ok &= cols_ok
        if full:
            out[:, cols] = stats
        else:
            np.maximum(out, np.abs(stats, out=stats).max(axis=1), out=out)
        del stats  # before the next block's are formed
    return out, ok


def _statistics(
    scheme, fit, dataset, b, seed, path, exhaustive=False, force_identity=False, full=False
):
    """Check the arguments, then yield, block by block in replicate order,
    the row maxima of |t| of ``scheme``'s replicates 0..b-1, or with
    ``full`` their (rows, m) statistics.

    ``path`` names the dataset; block j and each attempt to redraw a failed
    replicate draw from their own stream in its resampling lane (``rng``
    lays out the keys). A row fails when its fit fails on any marker block,
    so retries are decided once every block is mapped. Fixed rows
    (``exhaustive``, ``force_identity``) are never redrawn, so a failed
    refit of one raises at once.
    """
    check_integer("seed", seed, 0)
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
    path, m = (*path, RESAMPLING_LANE), dataset.m

    def block_rows(lo, hi):
        if fixed is None:
            return _draw(kernel, hi - lo, seed, *path, lo // _CHUNK, share=True)
        return kernel.base[fixed[lo:hi]]

    for lo in range(0, b, _CHUNK):
        hi = min(lo + _CHUNK, b)
        # Passed straight in, so _evaluate can release the rows once fit.
        out, ok = _evaluate(kernel, block_rows(lo, hi), m, full)
        failed = np.flatnonzero(~ok)
        for attempt in range(1, MAX_REPLICATE_RETRIES + 1):
            if fixed is not None or not failed.size:
                break
            retry = [_draw(kernel, 1, seed, *path, lo + i, attempt) for i in failed]
            out[failed], ok = _evaluate(kernel, np.vstack(retry), m, full)
            failed = failed[~ok]
        if failed.size:
            r = lo + int(failed[0])
            how = "to refit" if fixed is not None else f"after {MAX_REPLICATE_RETRIES} retries"
            raise ReplicateFailureError(f"replicate {r} failed {how}", replicate=r)
        yield out


def replicate_statistics(
    scheme, fit, dataset, b, seed, *, stream_path=(), exhaustive=False, force_identity=False
):
    """Generate the maxT null distribution for ``scheme``.

    ``b`` replicates are drawn in blocks of ``_CHUNK`` from the resampling
    lane of the dataset that ``stream_path`` names (``rng`` lays out the
    keys); the blocks run serially in replicate order, and each keeps only
    its rows' running maxima across the marker blocks. ``exhaustive``
    enumerates all permutations (tiny problems only; ``b`` is ignored) and
    ``force_identity`` replaces every draw with the identity
    permutation/resample; both are test hooks.
    """
    blocks = _statistics(scheme, fit, dataset, b, seed, stream_path, exhaustive, force_identity)
    maxima = np.concatenate(list(blocks))
    return MaxTDistribution(np.sort(maxima), len(maxima), scheme, seed, exhaustive=exhaustive)


def replicate_matrix(scheme, fit, dataset, b, seed, *, stream_path=()):
    """Full (b, m) matrix of replicate statistics.

    Diagnostic helper: the replicates of ``replicate_statistics`` with
    their marker blocks stacked instead of reduced to maxima, so row r is
    replicate r.
    """
    blocks = _statistics(scheme, fit, dataset, b, seed, stream_path, full=True)
    return np.vstack(list(blocks))


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
    eq_satisfied = bool(satisfies.any())
    eq_index = int(np.argmax(satisfies)) + 1 if eq_satisfied else None
    c = float(stats[eq_index - 1]) if eq_satisfied else quantile_value
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
    for delta in range(max(center, b - center) + 1):  # the last is [1, b]
        r = max(center - delta, 1)
        s = min(center + delta, b)
        # P(r <= W <= s) with W ~ Binomial(b, q).
        if cdf[s] - cdf[r - 1] >= conf:
            return float(stats[r - 1]), float(stats[s - 1])
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
    check_integer("seed", seed, 0)
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
    resamples = (boot_gen.integers(0, draws, size=draws) for _ in range(MC_BOOTSTRAPS))
    boot = [two_sided_p(np.quantile(max_abs[idx], 1.0 - alpha)) for idx in resamples]
    return McAlphaLoc(alpha_loc=alpha_loc, se=float(np.std(boot, ddof=1)), c=c)
