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
noise or its compressed form (normal) or Bernoulli(mu_e) responses
(binomial). The evaluator, ``_evaluate``, takes a block of rows to residual
rows, drops the rows and maps the residuals ``_MARKER_BLOCK`` marker columns
at a time: a block's statistics are the residual rows times the block's
fixed marker map, divided by the rows' own denominators when the scheme
refits them, so no (rows, m) array is held unless ``replicate_matrix`` asks
for one. Every marker map is one helper, ``_marker_block``: the int8
``x_g[:, cols]`` through the scheme's coordinates, divided by the observed
denominators, built per block and dropped after it.

* The transform schemes' rows are their own residuals; modified-model's
  coordinates apply the d Householder reflectors of the residual basis and
  standardized residuals' scale each observation.
* Raw-y and the bootstrap refit their rows' null mean. A normal refit is the
  projection (I - H) row; a bootstrap row is also scaled to the observed
  residual sum of squares phi_hat (n - d), so both keep the observed
  denominators. The compressed normal bootstrap runs instead wherever
  0 < m <= _MARKER_BLOCK, 3m <= n - d and the score correlation R has a
  Cholesky factor U' U = R (none when a marker is duplicated): a row is m + 1
  numbers (g, s), g ~ N(0, I_m) and s the root of a chi-square on
  n - d - m degrees of freedom, and its statistics are
  sqrt(n - d) g' U / ||(g, s)||, a multivariate t on R. That is the law of
  the refit of an N(0, I_n) row, whose residual direction is uniform on
  the (n - d)-sphere and enters only through its m coordinates along the
  residualized markers and its norm, at m + 1 draws and an m-deep product
  a row instead of n draws, a refit and an n-deep product. Where 3m > n - d
  the per-dataset Gram and Cholesky cost more than they save, and the refit
  runs. A binomial refit is one batch IRLS of the whole block, which
  writes y - mu_hat over the rows. It starts at the fit the rows perturb,
  the null fit for the bootstrap and the intercept-only (logit ybar, 0, ...)
  for raw-y, whose rows keep y's mean, so that its first Newton step is one
  d x d solve for the whole block. The binomial bootstrap also refits the
  weights: its map is the float marker block alone, and each row's
  denominators of a block are formed from the covariates whitened against
  x_e' W x_e once per refit (one product and a sum of squares, no solve).
  Every x_e' W x_e is factored by ``glm.cholesky_inverse``, which masks a
  system whose pivot is not positive and finite. A binomial bootstrap row
  is written as 0/1 floats into the buffer of the uniforms it compares.

Replicates are drawn in fixed blocks of ``_CHUNK``, in replicate order,
each block from one counter-based stream in the resampling lane of ``rng``
(whose docstring lays out every key), so replicate r is the same row
whatever the number of replicates (a compressed bootstrap block's stream
yields its ``_CHUNK`` chi-squares before its rows of normals). Every
permuting scheme reads the same (rows, n) index block of a stream;
modified-model keeps each row's indices below n - d, in order, which is a
uniform permutation of n - d. A row whose
binomial refit fails (separation, non-convergence, a masked system) is
redrawn, at most ``MAX_REPLICATE_RETRIES`` times, each attempt from its own
stream. Test hooks replace the draws with fixed index rows: the identity
(``force_identity``) or every permutation (``exhaustive``). A fixed row is
never redrawn, so its failed refit raises at once.

A study (``run_study``, in ``replicate_workspace``) draws each index block
of a dataset once and holds for its lifetime buffers of about 8 x rows x n
bytes each: the index block, the drawn rows (a binomial refit's residuals),
the normal refit's residuals and the binomial refit's (max(d, 2), rows, n)
block of IRLS weights and mu, over which the bootstrap whitens x_e. It
releases them when it returns or raises; ``scan`` allocates per block.
"""

import enum
import math
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial
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
from .glm import Family, binomial_irls, cholesky_inverse, fit_null, lstsq_residuals, outer_rows
from .rng import MONTE_CARLO_LANE, RESAMPLING_LANE, substream
from .score import (
    DEGENERATE_TOL,
    MARKER_BLOCK,
    degenerate,
    marker_blocks,
    score_correlation,
    score_denominators,
    score_statistics,
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
]

MAX_REPLICATE_RETRIES = 10
EXHAUSTIVE_LENGTH_LIMIT = 8
# Confidence level of maxt_cutoff's order-statistic interval.
CUTOFF_CONF = 0.95
# Bootstrap resamples behind mc_mvn_alpha_loc's standard error.
MC_BOOTSTRAPS = 100
# mc_mvn_alpha_loc's tolerance on |R - R'| and on R's least eigenvalue, and
# the floor on the squared pivots of the compressed bootstrap's factor of R.
_CORRELATION_TOL = 1e-8
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
    """Scheme-specific pair: the replicate statistics of the marker columns
    ``cols`` are ``(P y_tilde) @ x_block(cols)``."""

    y_tilde: np.ndarray
    x_block: Callable


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


def exchangeable_transform(scheme, fit, dataset):
    """The permuted vector ``y_tilde`` of a transform scheme and the
    function ``x_block`` that builds the columns ``cols`` of its marker map
    from the int8 ``x_g`` alone, so that permutations of ``y_tilde`` give
    the scheme's replicate statistics with fixed denominators. Refit-per-
    replicate schemes (raw-y, parametric bootstrap) have no fixed transform
    and are rejected here."""
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
    x_g, coords = dataset.x_g, _as_float
    if scheme is ResamplingScheme.FREEDMAN_LANE:
        y_t = dataset.y - fit.hat_apply(dataset.y)
    elif scheme is ResamplingScheme.MODIFIED_MODEL:
        coords = fit.residual_coordinates
        y_t = coords(dataset.y)
    elif scheme is ResamplingScheme.STANDARDIZED_RESIDUALS:
        scale = np.sqrt(fit.variance_diag)[:, None]
        coords = lambda x: scale * x  # noqa: E731
        y_t = fit.residuals / scale[:, 0]
    elif fit.family is Family.NORMAL:  # FULL_MODEL_RESIDUALS
        y_t = lstsq_residuals(np.hstack([dataset.x_e, x_g]), dataset.y)
    else:  # FULL_MODEL_RESIDUALS
        y_t = fit_null(fit.family, dataset.y, np.hstack([dataset.x_e, x_g])).residuals
    return Transform(y_t, partial(_marker_block, x_g, coords, denom))


def _as_float(x):
    return x.astype(float)


def _marker_block(x_g, coords, denom, cols):
    """Fixed marker map of the columns ``cols``: ``coords`` of the int8
    ``x_g[:, cols]`` divided by ``denom[cols]``, or the float block alone
    when ``denom`` is None."""
    x_t = coords(x_g[:, cols])
    if denom is not None:
        x_t /= denom[cols]
    return x_t


class _Kernel(NamedTuple):
    """A scheme's replicate machinery. ``base`` is the identity replicate's
    row. ``draw(gen, rows, out=None)`` returns a (rows, length) block of
    bootstrap rows, in ``out`` if given, or is None for permutations.
    ``refit(rows)`` returns the block's residual rows, the mask of rows
    that fit and their ``_refit_weights`` (None when the observed
    denominators hold); it is None for the transform schemes, whose rows
    are their own residuals. ``x_block(cols)`` is the fixed marker map of
    the columns ``cols``."""

    base: np.ndarray
    draw: Callable | None
    refit: Callable | None
    x_block: Callable


# The running study's flat float buffers by name, and the (stream key, intp
# index block) slot of each block, keyed (block,); None outside a workspace.
_workspace = ContextVar("_workspace", default=None)


@contextmanager
def replicate_workspace():
    """Within the block, replicate blocks draw and refit in buffers held
    until exit, and the length-n index block drawn for one permuting scheme
    is reused by every later one of the same stream, so the replicates are
    the ones each scheme would draw alone."""
    token = _workspace.set({})
    try:
        yield
    finally:
        _workspace.reset(token)


def _buffer(name, shape):
    """An uninitialised float array of ``shape``: the leading part of the
    workspace's buffer ``name``, grown to the largest size asked of it, or
    a fresh array outside a workspace."""
    space = _workspace.get()
    if space is None:
        return np.empty(shape)
    size, flat = math.prod(shape), space.get(name)
    if flat is None or flat.size < size:
        flat = space[name] = np.empty(size)
    return flat[:size].reshape(shape)


def _draw(kernel, rows, n, seed, *path, share=False):
    """``rows`` replicate rows from the stream ``(seed, *path)``. A permuting
    kernel gathers them from a (rows, n) block of intp permutation indices;
    a shorter base keeps each row's indices below its length, in order. With
    ``share`` in a workspace, the rows take its row buffer and the indices
    their block's slot, redrawn only when it holds another stream; else both
    are fresh, so that rows drawn one by one never alias."""
    length = len(kernel.base)
    space = _workspace.get() if share else None
    out = None if space is None else _buffer("rows", (rows, length))
    if kernel.draw is not None:
        return kernel.draw(substream(seed, *path), rows, out=out)
    key, slots = (seed, *path, rows), {} if space is None else space
    held, index = slots.get((path[-1],), (None, None))
    if held != key:
        if index is None or index.shape != (rows, n):
            index = np.empty((rows, n), dtype=np.intp)
        index[:] = np.arange(n)
        substream(seed, *path).permuted(index, axis=1, out=index)
        slots[(path[-1],)] = (key, index)
    if length < n:
        index = index[index < length].reshape(rows, length)
    return np.take(kernel.base, index, out=out, mode="wrap")  # "raise" buffers a copy


def _binomial_refit(x_e, bootstrap, start, rows):
    """Batch IRLS of the binomial null mean on every row from the shared
    ``start``, mu in slice 1 of one (max(d, 2), rows, n) block and its
    weights in slice 0: the residuals, written over the rows, the mask of
    rows that fit and, for the bootstrap, the weights, whitened over mu.
    Outside a workspace raw-y takes two separate arrays instead: each fits
    the hole that its freed index block leaves, and the block would not."""
    if bootstrap or _workspace.get() is not None:
        block = _buffer("whitened", (max(x_e.shape[1], 2), *rows.shape))
    else:
        block = (np.empty(rows.shape), np.empty(rows.shape))
    irls = binomial_irls(x_e, rows, (block[1], block[0]), start)
    resid = np.subtract(rows, irls.mu, out=rows)
    return resid, irls.ok, _refit_weights(x_e, irls.mu, block) if bootstrap else None


def _normal_refit(fit, bootstrap, rows):
    """Normal least-squares refit of every row: its residuals (I - H) row.
    A bootstrap row of N(0, I) noise is also scaled to the norm
    sqrt(phi_hat (n - d)) of the observed residuals, so that against the
    observed denominators sqrt(phi_hat) ||(I - H) x|| its statistics take
    its own residual standard error, as a refit of the row would."""
    resid = np.matmul(rows @ fit.hat_basis, fit.hat_basis.T, out=_buffer("resid", rows.shape))
    np.subtract(rows, resid, out=resid)
    if bootstrap:
        ss = np.einsum("bn,bn->b", resid, resid)
        resid *= np.sqrt(fit.phi_hat * (fit.n - fit.d) / ss)[:, None]
    return resid, np.ones(len(rows), dtype=bool), None


def _refit_weights(x_e, mu, whitened=None):
    """Marker-free half of the refit denominators of each row of fitted
    probabilities ``mu``: the covariates whitened against x_e' W x_e, the
    inverse pivot 1 / l_00 of its Cholesky factor L and the mask of rows
    whose factor exists (``cholesky_inverse``).

    The (d, rows, n) array (fresh, or ``whitened[:d]``, whose slice 1 may be
    ``mu``) holds v = L^-1 x_e' W, except slice 0, which is the weights w:
    x_e[:, 0] is the intercept column of ones that ``Dataset`` checks, so
    row 0 of L^-1 is (1/l_00, 0, ...) and v_0 is w / l_00.
    """
    (rows, n), d = mu.shape, x_e.shape[1]
    whitened = np.empty((d, rows, n)) if whitened is None else whitened[:d]
    w = np.subtract(1.0, mu, out=whitened[0])
    w *= mu
    inv, ok = cholesky_inverse((w @ outer_rows(x_e)).reshape(rows, d, d))
    # Slice i >= 1 is w times row i of L^-1 applied to x_e: one product.
    rows_of_inv = inv[:, 1:, :].transpose(1, 0, 2).reshape(-1, d)
    np.matmul(rows_of_inv, x_e.T, out=whitened[1:].reshape(-1, n))
    whitened[1:] *= w
    return whitened, inv[:, 0, 0], ok


def _refit_block_denominators(weights, x_cols):
    """Score denominators of the marker columns ``x_cols`` for every row of
    ``_refit_weights`` and the mask of rows with a regular system and no
    degenerate marker among them. With v = L^-1 x_e' W, the score variance
    a' (I - H) a is ||W^1/2 x||^2 - ||v x||^2: one (d * rows, n) product
    (one per slice would round a one-row block unlike it, through gemv),
    squared in place and summed slice by slice, and no solve. It never
    writes ``x_cols``, and its square is freed before the product."""
    whitened, inv_l00, ok = weights
    d, rows, n = whitened.shape
    norm_sq = whitened[0] @ np.square(x_cols)
    cross = (whitened.reshape(d * rows, n) @ x_cols).reshape(d, rows, -1)
    cross[0] *= inv_l00[:, None]
    denom_sq = np.square(cross, out=cross)[0]
    for square in cross[1:]:
        denom_sq += square
    np.subtract(norm_sq, denom_sq, out=denom_sq)
    ok = ok & ~degenerate(denom_sq, norm_sq, out=norm_sq).any(axis=1)
    np.maximum(denom_sq, DEGENERATE_TOL**2, out=denom_sq)
    return np.sqrt(denom_sq, out=denom_sq), ok


def _bernoulli_rows(gen, rows, mu_e, out=None):
    """(rows, n) block of 0/1 draws with probabilities ``mu_e``, written as
    floats into the buffer ``out`` of the uniforms they compare."""
    u = gen.random((rows, len(mu_e)), out=out)
    return np.less(u, mu_e, out=u, casting="unsafe")


def _chi_normal_rows(df, m, gen, rows, out=None):
    """(rows, m + 1) block of rows (g, s), g ~ N(0, I_m) and s the root of a
    chi-square on ``df`` degrees of freedom, in ``out`` if given. The stream
    yields the block's _CHUNK chi-squares first, then its rows of normals,
    so row r is the same whatever ``rows`` is."""
    norms = np.sqrt(gen.chisquare(df, _CHUNK)[:rows])
    out = np.empty((rows, m + 1)) if out is None else out
    out[:, :m] = gen.standard_normal((rows, m))
    out[:, m] = norms
    return out


def _direction_refit(df, rows):
    """The g of every row (g, s) scaled to sqrt(df) / ||(g, s)||."""
    g, scale = rows[:, :-1], np.sqrt(df / np.einsum("bi,bi->b", rows, rows))
    resid = np.multiply(g, scale[:, None], out=_buffer("resid", g.shape))
    return resid, np.ones(len(rows), dtype=bool), None


def _compressed_normal_bootstrap(fit, dataset):
    """The compressed normal bootstrap's kernel (module docstring), or None
    where it does not run: m = 0, m > _MARKER_BLOCK, 3m > n - d, or no upper
    Cholesky factor [[U, g], [0, s]] of the Gram [[R, t], [t', n - d]] of
    the score correlation R and the observed t whose least pivot of U
    squared exceeds _CORRELATION_TOL (a duplicated marker has none). The
    factor's last column (g, s), with g = U^-T t and ||(g, s)||^2 = n - d,
    is the identity row: sqrt(n - d) g' U / ||(g, s)|| is the observed t.
    """
    n_d, m = dataset.n - dataset.d, dataset.m
    if not 0 < m <= _MARKER_BLOCK or 3 * m > n_d:
        return None
    gram = np.empty((m + 1, m + 1))
    gram[:m, :m] = score_correlation(fit, dataset.x_g).r
    gram[m, :m] = gram[:m, m] = score_statistics(fit, dataset.x_g).t
    gram[m, m] = n_d
    try:
        factor = np.linalg.cholesky(gram).T
    except np.linalg.LinAlgError:
        return None
    u = factor[:m, :m]
    if np.diag(u).min() ** 2 <= _CORRELATION_TOL:
        return None
    draw = partial(_chi_normal_rows, n_d - m, m)
    return _Kernel(factor[:, m], draw, partial(_direction_refit, n_d), lambda cols: u[:, cols])


def _kernel(scheme, fit, dataset):
    """Base row, draw, refit and marker map of ``scheme`` on ``dataset``."""
    if not scheme.refits_per_replicate:
        y_tilde, x_block = exchangeable_transform(scheme, fit, dataset)
        return _Kernel(y_tilde, None, None, x_block)
    denom = score_denominators(fit, dataset.x_g)  # rejects degenerate markers up front
    bootstrap = scheme is ResamplingScheme.PARAMETRIC_BOOTSTRAP
    if bootstrap and fit.family is Family.NORMAL:
        compressed = _compressed_normal_bootstrap(fit, dataset)
        if compressed is not None:
            return compressed
    draw = None
    if fit.family is Family.NORMAL:
        refit = partial(_normal_refit, fit, bootstrap)
        if bootstrap:
            draw = lambda g, r, out=None: g.standard_normal((r, dataset.n), out=out)  # noqa: E731
    else:
        logit_ybar = math.log(dataset.y.mean() / (1.0 - dataset.y.mean()))
        start = fit.coef if bootstrap else np.r_[logit_ybar, np.zeros(dataset.d - 1)]
        refit = partial(_binomial_refit, dataset.x_e, bootstrap, start)
        if bootstrap:
            draw = partial(_bernoulli_rows, mu_e=fit.mu_e)
            denom = None  # each row's own, from its refit weights
    return _Kernel(dataset.y, draw, refit, partial(_marker_block, dataset.x_g, _as_float, denom))


def _evaluate(kernel, rows, m, full):
    """Statistics of a block of replicate rows, mapped _MARKER_BLOCK marker
    columns at a time: the (rows, m) matrix if ``full``, else each row's
    running maximum of |t|. Returns them with the mask of rows whose refit
    succeeded and stayed regular on every column. A binomial refit writes
    its residuals over its rows; other rows are released once refit."""
    resid, ok, weights = rows, np.ones(len(rows), dtype=bool), None
    if kernel.refit is not None:
        resid, ok, weights = kernel.refit(rows)
    out = np.empty((len(rows), m)) if full else np.zeros(len(rows))
    del rows
    for cols in marker_blocks(m, _MARKER_BLOCK):
        x_cols = kernel.x_block(cols)
        if weights is None:
            stats = resid @ x_cols
        else:
            # The denominators come first, so their transients never meet
            # the statistics, which then take their buffer.
            row_denom, cols_ok = _refit_block_denominators(weights, x_cols)
            ok &= cols_ok
            stats = np.divide(resid @ x_cols, row_denom, out=row_denom)
            del row_denom
        if full:
            out[:, cols] = stats
        else:
            np.maximum(out, np.abs(stats, out=stats).max(axis=1), out=out)
        del stats, x_cols  # before the next block's are formed
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
    if exhaustive:
        length = scheme.permuted_length(dataset.n, dataset.d)
        if length > EXHAUSTIVE_LENGTH_LIMIT:
            raise ConfigError(
                f"exhaustive mode enumerates {length}! permutations; "
                f"limited to length <= {EXHAUSTIVE_LENGTH_LIMIT}"
            )
        if scheme is ResamplingScheme.PARAMETRIC_BOOTSTRAP:
            raise ConfigError("exhaustive mode is defined for permutation schemes only")
        fixed = np.array(list(_all_permutations(range(length))), dtype=np.intp)
        b = len(fixed)
    else:
        b = check_integer("b", b, 1)
    kernel = _kernel(scheme, fit, dataset)
    if force_identity and fixed is None:
        length = len(kernel.base)
        fixed = np.broadcast_to(np.arange(length), (b, length))
    path, m, n = (*path, RESAMPLING_LANE), dataset.m, dataset.n

    def block_rows(lo, hi):
        if fixed is None:
            return _draw(kernel, hi - lo, n, seed, *path, lo // _CHUNK, share=True)
        return kernel.base[fixed[lo:hi]]

    for lo in range(0, b, _CHUNK):
        hi = min(lo + _CHUNK, b)
        # Passed straight in, so _evaluate can release the rows once fit.
        out, ok = _evaluate(kernel, block_rows(lo, hi), m, full)
        failed = np.flatnonzero(~ok)
        for attempt in range(1, MAX_REPLICATE_RETRIES + 1):
            if fixed is not None or not failed.size:
                break
            retry = [_draw(kernel, 1, n, seed, *path, lo + i, attempt) for i in failed]
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
    check_integer("b", b, 1)
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
    """Raise unless ``draws`` is an integer of at least 2; callers check
    before resampling."""
    if check_integer("draws", draws, -math.inf) < 2:
        raise ConfigError("need at least two Monte Carlo draws")


def mc_mvn_alpha_loc(correlation, alpha, draws, seed):
    """Monte Carlo local level under a multivariate normal score vector.

    Samples ``draws`` vectors from N(0, R) through the symmetric square
    root of ``R``, estimates the cutoff as the empirical (1 - alpha)
    quantile of the maximal absolute component and returns
    2 * Phi(-cutoff) with a standard error from MC_BOOTSTRAPS bootstrap
    resamples of the draws. Both draw from the Monte Carlo lane of ``seed``.
    ``R`` must be square and non-empty (else ConfigError), finite,
    symmetric and PSD within _CORRELATION_TOL (else InvalidCorrelationError).
    """
    check_integer("seed", seed, 0)
    r = np.asarray(getattr(correlation, "r", correlation), dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or r.size == 0:
        raise ConfigError("correlation must be a square matrix of at least one marker")
    check_mc_draws(draws)
    if not np.isfinite(r).all() or np.abs(r - r.T).max() > _CORRELATION_TOL:
        raise InvalidCorrelationError(
            f"correlation matrix must be finite and symmetric within {_CORRELATION_TOL:g}"
        )
    eigenvalues, eigenvectors = np.linalg.eigh(r)
    if eigenvalues.min() < -_CORRELATION_TOL:
        raise InvalidCorrelationError(
            f"correlation matrix has eigenvalue {eigenvalues.min():.3g} < {-_CORRELATION_TOL:g}"
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
