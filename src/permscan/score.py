"""Standardized score statistics for per-marker association tests.

Each marker j is tested against the null fit with the statistic

    t_j = x_gj' residuals / denom_j,
    denom_j = sqrt(a_j' a_j - a_j' H a_j),   a_j = sqrt(variance) * x_gj,

where H is the weighted hat projection of the null fit. The dispersion
cancels between numerator and denominator, so only the variance diagonal
needs estimating. Denominators depend on the design alone. They are
computed once per fit and read-only genotype matrix, cached on the fit and
shared by the observed statistics and every resampling scheme's
replicates; only the binomial bootstrap recomputes them on every replicate.
The denominators and the observed statistics walk the genotype matrix
``MARKER_BLOCK`` columns at a time, converting each block to float64, so a
compact (int8) matrix is never copied whole.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMarkerError, SizeLimitError

__all__ = [
    "ScoreStatistics",
    "ScoreCorrelation",
    "score_denominators",
    "score_statistics",
    "score_correlation",
]

DEGENERATE_TOL = 1e-12
DENSE_CORRELATION_LIMIT = 2000
# Marker columns converted to float64 at a time.
MARKER_BLOCK = 512


@dataclass(frozen=True)
class ScoreStatistics:
    """Standardized statistics ``t`` with their reusable denominators."""

    t: np.ndarray
    denom: np.ndarray
    max_abs_t: float


@dataclass(frozen=True)
class ScoreCorrelation:
    """Correlation matrix of the m score statistics (diagnostic use)."""

    r: np.ndarray


def _check_markers(fit, x_g):
    x_g = np.asarray(x_g)
    if x_g.ndim != 2 or x_g.shape[0] != fit.n:
        raise ValueError(f"x_g must have {fit.n} rows")
    return x_g


def marker_blocks(m, width):
    """Slices of ``width`` consecutive columns covering m markers."""
    return [slice(lo, lo + width) for lo in range(0, m, width)]


def _weighted_markers(fit, x_g):
    return np.sqrt(fit.variance_diag)[:, None] * x_g


def degenerate(denom_sq, norm_sq):
    """Mask of markers whose score variance ``denom_sq`` = ||a||^2 - a' H a
    is zero up to rounding, given ``norm_sq`` = ||a||^2.

    Exact collinearity only cancels down to rounding noise of the norm, so
    the absolute floor DEGENERATE_TOL^2 is paired with a relative one.
    """
    return denom_sq <= np.maximum(norm_sq * DEGENERATE_TOL, DEGENERATE_TOL**2)


def score_denominators(fit, x_g):
    """Per-marker denominators sqrt(a_j' (I - H) a_j).

    Raises DegenerateMarkerError when a marker is constant or lies in the
    span of the weighted covariates, naming the first offending marker.
    The weighted markers a_j are formed ``MARKER_BLOCK`` columns at a time,
    so ``x_g`` of any numeric dtype (``Dataset.x_g`` is int8) is never
    converted whole. The read-only result for the first read-only ``x_g``
    that owns its memory (as ``Dataset.x_g`` does) is cached on ``fit`` and
    served whenever that same array, still read-only, comes back; any other
    matrix, a view included, is computed afresh.
    """
    cached = fit._denom_cache
    if cached is not None and cached[0] is x_g and not x_g.flags.writeable:
        return cached[1]
    markers = _check_markers(fit, x_g)
    norm_sq, denom_sq = np.empty((2, markers.shape[1]))
    for cols in marker_blocks(markers.shape[1], MARKER_BLOCK):
        a = _weighted_markers(fit, markers[:, cols])
        projected = fit.hat_basis.T @ a
        norm_sq[cols] = np.einsum("ij,ij->j", a, a)
        denom_sq[cols] = norm_sq[cols] - np.einsum("ij,ij->j", projected, projected)
        del a  # before the next block's is formed
    bad = np.flatnonzero(degenerate(denom_sq, norm_sq))
    if bad.size:
        raise DegenerateMarkerError(
            f"marker {bad[0]} has zero score variance (constant or collinear "
            "with the covariates)",
            marker=int(bad[0]),
        )
    denom = np.sqrt(denom_sq)
    owned = isinstance(x_g, np.ndarray) and x_g.base is None
    if cached is None and owned and not x_g.flags.writeable:
        denom.flags.writeable = False
        object.__setattr__(fit, "_denom_cache", (x_g, denom))
    return denom


def score_statistics(fit, x_g):
    """Observed standardized score statistics for every marker, taken
    ``MARKER_BLOCK`` columns at a time."""
    denom = score_denominators(fit, x_g)
    markers = np.asarray(x_g)
    t = np.empty(markers.shape[1])
    for cols in marker_blocks(len(t), MARKER_BLOCK):
        t[cols] = markers[:, cols].astype(float).T @ fit.residuals
    t /= denom
    return ScoreStatistics(t=t, denom=denom, max_abs_t=float(np.max(np.abs(t))))


def two_sided_p(t):
    """Two-sided standard normal tail probability 2 * Phi(-|t|) of one statistic."""
    return math.erfc(abs(t) / math.sqrt(2.0))


def score_correlation(fit, x_g, dense_limit=DENSE_CORRELATION_LIMIT):
    """Dense m x m correlation matrix of the score statistics.

    Intended for diagnostics and Monte Carlo cross-checks; refuses to
    materialize above ``dense_limit`` markers.
    """
    x_g = _check_markers(fit, x_g)
    m = x_g.shape[1]
    if m > dense_limit:
        raise SizeLimitError(
            f"correlation matrix for m={m} markers exceeds the dense limit "
            f"{dense_limit}; this output is for diagnostic use only"
        )
    scale = score_denominators(fit, x_g)
    a = _weighted_markers(fit, x_g)
    projected = fit.hat_basis.T @ a
    cov = a.T @ a - projected.T @ projected
    r = cov / np.outer(scale, scale)
    np.fill_diagonal(r, 1.0)
    return ScoreCorrelation(r=np.clip(r, -1.0, 1.0))
