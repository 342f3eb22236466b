"""Null-model fitting for association scans.

Fits the covariate-only ("null") generalized linear model and exposes the
two structures every downstream computation needs: the diagonal of the
estimated response variance and the weighted projection onto the covariate
column space. Two response families are supported: normal (identity link,
dispersion estimated from the residuals) and binomial with a 0/1 response
(logit link, dispersion fixed at 1). The binomial fit is one batch IRLS,
which also refits every resampling replicate that needs it.
"""

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, QuasiSeparationError, SingularDesignError

__all__ = ["Family", "Dataset", "NullModelFit", "fit_null"]

IRLS_MAX_ITER = 50
IRLS_STEP_TOL = 1e-5
SEPARATION_TOL = 1e-10
# |eta| below which no probability is within SEPARATION_TOL of 0 or 1: the
# logit of 1 - SEPARATION_TOL (about 23.03), less a margin for rounding.
_SEPARATION_ETA = math.log((1.0 - SEPARATION_TOL) / SEPARATION_TOL) - 1.0


class Family(enum.Enum):
    """Supported response families.

    NORMAL uses constant variance with dispersion estimated as the residual
    mean square on n - d degrees of freedom. BINOMIAL models a Bernoulli
    response with variance mu * (1 - mu) and dispersion fixed at 1.
    """

    NORMAL = "normal"
    BINOMIAL = "binomial"

    def variance(self, mu, phi=1.0):
        """Variance function evaluated at mean ``mu``."""
        if self is Family.NORMAL:
            return np.full_like(np.asarray(mu, dtype=float), phi)
        return mu * (1.0 - mu)


def all_counts(x):
    """True when every entry of ``x`` is 0, 1 or 2, on its own dtype. An
    integer or bool matrix is checked by its range: ``np.isin`` would take
    an intp index per entry, eight times an int8 matrix."""
    if x.dtype.kind in "biu":
        return x.size == 0 or (x.min() >= 0 and x.max() <= 2)
    return bool(np.isin(x, (0, 1, 2)).all())


@dataclass(frozen=True)
class Dataset:
    """Phenotype, covariate design and genotype matrix for one sample.

    ``y`` and ``x_e`` are finite. ``x_e`` is n x d with a constant-1
    intercept as its first column and must have full column rank. ``x_g``
    is n x m with additive minor-allele counts in {0, 1, 2}, checked on the
    input's own dtype and stored as a C-contiguous int8 matrix, an eighth of
    its float64 size; every consumer converts one block of marker columns
    to float at a time. All three arrays are read-only. An input that
    already has the stored dtype and layout is copied if it is writable, so
    the caller's arrays are never made read-only.
    """

    y: np.ndarray
    x_e: np.ndarray
    x_g: np.ndarray

    def __post_init__(self):
        y = np.ascontiguousarray(self.y, dtype=float)
        x_e = np.ascontiguousarray(self.x_e, dtype=float)
        x_g = np.asarray(self.x_g)
        if y.ndim != 1 or x_e.ndim != 2 or x_g.ndim != 2:
            raise ValueError("y must be a vector; x_e and x_g must be matrices")
        n = y.shape[0]
        if x_e.shape[0] != n or x_g.shape[0] != n:
            raise ValueError("y, x_e and x_g must agree on the number of rows")
        for arr, name in ((y, "y"), (x_e, "x_e")):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has non-finite entries")
        d = x_e.shape[1]
        if n < d + 1:
            raise ValueError(f"need at least d+1={d + 1} observations, got {n}")
        if not np.all(x_e[:, 0] == 1.0):
            raise ValueError("first column of x_e must be the constant 1 intercept")
        if np.linalg.matrix_rank(x_e) < d:
            raise SingularDesignError("covariate design x_e is rank deficient")
        # Checked before the cast, which would wrap 258 to 2.
        if not all_counts(x_g):
            raise ValueError("genotype entries must be 0, 1 or 2")
        x_g = np.ascontiguousarray(x_g, dtype=np.int8)
        for arr, name in ((y, "y"), (x_e, "x_e"), (x_g, "x_g")):
            # A conversion that changed nothing returns the caller's own
            # array (or a view of it); a writable one is copied, so that the
            # caller's array stays writable and no write to it reaches the
            # dataset. A read-only one is shared as it is.
            if arr.flags.writeable and np.may_share_memory(arr, getattr(self, name)):
                arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def d(self):
        return self.x_e.shape[1]

    @property
    def m(self):
        return self.x_g.shape[1]


@dataclass(eq=False)
class NullModelFit:
    """Converged null-model fit.

    ``hat_basis`` is an orthonormal basis of the column space of
    sqrt(variance) * x_e; the weighted hat matrix is ``hat_basis @ hat_basis.T``
    and is never materialized except on demand for small problems. The
    object is immutable after construction (the score denominators of one
    read-only genotype matrix are cached lazily, written at most once).
    """

    family: Family
    x_e: np.ndarray
    coef: np.ndarray
    mu_e: np.ndarray
    variance_diag: np.ndarray
    residuals: np.ndarray
    phi_hat: float
    hat_basis: np.ndarray
    iterations: int = 0
    # (x_g, denominators) of score.score_denominators; not carried by a
    # dataclasses.replace copy, whose weights may differ.
    _denom_cache: tuple | None = field(default=None, init=False, repr=False)

    @property
    def n(self):
        return self.x_e.shape[0]

    @property
    def d(self):
        return self.x_e.shape[1]

    def hat_apply(self, v):
        """Apply the weighted hat projection to a vector or matrix of length n."""
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.n:
            raise ValueError(f"expected leading dimension {self.n}, got {v.shape[0]}")
        return self.hat_basis @ (self.hat_basis.T @ v)

    def residual_coordinates(self, v):
        """Q' v of a vector or matrix ``v`` of length n, where Q is the
        orthonormal n x (n-d) basis of the residual space: Q @ Q.T
        reproduces I - H and Q.T @ Q is the identity.

        Q is the trailing n - d columns of a complete Householder QR of
        ``hat_basis``, never formed: Q' v is the last n - d entries of
        H_d ... H_1 v, one reflector at a time. Householder QR gives the
        same basis whatever the BLAS thread count (an eigensolver need not,
        since the eigenvalue 1 is repeated).
        """
        n, d = self.n, self.d
        if n - d < 2:
            raise ValueError("residual space must have dimension at least 2")
        v = np.array(v, dtype=float)
        # Row j of h holds reflector j below its diagonal; its entry j is 1.
        h, tau = np.linalg.qr(self.hat_basis, mode="raw")
        for j in range(d):
            u = h[j, j:].copy()
            u[0] = 1.0
            v[j:] -= np.multiply.outer(tau[j] * u, u @ v[j:])
        return v[d:]

    def q_factor(self):
        """Dense n x (n-d) residual basis Q of ``residual_coordinates``."""
        return self.residual_coordinates(np.eye(self.n)).T


def expit(x):
    """Logistic function 1 / (1 + exp(-x)); exp(-x) overflows to inf below
    about -709, which gives 0."""
    return _expit_of_negated(np.negative(x, dtype=float))


def _expit_of_negated(a):
    """Overwrite the float array ``a`` of -x with expit(x) and return it."""
    with np.errstate(over="ignore"):
        np.exp(a, out=a)
        a += 1.0
        return np.divide(1.0, a, out=a)


def _qr_solve(a, rhs):
    """Least-squares solve via economic QR: (coef, basis), where ``basis``
    is the orthonormal factor, rank-checked by ``_solve_full_rank``."""
    q, r = np.linalg.qr(a)
    return _solve_full_rank(r, q.T @ rhs, a.shape), q


def _solve_full_rank(r, rhs, shape):
    """Solve r c = rhs for the triangular factor ``r`` of a design of
    ``shape``; SingularDesignError when ``r`` is numerically singular."""
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag.min() <= diag.max() * np.finfo(float).eps * max(shape):
        raise SingularDesignError("design matrix is numerically rank deficient")
    return np.linalg.solve(r, rhs)


def lstsq_residuals(x, y):
    """Residuals of the least-squares fit of ``y`` on ``x`` from the R of
    [x y] alone, R[:p, :p] c = R[:p, p], rank-checked as by ``_qr_solve``."""
    p = x.shape[1]
    r = np.linalg.qr(np.column_stack([x, y]), mode="r")
    return y - x @ _solve_full_rank(r[:p, :p], r[:p, p], x.shape)


class BatchIrls(NamedTuple):
    """Binomial IRLS fits of a batch of responses, one row each.

    ``iterations`` counts the passes of the shared loop, which ends once
    every row has converged or separated. A row is ``converged`` once a
    Newton step, the change of its coefficients over one pass, was small
    relative to the coefficients (IRLS_STEP_TOL). A row failed when one of
    its systems x' W x was ``singular`` (a Cholesky pivot of
    ``cholesky_inverse`` not positive and finite), its probabilities on the
    last pass were ``separated`` (within SEPARATION_TOL of 0 or 1) or it did
    not reach ``converged``. ``mu`` is the loop's own buffer, so a caller may
    overwrite it.
    """

    coef: np.ndarray
    mu: np.ndarray
    iterations: int
    singular: np.ndarray
    separated: np.ndarray
    converged: np.ndarray

    @property
    def ok(self):
        return self.converged & ~self.singular & ~self.separated


def cholesky_inverse(a):
    """L^-1 of the Cholesky factor L L' = a of every system of a
    (batch, d, d) stack, and the mask of systems that are positive definite.

    The factor is vectorized over the batch and loops over d only. A system
    is singular when one of its pivots is not positive and finite; it takes
    the placeholder pivot 1 there and is masked out, so nothing raises and
    every entry stays finite. A system with a non-finite entry is factored
    as the zero matrix, which fails its first pivot.
    """
    batch, d, _ = a.shape
    finite = np.isfinite(a).all(axis=(1, 2))
    a = np.where(finite[:, None, None], a, 0.0)
    chol, inv = np.zeros_like(a), np.zeros_like(a)
    ok = np.ones(batch, dtype=bool)
    for j in range(d):
        pivot = a[:, j, j] - np.einsum("bk,bk->b", chol[:, j, :j], chol[:, j, :j])
        regular = np.isfinite(pivot) & (pivot > 0)
        ok &= regular
        l_jj = np.sqrt(np.where(regular, pivot, 1.0))
        chol[:, j, j], inv[:, j, j] = l_jj, 1.0 / l_jj
        below = a[:, j + 1 :, j] - np.einsum("bik,bk->bi", chol[:, j + 1 :, :j], chol[:, j, :j])
        chol[:, j + 1 :, j] = below / l_jj[:, None]
        inv[:, j, :j] = -np.einsum("bk,bki->bi", chol[:, j, :j], inv[:, :j, :j]) / l_jj[:, None]
    return inv, ok


def outer_rows(x):
    """(n, d*d) matrix whose row i is the flattened outer product x_i x_i',
    so that ``w @ outer_rows(x)`` stacks the Gram matrices x' diag(w) x."""
    n, d = x.shape
    return (x[:, :, None] * x[:, None, :]).reshape(n, d * d)


def _clip_separated(mu, coef, x_scale):
    """Clip the probabilities ``mu`` to [1e-12, 1 - 1e-12] in place and
    return the mask of rows that reached 0 or 1 within SEPARATION_TOL. Only
    a row whose bound sum_i |coef_i| * max_n |x_ni| on |eta| reaches
    _SEPARATION_ETA is clipped and scanned: every other row's probabilities
    lie at least 2.7e-10 from 0 and 1, where the clip changes nothing."""
    separated = np.zeros(len(mu), dtype=bool)
    candidates = np.flatnonzero(np.abs(coef) @ x_scale >= _SEPARATION_ETA)
    if candidates.size:
        near = np.clip(mu[candidates], 1e-12, 1.0 - 1e-12)
        mu[candidates] = near
        separated[candidates] = (near.min(axis=1) < SEPARATION_TOL) | (
            near.max(axis=1) > 1.0 - SEPARATION_TOL
        )
    return separated


def binomial_irls(x_e, ys, buffers=None, start=None):
    """Logistic fit of every 0/1 row of ``ys`` on ``x_e`` by batch IRLS.

    Pass 1 is the Newton step from ``start``, one coefficient vector that
    the whole batch shares (zeros, where mu is 1/2, by default). Its mu0 is
    one length-n vector, so the step start + (x' W0 x)^-1 (ys x - mu0 x)
    solves one system for the whole batch. Every later pass is the Newton
    step coef += (x' W x)^-1 (ys x - mu x) of each row, with ys x formed
    once on pass 1 and the stacked x' W x taken as one product of the
    weights and ``outer_rows(x_e)``. Each system, pass 1's as a batch of
    one, is solved as L^-T L^-1 through ``cholesky_inverse``, and a singular
    one gives a zero step. mu, as expit of coef (-x'), and the weights live
    in two (rows, n) buffers updated in place, the pair ``buffers`` or two
    fresh ones, and ``mu`` of the result is the first. A row has converged
    once its Newton step is at most IRLS_STEP_TOL times 1 + max|coef| in the
    max norm, so none converges on pass 1. Separated coefficients diverge
    and never converge; separation is diagnosed on the probabilities of
    every pass. The loop stops when every row has converged or separated,
    or after IRLS_MAX_ITER passes.
    """
    batch, d = ys.shape[0], x_e.shape[1]
    start = np.zeros(d) if start is None else start
    gram, neg_xt, y_x = outer_rows(x_e), -x_e.T, ys @ x_e
    mu0 = expit(x_e @ start)
    (inv,), (ok,) = cholesky_inverse(((mu0 * (1.0 - mu0)) @ gram).reshape(1, d, d))
    coef = start + ok * (((y_x - mu0 @ x_e) @ inv.T) @ inv)
    singular, converged = np.full(batch, not ok), np.zeros(batch, dtype=bool)
    x_scale = np.abs(x_e).max(axis=0)
    mu, work = (np.empty(ys.shape), np.empty(ys.shape)) if buffers is None else buffers
    iteration = 1
    while True:
        _expit_of_negated(np.matmul(coef, neg_xt, out=mu))
        separated = _clip_separated(mu, coef, x_scale)
        if iteration >= IRLS_MAX_ITER or (converged | separated).all():
            break
        iteration += 1
        np.subtract(1.0, mu, out=work)
        work *= mu
        inv, ok = cholesky_inverse((work @ gram).reshape(batch, d, d))
        half = np.einsum("bij,bj->bi", inv, y_x - mu @ x_e)
        step = np.einsum("bji,bj->bi", inv, half)
        step[~ok] = 0.0
        singular |= ~ok
        coef += step
        limit = IRLS_STEP_TOL * (1.0 + np.abs(coef).max(axis=1))
        converged |= np.abs(step).max(axis=1) <= limit
    return BatchIrls(coef, mu, iteration, singular, separated, converged)


def fit_null(family, y, x_e):
    """Fit the covariate-only model of ``y`` on ``x_e`` for ``family``.

    Normal responses use exact least squares with dispersion estimated as
    ||residuals||^2 / (n - d). Binomial responses are the batch-of-one case
    of ``binomial_irls``: a Newton step of at most IRLS_STEP_TOL relative to
    the coefficients within IRLS_MAX_ITER iterations; fits whose
    probabilities collapse to 0 or 1 are rejected as quasi-separated.
    """
    if not isinstance(family, Family):
        raise ValueError(f"unsupported family: {family!r}")
    y = np.ascontiguousarray(y, dtype=float)
    x_e = np.ascontiguousarray(x_e, dtype=float)
    n, d = x_e.shape
    if y.shape != (n,):
        raise ValueError(f"y must have shape ({n},)")
    for arr, name in ((y, "y"), (x_e, "x_e")):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} has non-finite entries")
    if n < d + 1:
        raise ValueError(f"need at least d+1={d + 1} observations, got {n}")
    if family is Family.BINOMIAL and not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("binomial family requires a 0/1 response")

    # The least-squares fit is also the rank check of x_e for both families.
    coef, basis = _qr_solve(x_e, y)
    iterations = 1
    if family is Family.NORMAL:
        mu = x_e @ coef
        phi = float((y - mu) @ (y - mu)) / (n - d)
    else:
        fit = binomial_irls(x_e, y[None, :])
        if fit.singular[0]:
            raise SingularDesignError("weighted design matrix is singular")
        if fit.separated[0]:
            raise QuasiSeparationError(
                "fitted probabilities reached 0/1; data are quasi-separated"
            )
        if not fit.converged[0]:
            raise ConvergenceError(
                f"IRLS did not converge within {IRLS_MAX_ITER} iterations"
            )
        coef, mu, iterations, phi = fit.coef[0], fit.mu[0], fit.iterations, 1.0
        # The hat basis belongs to the converged weights.
        _, basis = _qr_solve(np.sqrt(family.variance(mu))[:, None] * x_e, y)
    return NullModelFit(
        family=family,
        x_e=x_e,
        coef=coef,
        mu_e=mu,
        variance_diag=family.variance(mu, phi),
        residuals=y - mu,
        phi_hat=phi,
        hat_basis=basis,
        iterations=iterations,
    )
