"""Output checks computed independently of permscan.

Each check compares a permscan output with plain-numpy arithmetic or with a
property the method guarantees, never with a stored copy of an earlier
output. A failed check raises ``CheckFailed`` naming what disagreed.
"""

import math

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with its independent check."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def ols_scores(y, x_e, x_g):
    """Normal-family score statistics from plain least squares:
    t_j = x_j' r / sqrt(phi * x_j' (I - H) x_j), phi = r'r / (n - d)."""
    n, d = x_e.shape
    coef = np.linalg.lstsq(x_e, y, rcond=None)[0]
    resid = y - x_e @ coef
    phi = resid @ resid / (n - d)
    marker_resid = x_g - x_e @ np.linalg.lstsq(x_e, x_g, rcond=None)[0]
    var = phi * np.einsum("ij,ij->j", marker_resid, marker_resid)
    return (x_g.T @ resid) / np.sqrt(var)


def logistic_scores(y, x_e, x_g):
    """Binomial-family score statistics from a Newton-Raphson logistic fit
    run to a step below 1e-13: t_j = x_j'(y - mu) / sqrt(x_j' W x_j -
    x_j' W X (X' W X)^-1 X' W x_j)."""
    beta = np.zeros(x_e.shape[1])
    for _ in range(100):
        mu = 1.0 / (1.0 + np.exp(-(x_e @ beta)))
        w = mu * (1.0 - mu)
        step = np.linalg.solve(x_e.T @ (w[:, None] * x_e), x_e.T @ (y - mu))
        beta = beta + step
        if np.max(np.abs(step)) < 1e-13:
            break
    else:
        raise CheckFailed("reference Newton fit did not converge")
    mu = 1.0 / (1.0 + np.exp(-(x_e @ beta)))
    w = mu * (1.0 - mu)
    info = x_e.T @ (w[:, None] * x_e)
    cross = x_e.T @ (w[:, None] * x_g)
    var = w @ (x_g**2) - np.einsum("ij,ij->j", cross, np.linalg.solve(info, cross))
    return (x_g.T @ (y - mu)) / np.sqrt(var)


def max_abs_diff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def scores_match(observed, reference, tol, what):
    diff = max_abs_diff(observed, reference)
    require(diff <= tol, f"{what}: score statistics differ from the reference by {diff:.3g} > {tol:g}")


def q_factor_is_residual_basis(q, x_e, tol=1e-10):
    """Q'Q = I and QQ' = I - H, with H from a plain least-squares projection."""
    n, d = x_e.shape
    require(q.shape == (n, n - d), f"q_factor has shape {q.shape}, expected {(n, n - d)}")
    gram = max_abs_diff(q.T @ q, np.eye(n - d))
    require(gram <= tol, f"q_factor: |Q'Q - I| = {gram:.3g} > {tol:g}")
    hat = x_e @ np.linalg.pinv(x_e)
    proj = max_abs_diff(q @ q.T, np.eye(n) - hat)
    require(proj <= tol, f"q_factor: |QQ' - (I - H)| = {proj:.3g} > {tol:g}")


def alpha_hats_on_grid(alpha_hat, b, what):
    """alpha_hat_k = j / (B + 1) for an integer j in 1..B+1."""
    scaled = np.asarray(alpha_hat) * (b + 1)
    off = max_abs_diff(scaled, np.round(scaled))
    require(off <= 1e-9, f"{what}: alpha_hat off the j/(B+1) grid by {off:.3g}")
    require(
        np.all((np.round(scaled) >= 1) & (np.round(scaled) <= b + 1)),
        f"{what}: alpha_hat outside [1/(B+1), 1]",
    )


def genotypes_valid(x_g, n, m, maf_range):
    """Shape n x m, entries 0/1/2, no monomorphic marker, and every allele
    frequency within maf_range widened by 4 binomial standard errors."""
    require(x_g.shape == (n, m), f"genotype matrix has shape {x_g.shape}, expected {(n, m)}")
    require(np.isin(x_g, (0.0, 1.0, 2.0)).all(), "genotype entries outside {0, 1, 2}")
    require(
        np.all(x_g.min(axis=0) < x_g.max(axis=0)), "genotype matrix has a monomorphic marker"
    )
    low, high = maf_range
    freq = x_g.sum(axis=0) / (2 * n)
    lower = low - 4 * math.sqrt(low * (1 - low) / (2 * n))
    upper = high + 4 * math.sqrt(high * (1 - high) / (2 * n))
    require(
        np.all((freq >= lower) & (freq <= upper)),
        f"allele frequencies span [{freq.min():.4f}, {freq.max():.4f}], "
        f"outside [{lower:.4f}, {upper:.4f}]",
    )


def two_sided_p(t):
    return np.array([math.erfc(abs(v) / math.sqrt(2.0)) for v in t])


def scan_report_valid(report, t_reference, n, m, b, alpha, scheme, tol):
    """A JSON scan report against recomputed statistics and the maxT rules."""
    config = report["config"]
    require(
        (config["n"], config["m"], config["b"], config["scheme"]) == (n, m, b, scheme),
        f"{scheme}: report config {config} does not match the request",
    )
    markers = report["markers"]
    require(len(markers) == m, f"{scheme}: report lists {len(markers)} markers, expected {m}")
    t = np.array([marker["t"] for marker in markers])
    p = np.array([marker["p_value"] for marker in markers])
    rejected = np.array([marker["rejected"] for marker in markers])
    scores_match(t, t_reference, tol, f"{scheme} report")
    expected_p = two_sided_p(t)
    require(
        np.allclose(p, expected_p, rtol=1e-12, atol=1e-300),
        f"{scheme}: p_value differs from 2*Phi(-|t|)",
    )
    cutoff = report["cutoff"]
    c = cutoff["c"]
    require(
        np.array_equal(rejected, np.abs(t) >= c), f"{scheme}: rejected != (|t| >= c)"
    )
    require(
        math.isclose(cutoff["alpha_loc"], math.erfc(c / math.sqrt(2.0)), rel_tol=1e-12),
        f"{scheme}: alpha_loc differs from 2*Phi(-c)",
    )
    require(
        cutoff["quantile_index"] == math.ceil(b * (1 - alpha)),
        f"{scheme}: quantile_index {cutoff['quantile_index']} != ceil(B(1-alpha))",
    )
    require(
        cutoff["ci_low"] <= cutoff["quantile_value"] <= cutoff["ci_high"],
        f"{scheme}: quantile_value lies outside [ci_low, ci_high]",
    )
