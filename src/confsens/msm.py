"""Marginal sensitivity model: conformal-weight bounds, cross-group bounds,
confounding-strength calibration from observed covariates, and the minimal
miscoverage admitting a finite interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import write_csv
from .predictors import fit_propensity

__all__ = [
    "SensitivitySpec",
    "weight_bounds_same_arm",
    "weight_bounds_cross_arm",
    "calibrate_gamma",
    "gamma_summary",
    "emit_gamma_summary_csv",
    "min_miscoverage",
]


def check_gamma(gamma):
    """Raise ValueError unless gamma is a finite number >= 1 (NaN and inf
    are rejected: an infinite gamma bounds no weight)."""
    if not (math.isfinite(gamma) and gamma >= 1.0):
        raise ValueError(f"gamma must be a finite number >= 1, got {gamma}")


def check_alpha(alpha):
    """Raise ValueError unless alpha lies in (0, 1); NaN is rejected."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class SensitivitySpec:
    """Confounding strength gamma >= 1, miscoverage alpha and arm t."""

    gamma: float
    alpha: float
    t: int

    def __post_init__(self):
        check_gamma(self.gamma)
        check_alpha(self.alpha)
        if self.t not in (0, 1):
            raise ValueError("t must be 0 or 1")


def _check_e(e_hat):
    e_hat = np.asarray(e_hat, dtype=float)
    if np.any(e_hat <= 0.0) or np.any(e_hat >= 1.0):
        raise ValueError("propensities must be pre-clipped into (0, 1)")
    return e_hat


def weight_bounds_same_arm(e_hat, gamma, t, p_t):
    """Bounds on the conformal weight when training and target share arm t.

    w_lo = (1 + (1/gamma) * odds) * p_t, w_hi = (1 + gamma * odds) * p_t
    with odds = ((1 - e)/e)^(2t-1).  The bounds are uniform in y.  At
    gamma = 1 both equal the weighted-conformal weight p_t / P(T=t | x) of
    the unconfounded baseline: the package's only conformal-weight formula.
    """
    e_hat = _check_e(e_hat)
    check_gamma(gamma)
    odds = ((1.0 - e_hat) / e_hat) ** (2 * t - 1)
    w_lo = (1.0 + odds / gamma) * p_t
    w_hi = (1.0 + gamma * odds) * p_t
    return w_lo, w_hi


def weight_bounds_cross_arm(e_hat, gamma, t):
    """Bounds when training on arm 1-t and predicting Y(t) of the opposite
    group: [odds/gamma, gamma*odds] with odds = (e/(1-e))^(2t-1)."""
    e_hat = _check_e(e_hat)
    check_gamma(gamma)
    odds = (e_hat / (1.0 - e_hat)) ** (2 * t - 1)
    return odds / gamma, gamma * odds


def calibrate_gamma(ds):
    """Leave-one-covariate-out confounding-strength reference.

    For each unit i and covariate j, computes the odds ratio between the
    full propensity fit and the fit without covariate j, folded to >= 1.
    Returns an (n, p) matrix.
    """
    p = ds.covariate_dim
    if p < 2:
        raise ValueError("need at least 2 covariates")
    e_full = fit_propensity(ds.covariates, ds.treatment).predict(ds.covariates)
    odds_full = e_full / (1.0 - e_full)
    out = np.empty((ds.n, p))
    for j in range(p):
        x = ds.covariates[:, [c for c in range(p) if c != j]]
        e_drop = fit_propensity(x, ds.treatment).predict(x)
        ratio = odds_full / (e_drop / (1.0 - e_drop))
        out[:, j] = np.where(ratio >= 1.0, ratio, 1.0 / ratio)
    return out


def gamma_summary(gamma_matrix, names=None):
    """Per-covariate (label, median, p90, p99) rows for reporting."""
    gamma_matrix = np.asarray(gamma_matrix, dtype=float)
    p = gamma_matrix.shape[1]
    labels = names or [f"x{j + 1}" for j in range(p)]
    rows = []
    for j in range(p):
        col = gamma_matrix[:, j]
        rows.append({
            "covariate": labels[j],
            "median": float(np.median(col)),
            "p90": float(np.percentile(col, 90)),
            "p99": float(np.percentile(col, 99)),
        })
    return rows


def emit_gamma_summary_csv(rows, path):
    header = ["covariate", "median", "p90", "p99"]
    write_csv(path, header, ([row[k] for k in header] for row in rows))


def min_miscoverage(e_cal, e_target, gamma, t, p_t) -> float:
    """Smallest miscoverage alpha* admitting a finite-length interval.

    alpha* = w_hi(X) / (sum_i w_lo(X_i) + w_hi(X)); a bounded interval at
    level 1 - alpha exists iff alpha > alpha*.
    """
    e_cal = np.asarray(e_cal, dtype=float)
    if e_cal.size == 0:
        raise ValueError("empty calibration set")
    w_lo, _ = weight_bounds_same_arm(e_cal, gamma, t, p_t)
    _, w_hi_t = weight_bounds_same_arm(np.array([e_target]), gamma, t, p_t)
    return float(w_hi_t[0] / (w_lo.sum() + w_hi_t[0]))
