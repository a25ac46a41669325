"""Marginal sensitivity model: conformal-weight bounds, cross-group bounds,
confounding-strength calibration from observed covariates (the p + 1
leave-one-covariate-out propensity fits run as one batched fit), and the
minimal miscoverage admitting a finite interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import write_csv
from .predictors import drop_one_propensities

__all__ = [
    "SensitivitySpec",
    "weight_bounds_same_arm",
    "weight_bounds_cross_arm",
    "calibrate_gamma",
    "gamma_summary",
    "emit_gamma_summary_csv",
    "min_miscoverage",
]


# Largest gamma accepted.  1e8 lies between the 1e7 that tests sweep and
# sample and 1e14, the largest gamma at which the CSSA probe's greedy and
# LP routes were seen to agree (from about 2e15 its probe values can rise
# with the tail position by rounding), and far past any confounding
# strength a study would posit.
GAMMA_MAX = 1e8


def check_gamma(gamma):
    """Raise ValueError unless gamma is a number or a non-empty 1-D grid of
    finite numbers in [1, GAMMA_MAX]: NaN, inf (which bounds no weight)
    and bools are refused."""
    grid = np.asarray(gamma)
    if grid.dtype == bool or grid.ndim > 1 or grid.size == 0:
        raise ValueError("gamma must be a number or a non-empty 1-D grid "
                         f"of numbers, got {gamma!r}")
    for g in grid.ravel():
        if not (math.isfinite(g) and 1.0 <= g <= GAMMA_MAX):
            raise ValueError("gamma must be a finite number >= 1 and <= "
                             f"{GAMMA_MAX:g}, got {g}")


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


def weight_bounds_same_arm(e_hat, gamma, t, p_t):
    """Bounds on the conformal weight when training and target share arm t:
    p_t * (1 + the cross-arm bounds of arm 1 - t), i.e. (1 + odds/gamma) p_t
    and (1 + gamma odds) p_t with odds = ((1 - e)/e)^(2t-1), uniform in y.
    At gamma = 1 both equal the weighted-conformal weight p_t / P(T=t | x)
    of the unconfounded baseline: the package's only conformal-weight
    formula.  A 1-D gamma grid gives (G, n) bounds, one row per gamma."""
    lo, hi = weight_bounds_cross_arm(e_hat, gamma, 1 - t)
    return (1.0 + lo) * p_t, (1.0 + hi) * p_t


def weight_bounds_cross_arm(e_hat, gamma, t):
    """Bounds when training on arm 1-t and predicting Y(t) of the opposite
    group: [odds/gamma, gamma*odds] with odds = ((1-e)/e)^(1-2t), the
    package's one statement of the sensitivity model's odds; a 1-D gamma
    grid gives one row per gamma."""
    e_hat = np.asarray(e_hat, dtype=float)
    if not np.all((e_hat > 0.0) & (e_hat < 1.0)):  # NaN fails it too
        raise ValueError("propensities must be pre-clipped into (0, 1)")
    check_gamma(gamma)
    if np.ndim(gamma):  # a grid's column broadcasts to one row per gamma
        gamma = np.reshape(gamma, (-1, 1))
    odds = ((1.0 - e_hat) / e_hat) ** (1 - 2 * t)
    return odds / gamma, gamma * odds


def calibrate_gamma(ds):
    """Leave-one-covariate-out confounding-strength reference: for each
    unit i and covariate j, the odds ratio between the full propensity fit
    and the fit without covariate j (one batched `drop_one_propensities`
    call), folded to >= 1.  Returns an (n, p) matrix."""
    if ds.covariate_dim < 2:
        raise ValueError("need at least 2 covariates")
    e = drop_one_propensities(ds.covariates, ds.treatment)
    odds = e / (1.0 - e)
    ratio = odds[:, -1:] / odds[:, :-1]
    return np.where(ratio >= 1.0, ratio, 1.0 / ratio)


def gamma_summary(gamma_matrix, names):
    """Per-covariate (name, median, p90, p99) rows for reporting."""
    gamma_matrix = np.asarray(gamma_matrix, dtype=float)
    median = np.median(gamma_matrix, axis=0)
    p90, p99 = np.percentile(gamma_matrix, [90, 99], axis=0)
    return [{"covariate": name, "median": float(m), "p90": float(a),
             "p99": float(b)} for name, m, a, b in zip(names, median, p90, p99)]


def emit_gamma_summary_csv(rows, path):
    header = ["covariate", "median", "p90", "p99"]
    write_csv(path, header, ([row[k] for k in header] for row in rows))


def min_miscoverage(e_cal, e_target, gamma, t, p_t) -> float:
    """Smallest miscoverage alpha* admitting a finite-length interval.

    alpha* = w_hi(X) / (sum_i w_lo(X_i) + w_hi(X)); the interval at level
    1 - alpha is bounded iff alpha >= alpha*.  At alpha = alpha* the
    target's mass ties the level and the quantile stays at the largest
    finite score; the solvers compare at alpha plus a 1e-12 tolerance, so
    it stays finite that little below alpha* too.
    """
    e_cal = np.asarray(e_cal, dtype=float)
    if e_cal.size == 0:
        raise ValueError("empty calibration set")
    w_lo, _ = weight_bounds_same_arm(e_cal, gamma, t, p_t)
    _, w_hi_t = weight_bounds_same_arm(np.array([e_target]), gamma, t, p_t)
    return float(w_hi_t[0] / (w_lo.sum() + w_hi_t[0]))
