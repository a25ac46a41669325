"""Core conformal machinery.

Nonconformity scores, weighted discrete quantiles with stable tie
handling, the one weighted-quantile search over box weights that every
threshold solver shares, and the baseline weighted conformal thresholds
that are valid under unconfoundedness: the point box of the sensitivity
model at gamma = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .msm import weight_bounds_same_arm

__all__ = [
    "PredictiveInterval",
    "WeightedDiscreteDist",
    "score_abs_residual",
    "score_cqr",
    "weighted_quantile",
    "wcp_threshold_nuc_batch",
    "calibration_scores",
    "score_band",
    "cqr_score_interval",
]

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class PredictiveInterval:
    """Interval endpoints plus the quantile threshold that produced them.

    An unbounded side has the endpoint None; no large-float sentinels are
    used.
    """

    lower: float | None
    upper: float | None
    threshold: float

    @property
    def lower_unbounded(self) -> bool:
        return self.lower is None

    @property
    def upper_unbounded(self) -> bool:
        return self.upper is None

    @property
    def bounded(self) -> bool:
        return not (self.lower_unbounded or self.upper_unbounded)

    @property
    def width(self) -> float:
        if not self.bounded:
            return np.inf
        return self.upper - self.lower

    def contains(self, y) -> bool:
        lo_ok = self.lower_unbounded or y >= self.lower
        hi_ok = self.upper_unbounded or y <= self.upper
        return bool(lo_ok and hi_ok)


class WeightedDiscreteDist:
    """Discrete distribution sum_i m_i * delta(atom_i); atoms may be +inf."""

    def __init__(self, atoms, masses):
        atoms = np.asarray(atoms, dtype=float)
        masses = np.asarray(masses, dtype=float)
        if atoms.shape != masses.shape or atoms.ndim != 1:
            raise ValueError("atoms and masses must be equal-length vectors")
        if not np.all(np.isfinite(masses)):
            raise ValueError("masses must be finite")
        if np.any(masses < 0):
            raise ValueError("masses must be nonnegative")
        total = masses.sum()
        if total <= 0:
            raise ValueError("masses sum to zero")
        # renormalize; guards accumulated rounding in long weight sums
        self.atoms = atoms
        self.masses = masses / total


def score_abs_residual(mu_hat, x, y):
    """Absolute-residual nonconformity score |y - mu_hat(x)|."""
    return np.abs(np.asarray(y, dtype=float) - mu_hat.predict(x))


def score_cqr(q_hat, x, y):
    """CQR score max(q_lo(x) - y, y - q_hi(x)); negative inside the band."""
    q_lo, q_hi = q_hat.predict(x)
    y = np.asarray(y, dtype=float)
    return np.maximum(q_lo - y, y - q_hi)


def weighted_quantile(dist: WeightedDiscreteDist, level: float) -> float:
    """Smallest atom whose cumulative mass reaches `level`.

    Atoms are sorted ascending with ties merged (mass of equal atoms
    accumulates before the comparison, stable in the original order).
    Returns +inf when only an infinite atom reaches the level.
    """
    if not (0.0 <= level <= 1.0):
        raise ValueError("level must lie in [0, 1]")
    order = np.argsort(dist.atoms, kind="stable")
    atoms = dist.atoms[order]
    cum = np.cumsum(dist.masses[order])
    # group-merge equal atoms: comparison uses the last cumsum of each group
    is_last = np.ones(atoms.shape[0], dtype=bool)
    is_last[:-1] = atoms[1:] != atoms[:-1]
    g_atoms = atoms[is_last]
    g_cum = cum[is_last]
    hit = np.flatnonzero(g_cum >= level - _NORM_TOL)
    if hit.size == 0:
        # only reachable through rounding at level == 1
        return float(g_atoms[-1])
    return float(g_atoms[hit[0]])


def _flip_index(lo_c, hi_c, hi_target, alpha):
    """Greedy stop positions over n calibration atoms plus the sentinel:
    the weighted (1 - alpha) quantile maximized over box weights.

    With pre_lo[j] = sum lo_c[:j] and suf_hi[j] = sum hi_c[j:], flipping
    from position j up (sentinel mass h) leaves a tail above alpha exactly
    when a * pre_lo[j] - (1 - a) * suf_hi[j] < (1 - a) * h.  The left side
    is nondecreasing in j (rounding is monotone), so the largest such j is
    one `searchsorted` away; 0 when there is none.  a = alpha + _NORM_TOL
    decides exact ties the way `weighted_quantile` does.  A point box
    (lo_c = hi_c) gives the plain weighted quantile.
    """
    a = alpha + _NORM_TOL
    pre_lo = np.concatenate([[0.0], np.cumsum(lo_c)])
    suf_hi = np.concatenate([np.cumsum(hi_c[::-1])[::-1], [0.0]])
    key = a * pre_lo - (1.0 - a) * suf_hi
    j = np.searchsorted(key, (1.0 - a) * np.asarray(hi_target), side="left")
    return np.maximum(j - 1, 0)


def wcp_threshold_nuc_batch(scores, e_cal, e_target, t, p_t, alpha):
    """Unconfoundedness thresholds for an array of target propensities.

    The conformal weights p(T=t) / arm-probability(x) are the gamma = 1
    point box of `weight_bounds_same_arm`, the target weight riding on the
    +inf sentinel: `cssa_threshold_batch` over that box with no balance
    rows, each threshold the (1 - alpha) weighted quantile (possibly +inf).
    """
    # function-level: cssa imports this module
    from .cssa import cssa_threshold_batch

    w, _ = weight_bounds_same_arm(e_cal, 1.0, t, p_t)
    w_target, _ = weight_bounds_same_arm(e_target, 1.0, t, p_t)
    return cssa_threshold_batch(scores, w, w, (), alpha, w_target)


def calibration_scores(score, model, x, y):
    """Nonconformity scores of `model` on (x, y): the absolute residual of
    a mean predictor for score "mean", the CQR score of a quantile pair
    for "cqr"."""
    if score == "mean":
        return score_abs_residual(model, x, y)
    if score == "cqr":
        if model is None:
            raise ValueError("cqr score requires a quantile predictor")
        return score_cqr(model, x, y)
    raise ValueError(f"unknown score kind {score!r}")


def score_band(score, model, x):
    """(lower, upper) predictions of `model` at x that a score threshold Q
    widens to the interval [lower - Q, upper + Q]: the mean twice for
    score "mean", the quantile pair for "cqr"."""
    if score == "mean":
        mu = model.predict(x)
        return mu, mu
    return model.predict(x)


def cqr_score_interval(q_lo_target, q_hi_target, threshold) -> PredictiveInterval:
    """Assemble [q_lo - Q, q_hi + Q] for the CQR score; the mean score's
    interval [mu - Q, mu + Q] is the case q_lo = q_hi = mu."""
    if not np.isfinite(threshold):
        return PredictiveInterval(None, None, np.inf)
    return PredictiveInterval(float(q_lo_target - threshold),
                              float(q_hi_target + threshold), float(threshold))
