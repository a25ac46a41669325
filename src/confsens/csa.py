"""Worst-case predictive intervals over the sensitivity-model class.

The quantile maximization over box-bounded conformal weights has a corner
optimum: weights at the largest scores sit at their upper bounds, the rest
at their lower bounds.  The greedy flips weights from the top score (the
+inf sentinel) downward until the normalized flipped tail strictly exceeds
alpha; the threshold is the score at the last flip.  The flip condition is
monotone in the position, so the stop is found by one binary search over
prefix sums of the sorted bounds instead of a loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import (
    PredictiveInterval,
    _flip_index,
    calibration_scores,
    cqr_score_interval,
    score_band,
)
from .msm import SensitivitySpec, weight_bounds_same_arm

__all__ = [
    "GreedyResult",
    "greedy_max_quantile",
    "greedy_threshold_batch",
    "csa_threshold",
    "csa_threshold_batch",
    "csa_interval",
]


@dataclass(frozen=True)
class GreedyResult:
    """Outcome of the greedy quantile maximization.

    `flip_index` is the 0-based position of the returned score among the
    n+1 sorted scores (sentinel last); positions >= flip_index carry their
    upper bounds in `weights`, positions below carry their lower bounds.
    """

    threshold: float
    flip_index: int
    weights: np.ndarray
    iterations: int

    @property
    def unbounded(self) -> bool:
        return not np.isfinite(self.threshold)


def greedy_max_quantile(scores, lo, hi, alpha) -> GreedyResult:
    """Maximize the (1 - alpha) weighted quantile over box weights.

    `scores` must be ascending with a +inf sentinel last; `lo`/`hi` are
    aligned weight bounds.  Work is O(m) for m scores.
    """
    scores = np.asarray(scores, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    m = scores.shape[0]
    if lo.shape[0] != m or hi.shape[0] != m:
        raise ValueError("bounds are misaligned with scores")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if m < 2 or not np.isinf(scores[-1]):
        raise ValueError("scores must end with the +inf sentinel")
    if np.any(np.diff(scores[:-1]) < 0):
        raise ValueError("scores must be sorted ascending")

    k = int(_flip_index(lo[:-1], hi[:-1], hi[-1], alpha))
    weights = lo.copy()
    weights[k:] = hi[k:]
    return GreedyResult(threshold=float(scores[k]), flip_index=k,
                        weights=weights, iterations=m - k)


def greedy_threshold_batch(scores_sorted, lo_c, hi_c, hi_target, alpha):
    """Greedy thresholds for many target points sharing one calibration set.

    `scores_sorted` are the n ascending calibration scores (no sentinel);
    `lo_c`/`hi_c` the aligned calibration weight bounds; `hi_target` the
    per-target sentinel upper bounds.  Equal to `greedy_max_quantile` per
    target; work is O(n + m log n) for m targets.
    """
    scores_sorted = np.asarray(scores_sorted, dtype=float)
    hi_target = np.atleast_1d(np.asarray(hi_target, dtype=float))
    j_star = _flip_index(np.asarray(lo_c, dtype=float),
                         np.asarray(hi_c, dtype=float), hi_target, alpha)
    return np.append(scores_sorted, np.inf)[j_star]


def csa_threshold(scores, e_cal, e_target, spec: SensitivitySpec, p_t) -> GreedyResult:
    """Sort scores, attach the sentinel, derive same-arm weight bounds from
    the propensities, and run the greedy maximization."""
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("empty calibration set")
    e_cal = np.asarray(e_cal, dtype=float)
    order = np.argsort(scores, kind="stable")
    lo_c, hi_c = weight_bounds_same_arm(e_cal[order], spec.gamma, spec.t, p_t)
    lo_t, hi_t = weight_bounds_same_arm(np.array([e_target]), spec.gamma,
                                        spec.t, p_t)
    v = np.append(scores[order], np.inf)
    lo = np.append(lo_c, lo_t)
    hi = np.append(hi_c, hi_t)
    return greedy_max_quantile(v, lo, hi, spec.alpha)


def csa_threshold_batch(scores, e_cal, e_target, spec: SensitivitySpec, p_t):
    """Worst-case thresholds for an array of target propensities."""
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("empty calibration set")
    order = np.argsort(scores, kind="stable")
    lo_c, hi_c = weight_bounds_same_arm(np.asarray(e_cal, dtype=float)[order],
                                        spec.gamma, spec.t, p_t)
    _, hi_t = weight_bounds_same_arm(np.asarray(e_target, dtype=float),
                                     spec.gamma, spec.t, p_t)
    return greedy_threshold_batch(scores[order], lo_c, hi_c, hi_t, spec.alpha)


def csa_interval(mu_hat, propensity, cal_x, cal_y, x_target,
                 spec: SensitivitySpec, p_t, score="mean",
                 q_hat=None) -> PredictiveInterval:
    """Worst-case predictive interval for Y(t) at one target point:
    `csa_threshold_batch` for one target.

    The weight bounds are uniform in y, so the threshold is computed once
    and the interval assembled analytically from the fitted predictor.
    """
    cal_x = np.asarray(cal_x, dtype=float)
    x_target = np.asarray(x_target, dtype=float).reshape(1, -1)
    model = q_hat if score == "cqr" else mu_hat
    scores = calibration_scores(score, model, cal_x, cal_y)
    q = csa_threshold_batch(scores, propensity.predict(cal_x),
                            propensity.predict(x_target), spec, p_t)
    lo, hi = score_band(score, model, x_target)
    return cqr_score_interval(float(lo[0]), float(hi[0]), q[0])
