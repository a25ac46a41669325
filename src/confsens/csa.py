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

from .conformal import PredictiveInterval, _flip_index
from .cssa import _sorted_box, _target_interval, cssa_threshold_batch
from .msm import SensitivitySpec, check_alpha, weight_bounds_same_arm

__all__ = [
    "GreedyResult",
    "greedy_max_quantile",
    "greedy_threshold_batch",
    "csa_threshold",
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
    check_alpha(alpha)
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
    """Greedy thresholds for many target points sharing one calibration set:
    `cssa_threshold_batch` with no balance rows.

    `scores_sorted` are the n calibration scores in any order (no
    sentinel; the routine stable-sorts them); `lo_c`/`hi_c` the aligned
    calibration weight bounds; `hi_target` the per-target sentinel upper
    bounds.  Equal to `greedy_max_quantile` per target; work is
    O(n log n + m log n) for m targets.
    """
    return cssa_threshold_batch(scores_sorted, lo_c, hi_c, None, alpha,
                                hi_target)


def csa_threshold(scores, e_cal, e_target, spec: SensitivitySpec, p_t) -> GreedyResult:
    """The greedy corner at one target: same-arm weight bounds from the
    propensities, checked and sorted as `cssa_threshold_batch` does, and
    `greedy_max_quantile` over them with the target on the sentinel."""
    lo_c, hi_c = weight_bounds_same_arm(e_cal, spec.gamma, spec.t, p_t)
    lo_t, hi_t = weight_bounds_same_arm(np.array([e_target]), spec.gamma,
                                        spec.t, p_t)
    _, v, lo, hi = _sorted_box(scores, lo_c, hi_c, spec.alpha)
    return greedy_max_quantile(v, np.append(lo, lo_t), np.append(hi, hi_t),
                               spec.alpha)


def csa_interval(mu_hat, propensity, cal_x, cal_y, x_target,
                 spec: SensitivitySpec, p_t, score="mean",
                 q_hat=None) -> PredictiveInterval:
    """Worst-case predictive interval for Y(t) at one target point: the
    sharpened interval's body with no balance rows."""
    return _target_interval(mu_hat, q_hat, score, propensity, cal_x, cal_y,
                            propensity.predict(cal_x), x_target, spec, p_t)
