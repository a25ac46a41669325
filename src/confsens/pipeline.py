"""One fitted pipeline per treatment arm, shared by the command line and
the experiment harness.

`fit_arms` splits the data once and fits one propensity model; each arm
keeps its models and the scores, propensities and balance constraint of
its calibration units, fitting the quantile model for a "cqr" score at
each call's alpha.  `FittedArm.intervals` then solves all targets in one
batch call: only the sentinel weight belongs to a target.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .conformal import calibration_scores, score_band
from .cssa import balance_constraints, cssa_threshold_batch
from .dataset import arm_indices, split
from .msm import SensitivitySpec, weight_bounds_same_arm
from .predictors import fit_mean, fit_propensity, fit_quantile, marginal_treatment_prob

__all__ = ["FittedArm", "fit_arms"]


class _Fold:
    """The split and propensity model both arms share, and the predictions
    made at the latest targets, so each model predicts a target set once."""

    def __init__(self, ds, seed):
        prelim_idx, cal_idx = split(ds, seed)
        self.prelim = ds.subset(prelim_idx)
        self.cal = ds.subset(cal_idx)
        self.propensity = fit_propensity(self.prelim.covariates,
                                         self.prelim.treatment)
        self.e_cal = self.propensity.predict(self.cal.covariates)
        self._x_target = None

    def at(self, x_target):
        """Prediction cache for `x_target`, emptied when the targets change."""
        if self._x_target is None or not np.array_equal(self._x_target,
                                                        x_target):
            self._x_target = x_target.copy()
            self._cache = {"e": self.propensity.predict(x_target)}
        return self._cache


class FittedArm:
    """Arm t of a fold; `scale` is the k-NN metric scaling."""

    def __init__(self, fold: _Fold, t, scale=None):
        self.fold, self.t, self.scale = fold, t, scale
        pre_idx = arm_indices(fold.prelim, t)
        cal_idx = arm_indices(fold.cal, t)
        self.pre_x = fold.prelim.covariates[pre_idx]
        self.pre_y = fold.prelim.outcome[pre_idx]
        self.cal_x = fold.cal.covariates[cal_idx]
        self.cal_y = fold.cal.outcome[cal_idx]
        self.e_cal = fold.e_cal[cal_idx]
        self.p_t = marginal_treatment_prob(fold.prelim.treatment, t)
        self._q_hat = {}
        self._scores = {}

    @cached_property
    def mu_hat(self):
        return fit_mean(self.pre_x, self.pre_y, scale=self.scale)

    def q_hat(self, alpha):
        """The quantile model at levels (alpha / 2, 1 - alpha / 2), fitted
        on first use at each alpha."""
        if alpha not in self._q_hat:
            self._q_hat[alpha] = fit_quantile(
                self.pre_x, self.pre_y, (alpha / 2.0, 1.0 - alpha / 2.0),
                scale=self.scale)
            # same training rows, metric weights and k: one search for both
            self._q_hat[alpha].search = self.mu_hat.search
        return self._q_hat[alpha]

    @cached_property
    def constraints(self):
        """The propensity-balance row of the sharpened method."""
        cal = self.fold.cal
        return balance_constraints("propensity", self.cal_x, cal.covariates,
                                   cal.treatment, self.e_cal,
                                   self.fold.e_cal, self.t)

    def intervals(self, x_target, gamma, alpha, method, score="mean"):
        """Intervals for Y(t) at the rows of `x_target`, in one batch.

        `method` is "nuc" (the unconfounded baseline), "csa" (worst case)
        or "cssa" (sharpened worst case); `score` is "mean" or "cqr".  All
        three are one `cssa_threshold_batch` call: "nuc" over the gamma = 1
        point box, "csa" over the gamma box without balance rows.
        Returns (lower, upper, threshold) float arrays; unbounded sides
        are -inf / +inf.
        """
        SensitivitySpec(gamma=gamma, alpha=alpha, t=self.t)  # validates
        if method not in ("nuc", "csa", "cssa"):
            raise ValueError(f"unknown method {method!r}")
        x_target = np.asarray(x_target, dtype=float)
        model = self.q_hat(alpha) if score == "cqr" else self.mu_hat
        key = score, alpha  # the quantile model's levels follow alpha
        if key not in self._scores:
            self._scores[key] = calibration_scores(score, model, self.cal_x,
                                                   self.cal_y)
        scores = self._scores[key]
        cache = self.fold.at(x_target)
        g = 1.0 if method == "nuc" else gamma
        lo_c, hi_c = weight_bounds_same_arm(self.e_cal, g, self.t, self.p_t)
        _, hi_t = weight_bounds_same_arm(cache["e"], g, self.t, self.p_t)
        rows = self.constraints if method == "cssa" else ()
        thr = cssa_threshold_batch(scores, lo_c, hi_c, rows, alpha, hi_t)
        if (self.t, key) not in cache:
            cache[self.t, key] = score_band(score, model, x_target)
        lo, hi = cache[self.t, key]
        return lo - thr, hi + thr, thr


def fit_arms(ds, seed, scale=None):
    """(arm 0, arm 1) over one split of `ds` seeded by `seed`; models are
    fitted on first use."""
    fold = _Fold(ds, seed)
    return tuple(FittedArm(fold, t, scale) for t in (0, 1))
