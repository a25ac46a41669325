"""One fitted pipeline per treatment arm, shared by the command line and
the experiment harness.

A `Fold` splits the data once (`dataset.split`) and fits one propensity
model; `Fold.arms` is the one place that chooses the k-NN metric scaling.
A fold's propensity is fit on its `fit_rows` on first use, so a caller
holding many folds (`harness.run_sweep`) may fit them in one batch first.
Each arm keeps one neighbour search over its preliminary rows, which its
mean model and the quantile model of each call's alpha ("cqr" score)
share, the propensities and balance row of its calibration units, and its
calibration scores and band at the targets: once for the "mean" score,
per alpha for "cqr".
`FittedArm.intervals` then solves all targets, at one gamma or a whole
gamma grid, in one `arm_intervals` call: only the sentinel weight belongs
to a target, and only the weight box to a gamma.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .conformal import scores_and_band
from .cssa import arm_intervals, balance_constraints
from .dataset import arm_indices, split
from .msm import check_alpha, check_gamma
from .predictors import (KNNMean, KNNQuantile, NeighborSearch, fit_propensity,
                         marginal_treatment_prob, metric_weights)

__all__ = ["Fold", "FittedArm"]


class Fold:
    """One seeded split of a dataset (`dataset.split`) and the propensity
    model both arms share, with its propensities at the calibration units.

    `fit_rows` are the preliminary half's covariates and treatment.  The
    propensity is fit on them on first use, unless a batch fit set it
    before (`harness.run_sweep` fits many folds in one ascent); so is
    everything that reads it."""

    def __init__(self, ds, seed):
        prelim_idx, cal_idx = split(ds, seed)
        self.prelim = ds.subset(prelim_idx)
        self.cal = ds.subset(cal_idx)
        self.fit_rows = self.prelim.covariates, self.prelim.treatment

    @cached_property
    def propensity(self):
        return fit_propensity(*self.fit_rows)

    @cached_property
    def e_cal(self):
        return self.propensity.predict(self.cal.covariates)

    def arms(self, x_target, scale=None):
        """(arm 0, arm 1), whose intervals are at the rows of `x_target`;
        the arms read those rows rather than copy them, and share their
        propensities."""
        x_target = np.asarray(x_target, dtype=float)
        e_target = self.propensity.predict(x_target)
        return tuple(FittedArm(self, t, x_target, e_target, scale)
                     for t in (0, 1))


class FittedArm:
    """Arm t of a fold, with its targets and their propensities; `scale`
    is the k-NN metric scaling."""

    def __init__(self, fold: Fold, t, x_target, e_target, scale=None):
        self.fold, self.t, self.scale = fold, t, scale
        self.x_target, self.e_target = x_target, e_target
        pre_idx = arm_indices(fold.prelim, t)
        cal_idx = arm_indices(fold.cal, t)
        self.pre_x = fold.prelim.covariates[pre_idx]
        self.pre_y = fold.prelim.outcome[pre_idx]
        self.cal_x = fold.cal.covariates[cal_idx]
        self.cal_y = fold.cal.outcome[cal_idx]
        self.e_cal = fold.e_cal[cal_idx]
        self.p_t = marginal_treatment_prob(fold.prelim.treatment, t)
        self._cache = {}

    @cached_property
    def search(self):
        """The neighbour search over the arm's preliminary rows, shared by
        the mean model and the quantile model of every alpha."""
        weights = metric_weights(self.scale, self.pre_x, self.pre_y)
        return NeighborSearch(self.pre_x, feature_weights=weights)

    @cached_property
    def mu_hat(self):
        return KNNMean(self.search, self.pre_y)

    def q_hat(self, alpha):
        """The quantile model at levels (alpha / 2, 1 - alpha / 2)."""
        return KNNQuantile(self.search, self.pre_y,
                           (alpha / 2.0, 1.0 - alpha / 2.0))

    @cached_property
    def constraints(self):
        """The propensity-balance row (A, b) of the sharpened method."""
        cal = self.fold.cal
        return balance_constraints("propensity", self.cal_x, cal.covariates,
                                   cal.treatment, self.e_cal,
                                   self.fold.e_cal, self.t)

    def intervals(self, gamma, alpha, method, score="mean"):
        """Intervals for Y(t) at the fold's targets, in one batch.

        `gamma` is a number or a 1-D grid; `method` is "nuc" (the
        unconfounded baseline), "csa" (worst case) or "cssa" (sharpened
        worst case); `score` is "mean" or "cqr".  Each is one
        `arm_intervals` call over the whole grid: "csa" over the gamma
        boxes without balance rows, and "nuc" once, over the gamma = 1
        point box, its intervals repeated for every gamma.
        Returns (lower, upper, threshold) float arrays of shape
        gamma's shape + (targets,); unbounded sides are -inf / +inf.
        """
        check_gamma(gamma)
        check_alpha(alpha)
        if method not in ("nuc", "csa", "cssa"):
            raise ValueError(f"unknown method {method!r}")
        # the quantile model's levels follow alpha; the mean model has none
        key = (score, alpha) if score == "cqr" else score
        if key not in self._cache:
            model = self.q_hat(alpha) if score == "cqr" else self.mu_hat
            self._cache[key] = scores_and_band(score, model, self.cal_x,
                                               self.cal_y, self.x_target)
        rows = self.constraints if method == "cssa" else None
        out = arm_intervals(*self._cache[key], self.e_cal, self.e_target,
                            1.0 if method == "nuc" else gamma, alpha, self.t,
                            self.p_t, rows)
        if method == "nuc":
            out = tuple(np.broadcast_to(v, np.shape(gamma) + v.shape).copy()
                        for v in out)
        return out
