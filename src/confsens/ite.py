"""Individual treatment effect intervals.

Two constructions on top of the per-arm worst-case machinery: a
Bonferroni difference of the two potential-outcome intervals, and a
nested two-stage procedure that turns counterfactual intervals on held
out units into a pair of endpoint regressions, avoiding the Bonferroni
split of the error budget.  The endpoint regressions are
`predictors.KNNSingleQuantile` models over one neighbour search.  A
`NestedFold` halves its data when made and fits on first use, so a sweep
can fit the propensities of many folds in one batch first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conformal import scores_and_band
from .csa import greedy_threshold_batch
from .dataset import ObservationalDataset, arm_indices
from .msm import weight_bounds_cross_arm
from .predictors import (KNNSingleQuantile, NeighborSearch, fit_mean,
                         fit_propensity)

__all__ = [
    "bonferroni_ite",
    "KNNSingleQuantile",
    "NestedIteModel",
    "NestedFold",
    "nested_ite_fit",
    "nested_ite_predict",
]


def bonferroni_ite(arm1, arm0):
    """Difference interval [L1 - U0, U1 - L0] from per-arm intervals.

    `arm1` and `arm0` are the (lower, upper, ...) tuples that
    `FittedArm.intervals` returns; the result is a (lower, upper) pair of
    float arrays, -inf / +inf on unbounded sides.  Valid at level
    1 - (alpha1 + alpha0) when the inputs hold at their own levels;
    callers typically build each arm at alpha / 2.
    """
    return arm1[0] - arm0[1], arm1[1] - arm0[0]


@dataclass(frozen=True)
class NestedIteModel:
    """Fitted endpoint regressions plus diagnostics of the nested stage."""

    lo_model: KNNSingleQuantile
    hi_model: KNNSingleQuantile
    n_val: int
    n_unbounded: int


# quantile levels of the lower and upper endpoint regressions
_ENDPOINT_LEVELS = (0.4, 0.6)


class NestedFold:
    """The part of the nested construction that gamma does not touch.

    One seeded split halves the data.  The fit half trains one propensity
    model and, per arm t, a mean model on the first half of its arm-t
    units; the second half gives the calibration scores.  The val
    units in arm 1 - t keep their propensities and mean predictions, and
    `model` turns them into counterfactual intervals for Y(t) through the
    cross-arm weight bounds at a given gamma.  The endpoint regressions of
    every gamma share one neighbour search over the val units.

    `fit_rows` are the fit half's covariates and treatment.  The
    propensity is fit on them on first use, unless a batch fit set it
    before (`harness.run_sweep` fits many folds in one ascent); the rest
    of the fit half, with its refusal of too few units in an arm, is
    built at the first `model` call.
    """

    def __init__(self, ds: ObservationalDataset, seed=0):
        perm = np.random.default_rng(seed).permutation(ds.n)
        half = ds.n // 2
        self._fit, self._val = ds.subset(perm[:half]), ds.subset(perm[half:])
        self.fit_rows = self._fit.covariates, self._fit.treatment
        self.val_x, self.val_y = self._val.covariates, self._val.outcome
        self.n_val = self._val.n

    @cached_property
    def propensity(self):
        return fit_propensity(*self.fit_rows)

    @cached_property
    def _search(self):
        return NeighborSearch(self.val_x)

    @cached_property
    def _arms(self):
        """Per arm t: calibration scores and their propensities, then the
        mask, propensities and mean predictions of val units in 1 - t."""
        ds_fit = self._fit
        fit_idx = [arm_indices(ds_fit, t) for t in (0, 1)]
        for t, idx in enumerate(fit_idx):
            if idx.size < 4:
                raise ValueError(
                    f"too few units in arm {t} for the nested stage")
        propensity = self.propensity
        arms = []
        for t, idx in enumerate(fit_idx):
            pre, cal = idx[:idx.size // 2], idx[idx.size // 2:]
            mu_hat = fit_mean(ds_fit.covariates[pre], ds_fit.outcome[pre])
            cal_x = ds_fit.covariates[cal]
            mask = self._val.treatment == 1 - t
            x_q = self.val_x[mask]
            scores, (mu_q, _) = scores_and_band("mean", mu_hat, cal_x,
                                                ds_fit.outcome[cal], x_q)
            arms.append((scores, propensity.predict(cal_x), mask,
                         propensity.predict(x_q), mu_q))
        return arms

    def model(self, gamma, alpha):
        """Endpoint regressions of the val units' effect intervals: the
        observed outcome minus the worst-case counterfactual interval.
        A 1-D gamma grid takes each arm's thresholds from one greedy call
        and gives a tuple of one `NestedIteModel` per gamma."""
        lower, upper = np.empty((2, np.size(gamma), self.n_val))
        for t, (scores, e_cal, mask, e_q, mu_q) in enumerate(self._arms):
            lo_c, hi_c = weight_bounds_cross_arm(e_cal, gamma, t)
            _, hi_t = weight_bounds_cross_arm(e_q, gamma, t)
            thresholds = greedy_threshold_batch(scores, lo_c, hi_c, hi_t,
                                                alpha)
            cf_lo, cf_hi = mu_q - thresholds, mu_q + thresholds
            y = self.val_y[mask]
            if t == 0:  # treated val units: effect = Y - [L0, U0]
                lower[:, mask], upper[:, mask] = y - cf_hi, y - cf_lo
            else:  # control val units: effect = [L1, U1] - Y
                lower[:, mask], upper[:, mask] = cf_lo - y, cf_hi - y
        models = tuple(self._endpoints(lo, up) for lo, up in zip(lower, upper))
        return models if np.ndim(gamma) else models[0]

    def _endpoints(self, lower, upper):
        """The endpoint regressions of one gamma's val-unit intervals."""
        n_unbounded = int(np.sum(~np.isfinite(lower) | ~np.isfinite(upper)))
        lo_model, hi_model = (KNNSingleQuantile(self._search, y, level)
                              for y, level in zip((lower, upper),
                                                  _ENDPOINT_LEVELS))
        return NestedIteModel(lo_model=lo_model, hi_model=hi_model,
                              n_val=self.n_val, n_unbounded=n_unbounded)


def nested_ite_fit(ds: ObservationalDataset, gamma, alpha,
                   seed=0) -> NestedIteModel:
    """Two-stage fit of effect-interval endpoint regressions at one gamma;
    a sweep over gammas reuses one `NestedFold` instead."""
    return NestedFold(ds, seed).model(gamma, alpha)


def nested_ite_predict(model: NestedIteModel, x):
    """Effect-interval (lower, upper) float arrays at query points, -inf /
    +inf on unbounded sides.  They never cross: both endpoint models read
    one neighbour set, every val unit has lower <= upper (its threshold is
    an absolute-residual score or +inf), and the order statistics taken
    satisfy ceil(0.4 k) <= ceil(0.6 k)."""
    return model.lo_model.predict(x), model.hi_model.predict(x)
