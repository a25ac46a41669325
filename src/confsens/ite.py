"""Individual treatment effect intervals.

Two constructions on top of the per-arm worst-case machinery: a
Bonferroni difference of the two potential-outcome intervals, and a
nested two-stage procedure that turns counterfactual intervals on held
out units into a pair of endpoint regressions, avoiding the Bonferroni
split of the error budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import PredictiveInterval, score_abs_residual
from .csa import greedy_threshold_batch
from .dataset import ObservationalDataset, arm_indices
from .msm import SensitivitySpec, weight_bounds_cross_arm
from .predictors import _empirical_quantile, _neighbor_idx, fit_mean, fit_propensity

__all__ = [
    "IteInterval",
    "bonferroni_ite",
    "KNNSingleQuantile",
    "NestedIteModel",
    "nested_ite_fit",
    "nested_ite_bounds",
    "nested_ite_predict",
]


@dataclass(frozen=True)
class IteInterval:
    """Interval for tau = Y(1) - Y(0); unbounded sides carry None.

    `alpha_split` records the per-arm error budgets (alpha0, alpha1) for
    the difference construction; the budgets must sum to the overall
    miscoverage level.
    """

    lower: float | None
    upper: float | None
    lower_unbounded: bool = False
    upper_unbounded: bool = False
    method: str = ""
    alpha_split: tuple | None = None

    @property
    def bounded(self) -> bool:
        return not (self.lower_unbounded or self.upper_unbounded)

    @property
    def width(self) -> float:
        if not self.bounded:
            return np.inf
        return self.upper - self.lower

    def contains(self, tau) -> bool:
        lo_ok = self.lower_unbounded or tau >= self.lower
        hi_ok = self.upper_unbounded or tau <= self.upper
        return bool(lo_ok and hi_ok)


def bonferroni_ite(c1: PredictiveInterval, c0: PredictiveInterval,
                   alpha_split=None) -> IteInterval:
    """Difference interval [L1 - U0, U1 - L0] from per-arm intervals.

    Valid at level 1 - (alpha1 + alpha0) when the inputs hold at their own
    levels; callers typically build each arm at alpha / 2.
    """
    lower_unbounded = c1.lower_unbounded or c0.upper_unbounded
    upper_unbounded = c1.upper_unbounded or c0.lower_unbounded
    lower = None if lower_unbounded else c1.lower - c0.upper
    upper = None if upper_unbounded else c1.upper - c0.lower
    return IteInterval(lower, upper, lower_unbounded, upper_unbounded,
                       method="bonferroni", alpha_split=alpha_split)


class KNNSingleQuantile:
    """Single-level k-NN empirical quantile regressor (endpoints may be
    infinite; the empirical quantile then propagates them)."""

    def __init__(self, train_x, train_y, level, k):
        if not (0.0 < level < 1.0):
            raise ValueError("quantile level must lie in (0, 1)")
        self.x = np.asarray(train_x, dtype=float)
        self.y = np.asarray(train_y, dtype=float)
        self.level = float(level)
        self.k = int(k)

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        idx = _neighbor_idx(self.x, x, self.k)
        neigh = np.sort(self.y[idx], axis=1)
        return _empirical_quantile(neigh, self.level)


@dataclass(frozen=True)
class NestedIteModel:
    """Fitted endpoint regressions plus diagnostics of the nested stage."""

    lo_model: KNNSingleQuantile
    hi_model: KNNSingleQuantile
    n_val: int
    n_unbounded: int


def _cross_arm_intervals(ds_fit: ObservationalDataset, val_x, val_t,
                         spec_arm: SensitivitySpec, k=None):
    """Worst-case intervals for the counterfactual outcome Y(t) of
    held-out units observed in arm 1 - t, using cross-group weight bounds.

    Returns (lower, upper) arrays over the val units in arm 1 - t.
    """
    t = spec_arm.t
    fit_idx = arm_indices(ds_fit, t)
    if fit_idx.size < 4:
        raise ValueError(f"too few units in arm {t} for the nested stage")
    half = fit_idx.size // 2
    pre, cal = fit_idx[:half], fit_idx[half:]
    mu_hat = fit_mean(ds_fit.covariates[pre], ds_fit.outcome[pre], k=k)
    propensity = fit_propensity(ds_fit.covariates, ds_fit.treatment,
                                eta=spec_arm.eta)
    cal_x = ds_fit.covariates[cal]
    cal_y = ds_fit.outcome[cal]
    scores = score_abs_residual(mu_hat, cal_x, cal_y)
    order = np.argsort(scores, kind="stable")
    e_cal = propensity.predict(cal_x)
    lo_c, hi_c = weight_bounds_cross_arm(e_cal[order], spec_arm.gamma, t)

    mask = val_t == 1 - t
    x_q = val_x[mask]
    e_q = propensity.predict(x_q)
    _, hi_t = weight_bounds_cross_arm(e_q, spec_arm.gamma, t)
    thresholds = greedy_threshold_batch(scores[order], lo_c, hi_c, hi_t,
                                        spec_arm.alpha)
    mu_q = mu_hat.predict(x_q)
    lower = mu_q - thresholds
    upper = mu_q + thresholds
    return mask, lower, upper


def nested_ite_fit(ds: ObservationalDataset, gamma, alpha, seed=0, k=None,
                   endpoint_levels=(0.4, 0.6), eta=0.01) -> NestedIteModel:
    """Two-stage fit of effect-interval endpoint regressions.

    The data are split in half: the first part fits nuisances and
    calibrates counterfactual intervals, the second part receives one
    effect interval per unit (observed outcome minus the counterfactual
    interval), and the endpoint regressions smooth those intervals.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.n)
    half = ds.n // 2
    ds_fit = ds.subset(perm[:half])
    ds_val = ds.subset(perm[half:])
    val_x, val_t, val_y = ds_val.covariates, ds_val.treatment, ds_val.outcome

    lower = np.empty(ds_val.n)
    upper = np.empty(ds_val.n)
    # treated val units get an interval for Y(0); effect = Y - [L0, U0]
    spec0 = SensitivitySpec(gamma=gamma, alpha=alpha, t=0, eta=eta)
    mask1, l0, u0 = _cross_arm_intervals(ds_fit, val_x, val_t, spec0, k=k)
    lower[mask1] = val_y[mask1] - u0
    upper[mask1] = val_y[mask1] - l0
    # control val units get an interval for Y(1); effect = [L1, U1] - Y
    spec1 = SensitivitySpec(gamma=gamma, alpha=alpha, t=1, eta=eta)
    mask0, l1, u1 = _cross_arm_intervals(ds_fit, val_x, val_t, spec1, k=k)
    lower[mask0] = l1 - val_y[mask0]
    upper[mask0] = u1 - val_y[mask0]

    n_unbounded = int(np.sum(~np.isfinite(lower) | ~np.isfinite(upper)))
    k_end = k or int(np.ceil(np.sqrt(ds_val.n)))
    lo_model = KNNSingleQuantile(val_x, lower, endpoint_levels[0], k_end)
    hi_model = KNNSingleQuantile(val_x, upper, endpoint_levels[1], k_end)
    return NestedIteModel(lo_model=lo_model, hi_model=hi_model,
                          n_val=ds_val.n, n_unbounded=n_unbounded)


def nested_ite_bounds(model: NestedIteModel, x):
    """Effect-interval (lower, upper) float arrays at query points, -inf /
    +inf on unbounded sides; crossed endpoints are swapped."""
    lo = np.atleast_1d(model.lo_model.predict(x))
    hi = np.atleast_1d(model.hi_model.predict(x))
    swap = lo > hi
    lo[swap], hi[swap] = hi[swap], lo[swap].copy()
    return lo, hi


def nested_ite_predict(model: NestedIteModel, x) -> list[IteInterval]:
    """Effect intervals at query points: `nested_ite_bounds` as
    `IteInterval` records."""
    out = []
    for a, b in zip(*nested_ite_bounds(model, x)):
        lo_unb = not np.isfinite(a)
        hi_unb = not np.isfinite(b)
        out.append(IteInterval(None if lo_unb else float(a),
                               None if hi_unb else float(b),
                               lo_unb, hi_unb, method="nested"))
    return out
