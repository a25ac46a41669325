"""Sharpened sensitivity analysis with covariate-balancing constraints.

Adds researcher-chosen moment constraints to the worst-case quantile
optimization, which can only shrink the feasible weight set and hence the
interval.  A target's threshold is the largest position whose maximal
normalized tail mass exceeds the level.  By Dinkelbach's lemma that test
needs only the weights maximizing tail - level * total, which do not
depend on the target's sentinel mass: one target-free probe per position,
shared by every target of a batch, which bisect their positions in
lockstep.  With a single positive balance constraint a probe is one
greedy pass; any other set is one LP.  `solve_fractional` solves the
fractional program itself as one LP through the Charnes-Cooper change of
variables.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .conformal import (
    _NORM_TOL,
    PredictiveInterval,
    calibration_scores,
    cqr_score_interval,
    score_band,
)
from .csa import _flip_index
from .lp import solve_lp
from .msm import SensitivitySpec, weight_bounds_same_arm

__all__ = [
    "BalanceConstraint",
    "FractionalProgram",
    "FractionalResult",
    "balance_rhs",
    "balance_constraints",
    "solve_fractional",
    "cssa_threshold",
    "cssa_threshold_batch",
    "cssa_interval",
]


@dataclass(frozen=True)
class BalanceConstraint:
    """One equality row sum_i coefficients[i] * w_i = rhs over the
    calibration units (the target weight is unconstrained)."""

    coefficients: np.ndarray
    rhs: float
    label: str = ""

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        if not np.all(np.isfinite(coef)) or not np.isfinite(self.rhs):
            raise ValueError("constraint entries must be finite")
        object.__setattr__(self, "coefficients", coef)


@dataclass(frozen=True)
class FractionalProgram:
    """maximize sum_{i >= tail_index} w_i / sum_i w_i over a weight box
    intersected with equality constraints (relaxed by a relative slack)."""

    tail_index: int
    lo: np.ndarray
    hi: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    slack_rel: float = 1e-6

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("need lo <= hi per variable")
        if not (0 <= self.tail_index < lo.shape[0]):
            raise ValueError("tail_index out of range")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class FractionalResult:
    feasible: bool
    value: float | None = None
    weights: np.ndarray | None = None


def balance_rhs(treatment, e_hat, g_values, t) -> float:
    """Inverse-propensity-weighted mean of g over arm t, averaged over all
    units: (1/N) sum_i 1{T_i = t} g(X_i) / (e^t (1-e)^(1-t))."""
    treatment = np.asarray(treatment)
    e_hat = np.asarray(e_hat, dtype=float)
    g_values = np.asarray(g_values, dtype=float)
    arm = e_hat if t == 1 else 1.0 - e_hat
    ind = (treatment == t).astype(float)
    return float(np.mean(ind * g_values / arm))


def solve_fractional(fp: FractionalProgram) -> FractionalResult:
    """Exact solve of the linear-fractional program as one LP through the
    Charnes-Cooper change of variables: no convergence loop.

    Variables (u, s) with s = 1 / sum(w) and u = s * w: maximize the tail
    sum of u subject to sum(u) = 1, the scaled box lo * s <= u <= hi * s
    and the scaled balance rows |A u - b s| <= slack_rel * |b| * s.
    """
    n = fp.lo.shape[0]
    if fp.A_eq is None:
        A, b = np.zeros((0, n)), np.zeros(0)
    else:
        A = np.atleast_2d(np.asarray(fp.A_eq, dtype=float))
        b = np.atleast_1d(np.asarray(fp.b_eq, dtype=float))
        if A.shape[1] != n:
            raise ValueError("constraint length != number of variables")
    eye = np.eye(n)
    delta = fp.slack_rel * np.abs(b)
    A_ub = np.vstack([np.column_stack([-eye, fp.lo]),  # lo * s - u <= 0
                      np.column_stack([eye, -fp.hi]),  # u - hi * s <= 0
                      np.column_stack([A, -(b + delta)]),
                      np.column_stack([-A, b - delta])])
    c = np.zeros(n + 1)
    c[fp.tail_index:n] = 1.0
    res = solve_lp(c, A_ub=A_ub, b_ub=np.zeros(A_ub.shape[0]),
                   A_eq=np.append(np.ones(n), 0.0)[None, :], b_eq=[1.0],
                   maximize=True)
    if not res.optimal or res.x[n] <= 0:
        return FractionalResult(feasible=False)
    return FractionalResult(feasible=True, value=res.value,
                            weights=res.x[:n] / res.x[n])


def _probe(j, lo, hi, A, b, level, slack_rel):
    """(tail, total) = (c @ w, w.sum()) for the weights w that maximize
    c @ w - level * w.sum() over the calibration box and the balance rows
    |A w - b| <= slack_rel * |b|, with c the indicator of the 1-based
    positions >= j; None when the rows are infeasible.

    By Dinkelbach's lemma, for any sentinel mass h > 0 some w in the set
    has (c @ w + h) / (w.sum() + h) > level exactly when this w does, and
    w does not depend on h: one probe serves every target of a batch.

    A single all-positive row is solved by one greedy pass.  The box
    optimum puts the tail at `hi` and the rest at `lo`; if the row cuts
    that corner off, Dantzig's knapsack repair lowers the tail weights (or
    raises the rest) by (1 - level)/a (or level/a) per unit of the row,
    i.e. in decreasing a whatever the level, and at most one weight ends
    fractional.  A row below the corner is the mirror image on -w
    (negation is exact).  Any other row set is one LP.
    """
    c = np.zeros(lo.shape[0])
    c[j - 1:] = 1.0
    if A.shape[0] != 1 or not np.all(A[0] > 0.0):
        eye = np.eye(lo.shape[0])
        delta = slack_rel * np.abs(b)
        res = solve_lp(c - level, A_ub=np.vstack([eye, -eye, A, -A]),
                       b_ub=np.concatenate([hi, -lo, b + delta, delta - b]),
                       maximize=True)
        if not res.optimal:
            return None
        return float(c @ res.x), float(res.x.sum())
    a, b = A[0], b[0]
    tail = c > 0.0
    w = np.where(tail, hi, lo)
    lower, upper = b - slack_rel * abs(b), b + slack_rel * abs(b)
    total = float(a @ w)
    if not lower - 1e-12 <= total <= upper + 1e-12:
        # row above the corner: lower the tail weights; below: raise the rest
        s, bound, move = ((1.0, upper, tail) if total > upper
                          else (-1.0, -lower, ~tail))
        v, floor = s * w, s * np.where(tail, lo, hi)
        order = np.flatnonzero(move)[np.argsort(-a[move], kind="stable")]
        run = np.subtract.accumulate(
            np.append(s * total, a[order] * (v[order] - floor[order])))
        short = np.flatnonzero(run[1:] < bound)
        if short.size == 0 and run[-1] > bound + 1e-12:
            return None
        k = short[0] if short.size else order.size
        v[order[:k]] = floor[order[:k]]
        if short.size:
            v[order[k]] -= (run[k] - bound) / a[order[k]]
        w = s * v
    return float(c @ w), float(w.sum())


def cssa_threshold(scores, lo, hi, constraints, alpha,
                   slack_rel=1e-6) -> float:
    """Constrained worst-case score threshold at one target (possibly
    +inf): `cssa_threshold_batch` for a batch of one.

    `scores` are ascending with the +inf sentinel last; `lo`/`hi` aligned,
    the sentinel's upper bound being the target's weight; each
    constraint's coefficients cover the calibration positions in the same
    order (the sentinel weight is unconstrained).
    """
    scores = np.asarray(scores, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if scores.shape[0] < 2 or not np.isinf(scores[-1]):
        raise ValueError("scores must end with the +inf sentinel")
    return float(cssa_threshold_batch(scores[:-1], np.asarray(lo)[:-1],
                                      hi[:-1], constraints, alpha, hi[-1:],
                                      slack_rel=slack_rel)[0])


def cssa_threshold_batch(scores, lo_c, hi_c, constraints, alpha, hi_target,
                         slack_rel=1e-6):
    """Constrained thresholds for many targets over one calibration set.

    `scores`/`lo_c`/`hi_c` cover the n calibration units (unsorted);
    `hi_target` gives each target's sentinel upper bound h.  A target's
    threshold sits at the largest 1-based position j, never above its
    unconstrained greedy flip, whose maximal tail fraction
    (tail + h) / (total + h) exceeds the level; position 1 always does.
    The probe at j does not depend on the target (`_probe`), so all
    targets bisect [1, flip] in lockstep and each distinct midpoint is
    probed once per batch.  Raises RuntimeError when the probed
    tail - level * total, which cannot grow with j, does.

    When every weight box is a point (gamma = 1) or there are no
    constraints, the greedy thresholds are returned; if a probe finds the
    constraints infeasible, they are returned with a warning.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("empty calibration set")
    hi_target = np.atleast_1d(np.asarray(hi_target, dtype=float))
    order = np.argsort(scores, kind="stable")
    lo = np.asarray(lo_c, dtype=float)[order]
    hi = np.asarray(hi_c, dtype=float)[order]
    ext = np.append(scores[order], np.inf)
    flips = _flip_index(lo, hi, hi_target, alpha) + 1  # 1-based greedy stops
    constraints = list(constraints)
    if not constraints or np.array_equal(lo, hi):
        return ext[flips - 1]
    if any(con.coefficients.shape != scores.shape for con in constraints):
        raise ValueError("constraint coefficients must cover the "
                         "calibration units")
    A = np.array([con.coefficients[order] for con in constraints])
    b = np.array([con.rhs for con in constraints], dtype=float)
    level = alpha + _NORM_TOL  # decides exact ties as the greedy does

    tail, total = np.full((2, ext.shape[0] + 1), np.nan)
    left, right = np.ones_like(flips), flips.copy()
    while np.any(left < right):
        live = np.flatnonzero(left < right)
        mid = (left[live] + right[live] + 1) // 2
        for j in np.unique(mid[np.isnan(tail[mid])]):
            probe = _probe(j, lo, hi, A, b, level, slack_rel)
            if probe is None:
                warnings.warn("balancing constraints infeasible; falling "
                              "back to the unconstrained thresholds")
                return ext[flips - 1]
            tail[j], total[j] = probe
        h = hi_target[live]
        above = (tail[mid] + h) / (total[mid] + h) > level
        left[live] = np.where(above, mid, left[live])
        right[live] = np.where(above, right[live], mid - 1)
    gap = (tail - level * total)[~np.isnan(tail)]
    if np.any(np.diff(gap) > 1e-9):
        raise RuntimeError("probe values increase with the tail position")
    return ext[left - 1]


def balance_constraints(g_kind, cal_x, full_x, full_t, e_cal, e_full, t):
    """Balancing rows over one arm's calibration units, in their order.

    Each row asks that the weighted mean of a balancing function g over
    the arm's units, sum_i w_i g(X_i) / n_arm, equal the inverse-propensity
    mean of g over the whole calibration fold `full_x`/`full_t` (see
    `balance_rhs`).  `g_kind` picks g: the estimated propensity
    ("propensity", with `e_cal`/`e_full` its values) or every covariate
    coordinate ("identity").
    """
    if g_kind == "propensity":
        pairs = [(e_full, e_cal)]
    elif g_kind == "identity":
        pairs = [(full_x[:, j], cal_x[:, j]) for j in range(full_x.shape[1])]
    else:
        raise ValueError(f"unknown balancing function kind {g_kind!r}")
    n_arm = cal_x.shape[0]
    return [BalanceConstraint(coefficients=g_cal / n_arm,
                              rhs=balance_rhs(full_t, e_full, g_full, t),
                              label="g")
            for g_full, g_cal in pairs]


def cssa_interval(mu_hat, propensity, cal_x, cal_y, x_target,
                  spec: SensitivitySpec, p_t, full_x, full_t, score="mean",
                  q_hat=None, g_kind="propensity",
                  slack_rel=1e-6) -> PredictiveInterval:
    """Sharpened worst-case interval for Y(t) at one target point:
    `cssa_threshold_batch` for one target.

    `full_x`/`full_t` hold the calibration fold with both arms, used for
    the inverse-propensity balance targets.  `g_kind` picks the balancing
    functions: the estimated propensity (default) or the identity
    coordinates.
    """
    cal_x = np.asarray(cal_x, dtype=float)
    full_x = np.asarray(full_x, dtype=float)
    x_target = np.asarray(x_target, dtype=float).reshape(1, -1)
    model = q_hat if score == "cqr" else mu_hat
    scores = calibration_scores(score, model, cal_x, cal_y)
    e_cal = propensity.predict(cal_x)
    lo_c, hi_c = weight_bounds_same_arm(e_cal, spec.gamma, spec.t, p_t)
    _, hi_t = weight_bounds_same_arm(propensity.predict(x_target),
                                     spec.gamma, spec.t, p_t)
    constraints = balance_constraints(g_kind, cal_x, full_x, full_t, e_cal,
                                      propensity.predict(full_x), spec.t)
    q = cssa_threshold_batch(scores, lo_c, hi_c, constraints, spec.alpha,
                             hi_t, slack_rel=slack_rel)
    lo, hi = score_band(score, model, x_target)
    return cqr_score_interval(float(lo[0]), float(hi[0]), q[0])
