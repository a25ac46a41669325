"""Sharpened sensitivity analysis with covariate-balancing constraints.

Adds researcher-chosen moment constraints to the worst-case quantile
optimization, which can only shrink the feasible weight set and hence the
interval.  Each probe of the binary search solves a linear-fractional
program (maximize normalized tail mass): exactly by Dinkelbach's method
for a single positive balance constraint, otherwise as one LP through the
Charnes-Cooper change of variables.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .conformal import (
    _NORM_TOL,
    PredictiveInterval,
    cqr_score_interval,
    mean_score_interval,
    score_abs_residual,
    score_cqr,
)
from .csa import greedy_max_quantile, greedy_threshold_batch
from .lp import solve_lp
from .msm import SensitivitySpec, weight_bounds_same_arm

__all__ = [
    "BalanceConstraint",
    "FractionalProgram",
    "FractionalResult",
    "balance_rhs",
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
    """Exact solve of the linear-fractional program via Charnes-Cooper:
    one LP, no convergence loop."""
    n = fp.lo.shape[0]
    if fp.A_eq is None:
        A, b = np.zeros((0, n)), np.zeros(0)
    else:
        A = np.atleast_2d(np.asarray(fp.A_eq, dtype=float))
        b = np.atleast_1d(np.asarray(fp.b_eq, dtype=float))
        if A.shape[1] != n:
            raise ValueError("constraint length != number of variables")
    return _charnes_cooper(fp.tail_index, 0.0, fp.lo, fp.hi, A, b,
                           fp.slack_rel)


def _charnes_cooper(tail_index, h, lo, hi, A, b, slack_rel) -> FractionalResult:
    """Maximize (sum_{i >= tail_index} w_i + h) / (sum_i w_i + h) over
    lo <= w <= hi and |A w - b| <= slack_rel * |b| row by row, as one LP.

    Variables (u, s) with s = 1 / (sum(w) + h) and u = s * w: maximize the
    tail sum of u plus h * s subject to sum(u) + h * s = 1, the scaled box
    lo * s <= u <= hi * s and the scaled balance rows.  `h` is a constant
    mass in the numerator and the denominator, e.g. the sentinel at its
    upper bound; 0 when every weight is a variable.
    """
    n = lo.shape[0]
    eye = np.eye(n)
    delta = slack_rel * np.abs(b)
    A_ub = np.vstack([np.column_stack([-eye, lo]),     # lo * s - u <= 0
                      np.column_stack([eye, -hi]),     # u - hi * s <= 0
                      np.column_stack([A, -(b + delta)]),
                      np.column_stack([-A, b - delta])])
    c = np.zeros(n + 1)
    c[tail_index:n] = 1.0
    c[n] = h
    res = solve_lp(c, A_ub=A_ub, b_ub=np.zeros(A_ub.shape[0]),
                   A_eq=np.append(np.ones(n), h)[None, :], b_eq=[1.0],
                   maximize=True)
    if not res.optimal or res.x[n] <= 0:
        return FractionalResult(feasible=False)
    return FractionalResult(feasible=True, value=res.value,
                            weights=res.x[:n] / res.x[n])


def _stack_constraints(constraints, n):
    """Coefficient matrix and right-hand sides of balance constraints over
    n calibration units."""
    if any(con.coefficients.shape[0] != n for con in constraints):
        raise ValueError("constraint coefficients must cover the "
                         "calibration units")
    return (np.array([con.coefficients for con in constraints]),
            np.array([con.rhs for con in constraints], dtype=float))


def _probe(j, h, lo, hi, A, b, slack_rel) -> FractionalResult:
    """Max normalized tail mass from 1-based position j over the
    calibration box and balance rows, with the sentinel weight folded in
    as the constant h (its optimum is always the upper bound).  A single
    all-positive constraint has an exact direct solution; any other set
    is solved as an LP."""
    if A.shape[0] == 1 and np.all(A[0] > 0.0):
        return FractionalResult(*_probe_single_constraint(
            j, h, lo, hi, A[0], b[0], slack_rel))
    return _charnes_cooper(j - 1, h, lo, hi, A, b, slack_rel)


def cssa_threshold(scores, lo, hi, constraints, alpha,
                   slack_rel=1e-6) -> float:
    """Constrained worst-case score threshold (possibly +inf).

    `scores` are ascending with the +inf sentinel last; `lo`/`hi` aligned;
    each constraint's coefficients cover the calibration positions in the
    same order (the sentinel weight is unconstrained).  Binary search over
    score indices, bracketed by the unconstrained greedy optimum; if every
    probe is infeasible the unconstrained threshold is returned with a
    warning.
    """
    scores = np.asarray(scores, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    greedy = greedy_max_quantile(scores, lo, hi, alpha)
    constraints = list(constraints)
    if not constraints:
        return greedy.threshold
    A, b = _stack_constraints(constraints, scores.shape[0] - 1)
    level = alpha + _NORM_TOL  # decides exact ties as the greedy does

    probe_log = []

    def probe(j):  # j is 1-based; alpha_hat_j = max normalized tail mass
        res = _probe(j, hi[-1], lo[:-1], hi[:-1], A, b, slack_rel)
        if res.feasible:
            probe_log.append((j, res.value))
        return res

    k_hat = greedy.flip_index + 1  # 1-based greedy stop position
    first = probe(k_hat)
    if not first.feasible:
        warnings.warn("balancing constraints infeasible; falling back to "
                      "the unconstrained threshold")
        return greedy.threshold
    if first.value > level:
        return greedy.threshold
    left, right = 1, k_hat  # alpha_hat_1 = 1 > alpha; alpha_hat_right <= alpha
    while right - left > 1:
        mid = (left + right) // 2
        res = probe(mid)
        if not res.feasible:
            warnings.warn("balancing constraints infeasible; falling back to "
                          "the unconstrained threshold")
            return greedy.threshold
        if res.value > level:
            left = mid
        else:
            right = mid
    # probe values must be nonincreasing in the index
    probe_log.sort()
    vals = [v for _, v in probe_log]
    if any(a < b_ - 1e-9 for a, b_ in zip(vals, vals[1:])):
        raise RuntimeError("probe values increase with the tail position")
    return float(scores[left - 1])


def _max_linear_box_interval(r, a, lo, hi, lower, upper):
    """Maximize r.w over lo <= w <= hi subject to lower <= a.w <= upper,
    with a > 0 componentwise.  Exact vertex solution via the breakpoint
    walk of the single-constraint Lagrangian (at most one fractional
    coordinate).  Returns (feasible, w).
    """
    w = np.where(r > 0.0, hi, lo)
    total = float(a @ w)
    if lower - 1e-12 <= total <= upper + 1e-12:
        return True, w
    if total > upper:
        # flip coordinates currently at hi back toward lo, cheapest
        # objective loss per unit of a first (largest mu = r/a last)
        cand = np.flatnonzero(r > 0.0)
        order = cand[np.argsort(r[cand] / a[cand], kind="stable")]
        bound = upper
        for i in order:
            drop = a[i] * (w[i] - lo[i])
            if total - drop >= bound:
                w[i] = lo[i]
                total -= drop
            else:
                w[i] -= (total - bound) / a[i]
                return True, w
        return bool(total <= bound + 1e-12), w
    # total < lower: raise coordinates currently at lo, cheapest loss first
    cand = np.flatnonzero(r <= 0.0)
    order = cand[np.argsort(-r[cand] / a[cand], kind="stable")]
    bound = lower
    for i in order:
        gain = a[i] * (hi[i] - w[i])
        if total + gain <= bound:
            w[i] = hi[i]
            total += gain
        else:
            w[i] += (bound - total) / a[i]
            return True, w
    return bool(total >= bound - 1e-12), w


def _probe_single_constraint(j, h, lo, hi, a, b, slack_rel, max_iter=100):
    """Dinkelbach solve of max (tail(w) + h)/(sum(w) + h) under a box and
    one interval constraint a.w in [b - delta, b + delta]; exact because
    each inner maximization is solved exactly."""
    n = lo.shape[0]
    c = np.zeros(n)
    if j - 1 < n:
        c[j - 1:] = 1.0
    delta = slack_rel * abs(b)
    lower, upper = b - delta, b + delta
    feasible, w = _max_linear_box_interval(c, a, lo, hi, lower, upper)
    if not feasible:
        return False, None
    lam = (float(c @ w) + h) / (float(w.sum()) + h)
    for _ in range(max_iter):
        _, w = _max_linear_box_interval(c - lam, a, lo, hi, lower, upper)
        gap = float((c - lam) @ w) + h * (1.0 - lam)
        new_lam = (float(c @ w) + h) / (float(w.sum()) + h)
        if gap <= 1e-12 or new_lam - lam <= 1e-14:
            return True, new_lam
        lam = new_lam
    return True, lam


def cssa_threshold_batch(scores, lo_c, hi_c, constraints, alpha, hi_target,
                         slack_rel=1e-6):
    """Constrained thresholds for many targets over one calibration set.

    `scores`/`lo_c`/`hi_c` cover the n calibration units (unsorted);
    `hi_target` gives each target's sentinel upper bound.  For a fixed
    flip position the maximal tail fraction is nondecreasing in the
    sentinel mass, so the optimal position is monotone in `hi_target`:
    targets are processed in ascending order with a shared advancing
    pointer, costing O(n_targets + n_cal) fractional solves in total.
    With a single positive balance constraint each solve uses the exact
    direct method; otherwise the general LP route is taken.
    """
    scores = np.asarray(scores, dtype=float)
    hi_target = np.atleast_1d(np.asarray(hi_target, dtype=float))
    order = np.argsort(scores, kind="stable")
    v = scores[order]
    lo = np.asarray(lo_c, dtype=float)[order]
    hi = np.asarray(hi_c, dtype=float)[order]
    n = v.shape[0]
    constraints = list(constraints)
    if not constraints:
        return greedy_threshold_batch(v, lo, hi, hi_target, alpha)
    A, b = _stack_constraints(constraints, n)
    A = A[:, order]
    level = alpha + _NORM_TOL  # decides exact ties as the greedy does

    ext = np.append(v, np.inf)
    out = np.empty(hi_target.shape[0])
    t_order = np.argsort(hi_target, kind="stable")
    j = 1  # largest position seen so far with tail fraction > alpha
    fell_back = False
    for ti in t_order:
        h = hi_target[ti]
        while j < n + 1:
            res = _probe(j + 1, h, lo, hi, A, b, slack_rel)
            if not res.feasible:
                warnings.warn("balancing constraints infeasible; falling "
                              "back to the unconstrained thresholds")
                fell_back = True
                break
            if res.value > level:
                j += 1
            else:
                break
        if fell_back:
            break
        out[ti] = ext[j - 1]
    if fell_back:
        return greedy_threshold_batch(v, lo, hi, hi_target, alpha)
    return out


def _propensity_constraint(g_cal, n_arm, rhs) -> BalanceConstraint:
    return BalanceConstraint(coefficients=np.asarray(g_cal, dtype=float) / n_arm,
                             rhs=rhs, label="g")


def cssa_interval(mu_hat, propensity, cal_x, cal_y, x_target,
                  spec: SensitivitySpec, p_t, full_x, full_t, score="mean",
                  q_hat=None, g_kind="propensity",
                  slack_rel=1e-6) -> PredictiveInterval:
    """Sharpened worst-case interval for Y(t) at one target point.

    `full_x`/`full_t` hold the calibration fold with both arms, used for
    the inverse-propensity balance targets.  `g_kind` picks the balancing
    functions: the estimated propensity (default) or the identity
    coordinates.
    """
    cal_x = np.asarray(cal_x, dtype=float)
    e_cal = propensity.predict(cal_x)
    x_target = np.asarray(x_target, dtype=float).reshape(1, -1)
    e_target = float(propensity.predict(x_target)[0])
    if score == "mean":
        scores = score_abs_residual(mu_hat, cal_x, cal_y)
    elif score == "cqr":
        if q_hat is None:
            raise ValueError("cqr score requires a quantile predictor")
        scores = score_cqr(q_hat, cal_x, cal_y)
    else:
        raise ValueError(f"unknown score kind {score!r}")

    order = np.argsort(scores, kind="stable")
    lo_c, hi_c = weight_bounds_same_arm(e_cal[order], spec.gamma, spec.t, p_t)
    lo_t, hi_t = weight_bounds_same_arm(np.array([e_target]), spec.gamma,
                                        spec.t, p_t)
    v = np.append(scores[order], np.inf)
    lo = np.append(lo_c, lo_t)
    hi = np.append(hi_c, hi_t)

    full_x = np.asarray(full_x, dtype=float)
    e_full = propensity.predict(full_x)
    if g_kind == "propensity":
        g_full = [e_full]
        g_cal = [e_cal]
    elif g_kind == "identity":
        g_full = [full_x[:, j] for j in range(full_x.shape[1])]
        g_cal = [cal_x[:, j] for j in range(cal_x.shape[1])]
    else:
        raise ValueError(f"unknown balancing function kind {g_kind!r}")
    n_arm = cal_x.shape[0]
    constraints = []
    for gf, gc in zip(g_full, g_cal):
        rhs = balance_rhs(full_t, e_full, gf, spec.t)
        constraints.append(_propensity_constraint(gc[order], n_arm, rhs))

    q = cssa_threshold(v, lo, hi, constraints, spec.alpha,
                       slack_rel=slack_rel)
    if score == "mean":
        return mean_score_interval(float(mu_hat.predict(x_target)[0]), q)
    qlo, qhi = q_hat.predict(x_target)
    return cqr_score_interval(float(qlo[0]), float(qhi[0]), q)
