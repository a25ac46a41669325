"""Sharpened sensitivity analysis with covariate-balancing constraints.

Adds researcher-chosen moment constraints to the worst-case quantile
optimization, which can only shrink the feasible weight set and hence the
interval.  A target's threshold is the largest position whose maximal
normalized tail mass exceeds the level.  By Dinkelbach's lemma that test
needs only the weights maximizing tail - level * total, which do not
depend on the target's sentinel mass: one target-free probe per position,
shared by every target of a batch, which bisect their positions in
lockstep.  Gamma is a batch axis too: a grid of gammas gives one weight
box per gamma, every (gamma, target) pair bisects in the same lockstep,
and one round's probes are one array pass.  With a single positive
balance constraint that pass is a vectorized greedy over the probe rows;
any other set is one LP per probe.  `solve_fractional` solves the
fractional program itself as one LP through the Charnes-Cooper change of
variables.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .conformal import (_NORM_TOL, PredictiveInterval, _flip_index,
                        scores_and_band)
from .lp import solve_lp
from .msm import SensitivitySpec, check_alpha, weight_bounds_same_arm

__all__ = [
    "FractionalProgram",
    "FractionalResult",
    "balance_rhs",
    "balance_constraints",
    "solve_fractional",
    "cssa_threshold",
    "cssa_threshold_batch",
    "arm_intervals",
    "cssa_interval",
]

# relative slack of the balance rows in the threshold search
_SLACK_REL = 1e-6


@dataclass(frozen=True)
class FractionalProgram:
    """maximize sum_{i >= tail_index} w_i / sum_i w_i over a weight box
    intersected with equality constraints (relaxed by a relative slack)."""

    tail_index: int
    lo: np.ndarray
    hi: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    slack_rel: float = _SLACK_REL

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
                   A_eq=np.append(np.ones(n), 0.0)[None, :], b_eq=[1.0])
    if not res.optimal or res.x[n] <= 0:
        return FractionalResult(feasible=False)
    return FractionalResult(feasible=True, value=res.value,
                            weights=res.x[:n] / res.x[n])


def _probe(j, lo, hi, A, b, level, slack_rel, perm):
    """(tail, total), the weight at positions >= j and the total weight,
    per probe row, for the weights w that maximize c @ w - level * w.sum()
    over the row's box lo <= w <= hi and the balance rows
    |A w - b| <= slack_rel * |b|, with c the indicator of the 1-based
    positions >= j; NaN where the balance rows are infeasible, which does
    not depend on j.  `j` holds P positions and `lo`/`hi` are (P, n).

    By Dinkelbach's lemma, for any sentinel mass h > 0 some w in the set
    has (c @ w + h) / (w.sum() + h) > level exactly when this w does, and
    w does not depend on h: one probe serves every target of a batch.

    The route is decided here: one all-positive row is solved by one greedy
    pass over all P rows at once.  The box optimum puts the tail at `hi` and
    the rest at `lo`; if the row cuts that corner off, Dantzig's knapsack
    repair lowers the tail weights (or raises the rest) by (1 - level)/a (or
    level/a) per unit of the row, i.e. in decreasing a whatever the level
    (`perm`, the stable argsort of -a, which the caller computes once), and at
    most one weight ends fractional.  A row below the corner is the mirror
    image on -w (negation is exact).  The repair's running row value is one
    subtract-accumulate per row over all positions in that order, the
    positions that do not move subtracting an exact 0.  Row-wise sums equal
    the 1-D sum bit for bit, so a pass gives each row what a pass of one row
    gives it.  Other rows: one LP per probe row.
    """
    j = np.asarray(j)
    n = lo.shape[1]
    tail = np.arange(n) >= j[:, None] - 1
    if A.shape[0] != 1 or not np.all(A[0] > 0.0):
        delta = slack_rel * np.abs(b)
        out = np.full((2, j.size), np.nan)
        for r, c in enumerate(tail.astype(float)):
            res = solve_lp(c - level, A_ub=np.vstack([A, -A]),
                           b_ub=np.concatenate([b + delta, delta - b]),
                           bounds=np.column_stack([lo[r], hi[r]]))
            if res.optimal:
                out[:, r] = c @ res.x, res.x.sum()
        return out
    a, b = A[0], b[0]
    w = np.where(tail, hi, lo)
    lower, upper = b - slack_rel * abs(b), b + slack_rel * abs(b)
    total = (a * w).sum(axis=1)
    infeasible = []
    fix = np.flatnonzero((total < lower - 1e-12) | (total > upper + 1e-12))
    if fix.size:
        # row above the corner: lower the tail weights; below: raise the
        # rest.  Columns from here on run in decreasing a (`perm`).
        above = total[fix] > upper
        s = np.where(above, 1.0, -1.0)[:, None]
        bound = np.where(above, upper, -lower)[:, None]
        tail_p = perm >= j[fix, None] - 1
        floor, hi_p = lo[fix][:, perm], hi[fix][:, perm]
        v = np.where(tail_p, hi_p, floor)
        v *= s
        np.copyto(floor, hi_p, where=~tail_p)
        floor *= s
        del hi_p  # freed before the running sums are allocated
        move = tail_p == above[:, None]
        a_p = a[perm]
        run = np.empty((fix.size, n + 1))
        run[:, :1] = s * total[fix, None]
        np.subtract(v, floor, out=run[:, 1:])
        run[:, 1:] *= a_p
        run[:, 1:][~move] = 0.0
        np.subtract.accumulate(run, axis=1, out=run)
        short = run[:, 1:] < bound
        k = short.argmax(axis=1)
        cut = short[np.arange(fix.size), k]
        k[~cut] = n
        infeasible = fix[~cut & (run[:, -1] > bound[:, 0] + 1e-12)]
        done = move & (np.arange(n) < k[:, None])
        v[done] = floor[done]
        r = np.flatnonzero(cut)
        v[r, k[r]] -= (run[r, k[r]] - bound[r, 0]) / a_p[k[r]]
        w[fix[:, None], perm] = s * v
    out = np.stack([np.where(tail, w, 0.0).sum(axis=1), w.sum(axis=1)])
    out[:, infeasible] = np.nan
    return out


def _sorted_box(scores, lo_c, hi_c, alpha):
    """The checks every threshold shares, then the stable sort: the
    calibration order, the sorted scores with the +inf sentinel appended,
    and the sorted weight bounds, (n,) or one (G, n) row per gamma."""
    scores = np.asarray(scores, dtype=float)
    lo_c = np.asarray(lo_c, dtype=float)
    hi_c = np.asarray(hi_c, dtype=float)
    if scores.size == 0:
        raise ValueError("empty calibration set")
    if (scores.ndim != 1 or lo_c.ndim > 2 or hi_c.shape != lo_c.shape
            or lo_c.shape[-1:] != scores.shape):
        raise ValueError("bounds are misaligned with scores")
    for name, bound in (("lower", lo_c), ("upper", hi_c)):
        if not ((bound >= 0.0) & (bound < np.inf)).all():  # NaN fails too
            raise ValueError(f"{name} weight bounds must be finite and "
                             "non-negative")
    check_alpha(alpha)
    order = np.argsort(scores, kind="stable")
    return (order, np.append(scores[order], np.inf), lo_c[..., order],
            hi_c[..., order])


def cssa_threshold(scores, lo, hi, constraints, alpha) -> float:
    """Constrained worst-case score threshold at one target (possibly
    +inf): `cssa_threshold_batch` for a batch of one.

    `scores` are ascending with the +inf sentinel last; `lo`/`hi` aligned,
    the sentinel's upper bound being the target's weight; the balance
    rows' coefficients cover the calibration positions in the same order
    (the sentinel weight is unconstrained).
    """
    scores = np.asarray(scores, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if scores.shape[0] < 2 or not np.isinf(scores[-1]):
        raise ValueError("scores must end with the +inf sentinel")
    return float(cssa_threshold_batch(scores[:-1], np.asarray(lo)[:-1],
                                      hi[:-1], constraints, alpha,
                                      hi[-1:])[0])


# probe rows per pass: a greedy pass holds a few (64, n) float arrays
_PASS_ROWS = 64


def cssa_threshold_batch(scores, lo_c, hi_c, constraints, alpha, hi_target):
    """Constrained thresholds for many targets over one calibration set:
    the one threshold routine, which every other threshold calls.

    `scores` covers the n calibration units (unsorted); `lo_c`/`hi_c` are
    their (n,) weight bounds, or (G, n) with one row per gamma of a grid;
    `constraints` is None or the balance rows A w = b as one (A, b) pair,
    A of shape (rows, n) over the same units; `hi_target` gives each
    target's sentinel upper bound h, (m,) or (G, m).  The thresholds have
    the shape of `hi_target`.  A target's threshold sits at the largest
    1-based position j, never above its unconstrained greedy flip, whose
    maximal tail fraction (tail + h) / (total + h) exceeds the level;
    position 1 always does.  The probe at j does not depend on the target
    (`_probe`), so every (gamma, target) pair bisects [1, flip] in
    lockstep, and each round probes its distinct (gamma, position) pairs
    once, in passes of at most `_PASS_ROWS` rows.  Raises ValueError on an
    empty calibration set, misaligned bounds or rows, non-finite or
    negative weight bounds, non-finite row entries or an alpha outside
    (0, 1), and RuntimeError when a gamma's probed tail - level * total,
    which cannot grow with j, does.

    A gamma whose weight box is a point (gamma = 1), or any gamma when
    there are no constraints, gets the greedy thresholds; so does a gamma
    whose constraints a probe finds infeasible, decided after the search,
    with one warning, leaving the other gammas' rows untouched.  Such a
    fallback breaks monotonicity in gamma: the CSA thresholds at a gamma
    whose balance row is infeasible can exceed the sharpened thresholds at
    a larger gamma.
    """
    order, ext, lo, hi = _sorted_box(scores, lo_c, hi_c, alpha)
    grid = lo.ndim == 2
    lo, hi = np.atleast_2d(lo), np.atleast_2d(hi)
    h = np.asarray(hi_target, dtype=float)
    h = h if grid else np.atleast_1d(h)[None]
    if h.ndim != 2 or h.shape[0] != lo.shape[0]:
        raise ValueError("need one row of target weights per gamma")
    flips = _flip_index(lo, hi, h, alpha) + 1  # 1-based greedy stops
    if constraints is not None:
        A, b = (np.asarray(v, dtype=float) for v in constraints)
        if b.ndim != 1 or A.shape != (b.size, order.size):
            raise ValueError("balance rows must cover the calibration "
                             "units, one rhs per row")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("constraint entries must be finite")
        flips = _bisect(flips, lo, hi, h, A[:, order], b, alpha)
    thr = ext[flips - 1]
    return thr if grid else thr[0]


def _bisect(flips, lo, hi, h, A, b, alpha):
    """The lockstep bisection of `cssa_threshold_batch` over its (gamma,
    target) pairs, the balance columns in sorted order: the 1-based
    positions, or the greedy `flips` for a gamma whose box is a point or
    whose rows a probe finds infeasible (warned about after the search)."""
    level = alpha + _NORM_TOL  # decides exact ties as the greedy does
    n_g, width = lo.shape[0], lo.shape[1] + 2  # positions 0..n + 1
    probes = np.full((2, n_g, width), np.nan)  # (tail, total) by position
    rows = np.arange(n_g)[:, None]
    search = ~np.all(lo == hi, axis=1)  # the gammas searched
    bad = np.zeros(n_g, dtype=bool)  # the gammas whose rows are infeasible
    left = np.ones_like(flips)
    right = np.where(search[:, None], flips, 1)
    perm = np.argsort(-A[0], kind="stable")
    live = left < right
    while live.any():
        mid = (left + right + 1) // 2
        fresh = np.zeros(n_g * width, dtype=bool)
        fresh[(rows * width + mid)[live]] = True
        need = np.flatnonzero(fresh & np.isnan(probes[0].reshape(-1)))
        for start in range(0, need.size, _PASS_ROWS):
            gr, jr = np.divmod(need[start:start + _PASS_ROWS], width)
            probes[:, gr, jr] = _probe(jr, lo[gr], hi[gr], A, b, level,
                                       _SLACK_REL, perm)
            bad[gr[np.isnan(probes[0, gr, jr])]] = True
        tail, total = probes[:, rows, mid]
        above = (tail + h) / (total + h) > level
        left = np.where(live & above, mid, left)
        right = np.where(live & ~above, mid - 1, right)
        live = (left < right) & ~bad[:, None]
    for _ in np.flatnonzero(bad):
        warnings.warn("balancing constraints infeasible; falling back to "
                      "the unconstrained thresholds")
    search &= ~bad
    for row_tail, row_total in zip(*probes[:, search]):
        probed = ~np.isnan(row_tail)
        gap = row_tail[probed] - level * row_total[probed]
        if np.any(np.diff(gap) > 1e-9):
            raise RuntimeError("probe values increase with the tail position")
    return np.where(search[:, None], left, flips)


def balance_constraints(g_kind, cal_x, full_x, full_t, e_cal, e_full, t):
    """Balancing rows (A, b) over one arm's calibration units, in their
    order: A is (rows, units) and b is (rows,).

    Each row asks that the weighted mean of a balancing function g over
    the arm's units, sum_i w_i g(X_i) / n_arm, equal the inverse-propensity
    mean of g over the whole calibration fold `full_x`/`full_t` (see
    `balance_rhs`).  `g_kind` picks g: the estimated propensity
    ("propensity", with `e_cal`/`e_full` its values) or every covariate
    coordinate ("identity").
    """
    if g_kind == "propensity":
        g_full, g_cal = np.atleast_2d(e_full), np.atleast_2d(e_cal)
    elif g_kind == "identity":
        g_full, g_cal = full_x.T, cal_x.T
    else:
        raise ValueError(f"unknown balancing function kind {g_kind!r}")
    return g_cal / cal_x.shape[0], np.array(
        [balance_rhs(full_t, e_full, g, t) for g in g_full])


def arm_intervals(scores, band, e_cal, e_target, gamma, alpha, t, p_t,
                  constraints=None):
    """(lower, upper, threshold) arrays for Y(t) at the targets whose
    propensities are `e_target`: the same-arm weight box at gamma over the
    calibration `scores`, `cssa_threshold_batch` with the balance rows, and
    the score's (lower, upper) `band` at the targets widened by the
    thresholds.  The weight bounds are uniform in y, so each interval is
    assembled analytically; an infinite threshold gives -inf / +inf.  A
    1-D gamma grid gives (gammas, targets) arrays from one threshold call."""
    lo_c, hi_c = weight_bounds_same_arm(e_cal, gamma, t, p_t)
    _, hi_t = weight_bounds_same_arm(e_target, gamma, t, p_t)
    thr = cssa_threshold_batch(scores, lo_c, hi_c, constraints, alpha, hi_t)
    return band[0] - thr, band[1] + thr, thr


def _target_interval(mu_hat, propensity, cal_x, cal_y, e_cal, x_target,
                     spec: SensitivitySpec, p_t,
                     constraints=None) -> PredictiveInterval:
    """The mean-score interval for Y(t) at one target row, (p,) or (1, p),
    shared by `csa_interval` (no rows) and `cssa_interval`: `arm_intervals`
    for a batch of one, or (None, None, inf) when the threshold is infinite."""
    x_target = np.asarray(x_target, dtype=float)
    if x_target.ndim == 0 or x_target.shape[:-1] not in ((), (1,)):
        raise ValueError(f"need one target row, (p,) or (1, p); got an "
                         f"array of shape {x_target.shape}")
    x_target = x_target.reshape(1, -1)
    (lower,), (upper,), (q,) = arm_intervals(
        *scores_and_band("mean", mu_hat, cal_x, cal_y, x_target), e_cal,
        propensity.predict(x_target), spec.gamma, spec.alpha, spec.t, p_t,
        constraints)
    if np.isinf(q):
        return PredictiveInterval(None, None, np.inf)
    return PredictiveInterval(float(lower), float(upper), float(q))


def cssa_interval(mu_hat, propensity, cal_x, cal_y, x_target,
                  spec: SensitivitySpec, p_t, full_x, full_t,
                  g_kind="propensity") -> PredictiveInterval:
    """Sharpened worst-case interval for Y(t) at one target point.

    `full_x`/`full_t` hold the calibration fold with both arms, used for
    the inverse-propensity balance targets.  `g_kind` picks the balancing
    functions: the estimated propensity (default) or the identity
    coordinates.
    """
    cal_x = np.asarray(cal_x, dtype=float)
    full_x = np.asarray(full_x, dtype=float)
    e_cal = propensity.predict(cal_x)
    constraints = balance_constraints(g_kind, cal_x, full_x, full_t, e_cal,
                                      propensity.predict(full_x), spec.t)
    return _target_interval(mu_hat, propensity, cal_x, cal_y, e_cal,
                            x_target, spec, p_t, constraints)
