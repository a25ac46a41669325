"""Property tests of the threshold engine's invariants, of the unconfounded
thresholds against the weighted-quantile reference, of the CSSA probe
against the fractional program solved as one LP and of a many-row probe
pass against one-row passes and the former scalar probe, of interval
widths in gamma, of the batch interval route against the per-target API
(with the quantile model at each call's alpha), of a gamma grid against
one call per gamma, of the shared nested fold, one gamma or a grid at a
time, against a fresh nested fit and of its endpoints never crossing, of
the batched leave-one-covariate-out propensity fits against separate
fits, of the propensity ascent against a copy of its former arithmetic
and of a batch of fits against one fit per set, of the C-parsed CSV
readers against the row-by-row pass, and of the calibration table and the
shrinkage check against one pass per covariate or factor, over generated
inputs.

Derandomized with no example database, so every run checks the same
examples.
"""

import functools
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confsens.conformal import (
    WeightedDiscreteDist,
    scores_and_band,
    wcp_threshold_nuc_batch,
    weighted_quantile,
)
from confsens.csa import (
    csa_interval,
    csa_threshold,
    greedy_max_quantile,
    greedy_threshold_batch,
)
from confsens.cssa import (
    arm_intervals,
    balance_constraints,
    cssa_interval,
    cssa_threshold,
    cssa_threshold_batch,
    solve_fractional,
)
from confsens import cssa, dataset
from confsens.dataset import (
    ObservationalDataset,
    ingest_covariates,
    ingest_csv,
)
from confsens.harness import shrinkage_sharpness
from confsens.ite import NestedFold, nested_ite_fit, nested_ite_predict
from confsens.msm import (
    GAMMA_MAX,
    SensitivitySpec,
    calibrate_gamma,
    gamma_summary,
    min_miscoverage,
    weight_bounds_same_arm,
)
from confsens.oracle import SyntheticDGP, generate
from confsens.pipeline import fit_arms
from confsens.predictors import (
    CLIP,
    N_ITER,
    PENALTY,
    STEP,
    KNNQuantile,
    NeighborSearch,
    _standardize,
    drop_one_propensities,
    fit_propensities,
    fit_propensity,
)
from test_cssa import probe_one, sentinel_program

ETA = CLIP  # the propensity clip of `fit_propensity`
GAMMAS = (1.0, 1.25, 1.5, 2.0, 3.0, 5.0)

_settings = settings(derandomize=True, database=None, deadline=None,
                     max_examples=150)

# coarse grids force ties in scores and exact ties in the weight sums
scores_st = st.one_of(
    st.lists(st.integers(0, 5).map(float), min_size=1, max_size=30),
    st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=1,
             max_size=30))
# propensities: free, on a coarse grid, or exactly at the clip floor
prop_st = st.one_of(st.floats(ETA, 1.0 - ETA),
                    st.sampled_from([ETA, 1.0 - ETA, 0.25, 0.5]))
alpha_st = st.one_of(st.floats(0.01, 0.99),
                     st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5]))


def csa_batch(scores, e_cal, e_target, spec, p_t):
    """CSA thresholds at many targets: `cssa_threshold_batch` over the
    gamma box with no balance rows."""
    lo_c, hi_c = weight_bounds_same_arm(e_cal, spec.gamma, spec.t, p_t)
    _, hi_t = weight_bounds_same_arm(e_target, spec.gamma, spec.t, p_t)
    return cssa_threshold_batch(scores, lo_c, hi_c, None, spec.alpha, hi_t)


@st.composite
def instances(draw):
    """Calibration scores and propensities, target propensities, p_t,
    alpha and the arm; the calibration propensities may all be equal."""
    scores = np.array(draw(scores_st))
    n = scores.shape[0]
    if draw(st.booleans()):
        e_cal = np.full(n, draw(prop_st))
    else:
        e_cal = np.array(draw(st.lists(prop_st, min_size=n, max_size=n)))
    e_target = np.array(draw(st.lists(prop_st, min_size=1, max_size=8)))
    p_t = draw(st.sampled_from([0.2, 0.4, 0.5]) | st.floats(0.05, 0.95))
    t = draw(st.sampled_from([0, 1]))
    return scores, e_cal, e_target, p_t, draw(alpha_st), t


@_settings
@given(instances())
def test_gamma_one_is_unconfounded_baseline(inst):
    scores, e_cal, e_target, p_t, alpha, t = inst
    spec = SensitivitySpec(gamma=1.0, alpha=alpha, t=t)
    got = csa_batch(scores, e_cal, e_target, spec, p_t)
    want = wcp_threshold_nuc_batch(scores, e_cal, e_target, t, p_t, alpha)
    assert np.array_equal(got, want)
    # the other four entry points agree, per target for the scalar ones
    order = np.argsort(scores, kind="stable")
    w, _ = weight_bounds_same_arm(e_cal[order], 1.0, t, p_t)
    w_target, _ = weight_bounds_same_arm(e_target, 1.0, t, p_t)
    assert np.array_equal(greedy_threshold_batch(scores[order], w, w,
                                                 w_target, alpha), want)
    v = np.append(scores[order], np.inf)
    for e_t, w_t, q in zip(e_target, w_target, want):
        box = np.append(w, w_t)
        assert (csa_threshold(scores, e_cal, e_t, spec, p_t).threshold
                == greedy_max_quantile(v, box, box, alpha).threshold
                == cssa_threshold(v, box, box, None, alpha) == q)


@_settings
@given(instances())
def test_nuc_threshold_is_weighted_quantile(inst):
    # the independent reference: a sorted, tie-merged cumulative sum over
    # the weights p_t / P(T=t | x) with the target's weight on +inf
    scores, e_cal, e_target, p_t, alpha, t = inst
    arm_cal = e_cal if t == 1 else 1.0 - e_cal
    want = [weighted_quantile(WeightedDiscreteDist(
        np.append(scores, np.inf),
        p_t / np.append(arm_cal, e if t == 1 else 1.0 - e)), 1.0 - alpha)
        for e in e_target]
    got = wcp_threshold_nuc_batch(scores, e_cal, e_target, t, p_t, alpha)
    assert list(got) == want


@_settings
@given(st.data())
def test_scalar_greedy_equals_batch(data):
    v = np.sort(np.array(data.draw(scores_st)))
    n = v.shape[0]
    bound = st.floats(0.05, 3.0)
    lo = np.array(data.draw(st.lists(bound, min_size=n, max_size=n)))
    hi = lo + np.array(data.draw(st.lists(st.floats(0.0, 2.0) | st.just(0.0),
                                          min_size=n, max_size=n)))
    h = np.array(data.draw(st.lists(bound, min_size=1, max_size=6)))
    alpha = data.draw(alpha_st)
    got = greedy_threshold_batch(v, lo, hi, h, alpha)
    for k, hk in enumerate(h):
        scalar = greedy_max_quantile(np.append(v, np.inf), np.append(lo, hk),
                                     np.append(hi, hk), alpha)
        assert got[k] == scalar.threshold


@_settings
@given(instances())
def test_csa_threshold_nondecreasing_in_gamma(inst):
    scores, e_cal, e_target, p_t, alpha, t = inst
    thr = np.stack([csa_batch(
        scores, e_cal, e_target, SensitivitySpec(gamma=g, alpha=alpha, t=t),
        p_t) for g in GAMMAS])
    assert np.all(thr[1:] >= thr[:-1])


@_settings
@given(instances(), st.sampled_from(GAMMAS),
       st.floats(1e-6, 0.9, exclude_min=True), st.booleans())
@example((np.arange(7.0), np.full(7, 0.5), np.array([0.5]), 0.2, 0.125, 1),
         2.0, 0.0, False)  # alpha = alpha*: the sentinel's mass ties the level
def test_csa_unbounded_iff_alpha_below_alpha_star(inst, gamma, rel, below):
    # alpha is drawn outside a relative 1e-6 band around alpha*, where the
    # greedy's sums and the closed form may round to different sides; at
    # an exact tie the interval is finite
    scores, e_cal, e_target, p_t, _, t = inst
    for e_t in e_target:
        a_star = min_miscoverage(e_cal, e_t, gamma, t, p_t)
        alpha = a_star * (1.0 - rel if below else 1.0 + rel)
        if not 0.0 < alpha < 1.0:
            continue
        spec = SensitivitySpec(gamma=gamma, alpha=alpha, t=t)
        thr = csa_batch(scores, e_cal, np.array([e_t]), spec, p_t)[0]
        assert np.isinf(thr) == below


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(instances(), st.sampled_from(GAMMAS), st.floats(0.0, 1.0))
@example((np.arange(7.0), np.full(7, 0.5), np.array([0.5]), 0.2, 0.125, 1),
         1.0, 0.0)  # an exact tie: the tail fraction at the sentinel is alpha
def test_cssa_never_exceeds_csa(inst, gamma, where):
    scores, e_cal, e_target, p_t, alpha, t = inst
    spec = SensitivitySpec(gamma=gamma, alpha=alpha, t=t)
    lo_c, hi_c = weight_bounds_same_arm(e_cal, gamma, t, p_t)
    _, hi_t = weight_bounds_same_arm(e_target, gamma, t, p_t)
    # the propensity-balance row with a right-hand side inside its range
    g = e_cal / e_cal.shape[0]
    rhs = float(g @ (lo_c + where * (hi_c - lo_c)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an infeasible row falls back to CSA
        sharp = cssa_threshold_batch(scores, lo_c, hi_c,
                                     (g[None, :], np.array([rhs])), alpha,
                                     hi_t)
    plain = csa_batch(scores, e_cal, e_target, spec, p_t)
    assert np.all(sharp <= plain)


@st.composite
def single_row_probes(draw):
    """A calibration box, one positive balance row, the sentinel mass h
    and a 1-based position 2..n+1 (the positions the CSSA search probes);
    in a second case, one more positive row through a weight vector that
    meets the first, which takes the LP route.

    Entries are free floats or quarters, which tie in a, lo and hi.  The
    row's right-hand side lies at the start corner (tail at hi, the rest
    at lo), anywhere between the box's extremes (so above or below the
    corner), or a margin outside them: infeasible rows stay clear of the
    boundary, where HiGHS's 1e-7 feasibility tolerance and the probe's
    1e-12 slack legitimately disagree.
    """
    n = draw(st.integers(1, 20))
    entry = (st.integers(1, 8).map(lambda k: k / 4.0) if draw(st.booleans())
             else st.floats(0.05, 2.0))
    lo, width, a = (np.array(draw(st.lists(s, min_size=n, max_size=n)))
                    for s in (entry, entry | st.just(0.0), entry))
    hi = lo + width
    j = draw(st.integers(2, n + 1))
    corner = float(a @ np.where(np.arange(n) >= j - 1, hi, lo))
    low, high = float(a @ lo), float(a @ hi)
    b = draw(st.one_of(
        st.just(corner),
        st.floats(0.0, 1.0).map(lambda u: low + u * (high - low)),
        st.floats(0.2, 0.9).map(lambda u: u * low),
        st.floats(1.1, 2.0).map(lambda u: u * high)))
    h = draw(st.floats(0.05, 3.0))
    slack = draw(st.sampled_from([0.0, 1e-6, 1e-3]))
    A, rhs = a[None, :], np.array([b])
    if draw(st.booleans()):
        span = high - low
        share = min(max((b - low) / span, 0.0), 1.0) if span > 0 else 0.0
        a2 = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
        A = np.vstack([A, a2])
        rhs = np.append(rhs, a2 @ (lo + share * width))
    return j, h, lo, hi, A, rhs, slack


@_settings
@given(single_row_probes())
def test_single_row_probe_equals_lp(probe):
    # at the optimal ratio as the level, the probe's weights attain it
    j, h, lo, hi, A, b, slack = probe
    want = solve_fractional(sentinel_program(*probe))
    got = probe_one(j, lo, hi, A, b, want.value if want.feasible else 0.5,
                    slack)
    assert (got is not None) == want.feasible
    if got is not None:
        tail, total = got
        assert abs((tail + h) / (total + h) - want.value) <= 1e-7


@_settings
@given(single_row_probes(), st.floats(0.01, 0.99))
def test_feasibility_does_not_depend_on_the_position(probe, level):
    # a gamma falls back on its first infeasible probe, wherever that
    # probe sits, so every position 2..n+1 (one pass, either route) must
    # agree on whether the box meets the balance rows
    _, _, lo, hi, A, b, slack = probe
    j = np.arange(2, lo.size + 2)
    tail, total = cssa._probe(j, np.tile(lo, (j.size, 1)),
                              np.tile(hi, (j.size, 1)), A, b, level, slack,
                              np.argsort(-A[0], kind="stable"))
    assert np.array_equal(np.isnan(tail), np.isnan(total))
    assert np.isnan(tail).all() or not np.isnan(tail).any()


@st.composite
def probe_passes(draw):
    """Probe rows over one positive balance row, each with a 1-based
    position and one of two boxes, the second holding the first as a
    larger gamma's box does, and a level.  Entries are free floats or
    quarters, which tie in a, lo and hi; the right-hand side is a start
    corner of the first box, between its extremes, or a margin outside
    them, so that rows of one pass may be feasible or not, above or below
    their corners."""
    n = draw(st.integers(1, 20))
    rows = draw(st.integers(1, 6))
    entry = (st.integers(1, 8).map(lambda k: k / 4.0) if draw(st.booleans())
             else st.floats(0.05, 2.0))
    a, lo, width = (np.array(draw(st.lists(s, min_size=n, max_size=n)))
                    for s in (entry, entry, entry | st.just(0.0)))
    hi = lo + width
    box = np.array(draw(st.lists(st.sampled_from([0, 1]), min_size=rows,
                                 max_size=rows)))
    j = np.array(draw(st.lists(st.integers(1, n + 1), min_size=rows,
                               max_size=rows)))
    corner = float(a @ np.where(np.arange(n) >= j[0] - 1, hi, lo))
    low, high = float(a @ lo), float(a @ hi)
    b = draw(st.one_of(
        st.just(corner),
        st.floats(0.0, 1.0).map(lambda u: low + u * (high - low)),
        st.floats(0.2, 0.9).map(lambda u: u * low),
        st.floats(1.1, 2.0).map(lambda u: u * high)))
    level = draw(st.floats(0.01, 0.99))
    slack = draw(st.sampled_from([0.0, 1e-6, 1e-3]))
    lo_rows = np.where(box[:, None] == 1, lo / 2.0, lo)
    hi_rows = np.where(box[:, None] == 1, 2.0 * hi, hi)
    return j, lo_rows, hi_rows, a[None, :], np.array([b]), level, slack


def _probe_reference(j, lo, hi, a, b, level, slack_rel):
    """One position's greedy probe as the scalar code computed it, with
    its row value and tail weight as sums: (tail, total), or None when
    the balance row is infeasible."""
    c = np.zeros(lo.shape[0])
    c[j - 1:] = 1.0
    tail = c > 0.0
    w = np.where(tail, hi, lo)
    lower, upper = b - slack_rel * abs(b), b + slack_rel * abs(b)
    total = float((a * w).sum())
    if not lower - 1e-12 <= total <= upper + 1e-12:
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
    return float((c * w).sum()), float(w.sum())


@_settings
@given(probe_passes())
def test_probe_pass_equals_scalar_probe(probe):
    # a pass over many rows gives each row, feasible or not, the bits a
    # pass of that row alone and the scalar reference give it
    j, lo, hi, A, b, level, slack = probe
    perm = np.argsort(-A[0], kind="stable")
    got = cssa._probe(j, lo, hi, A, b, level, slack, perm)
    for r in range(j.size):
        one = cssa._probe(j[r:r + 1], lo[r:r + 1], hi[r:r + 1], A, b, level,
                          slack, perm)
        assert got[:, r].tobytes() == one[:, 0].tobytes()
        want = _probe_reference(j[r], lo[r], hi[r], A[0], b[0], level, slack)
        if want is None:
            assert np.all(np.isnan(got[:, r]))
        else:
            assert tuple(got[:, r]) == want


def _per_target(arm, method, x, gamma, alpha, score):
    """One target's interval through the public per-target functions."""
    fold = arm.fold
    # the unconfounded baseline is CSA at gamma = 1
    spec = SensitivitySpec(gamma=1.0 if method == "nuc" else gamma,
                           alpha=alpha, t=arm.t)
    common = (arm.mu_hat, fold.propensity, arm.cal_x, arm.cal_y, x)
    q_hat = arm.q_hat(alpha) if score == "cqr" else None
    if method in ("nuc", "csa"):
        return csa_interval(*common, spec, arm.p_t, score=score, q_hat=q_hat)
    return cssa_interval(*common, spec, arm.p_t, fold.cal.covariates,
                         fold.cal.treatment, score=score, q_hat=q_hat)


@pytest.mark.blas
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(160, 320),
       p=st.integers(2, 5), m=st.integers(1, 5), t=st.sampled_from([0, 1]),
       gamma=st.sampled_from(GAMMAS), alpha=st.sampled_from([0.2, 0.3]))
def test_batch_intervals_equal_per_target_api(seed, n, p, m, t, gamma,
                                              alpha):
    dgp = SyntheticDGP(covariate_dim=p)
    ds, _ = generate(dgp, n, seed=seed)
    x_target = generate(dgp, m, seed=seed + 1)[0].covariates
    arm = fit_arms(ds, seed, x_target)[t]
    for method in ("nuc", "csa", "cssa"):
        for score in ("mean", "cqr"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # infeasible rows fall back
                lower, upper, thr = arm.intervals(gamma, alpha, method,
                                                  score)
                single = [_per_target(arm, method, x, gamma, alpha, score)
                          for x in x_target]
            _assert_same_intervals(single, lower, upper, thr)


@pytest.mark.blas
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(160, 320),
       p=st.integers(2, 5), m=st.integers(1, 5), t=st.sampled_from([0, 1]),
       gamma=st.sampled_from(GAMMAS),
       alphas=st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.4]), min_size=2,
                       max_size=2, unique=True))
def test_cqr_intervals_follow_the_calls_alpha(seed, n, p, m, t, gamma,
                                              alphas):
    # one arm serves both alphas, twice over so the second round reads its
    # caches; each round equals the per-target API with a quantile model
    # fitted at that alpha's levels
    dgp = SyntheticDGP(covariate_dim=p)
    ds, _ = generate(dgp, n, seed=seed)
    x_target = generate(dgp, m, seed=seed + 1)[0].covariates
    arm = fit_arms(ds, seed, x_target)[t]
    for alpha in alphas + alphas:
        q_hat = KNNQuantile(NeighborSearch(arm.pre_x), arm.pre_y,
                            (alpha / 2.0, 1.0 - alpha / 2.0))
        spec = SensitivitySpec(gamma=gamma, alpha=alpha, t=t)
        single = [csa_interval(arm.mu_hat, arm.fold.propensity, arm.cal_x,
                               arm.cal_y, x, spec, arm.p_t, score="cqr",
                               q_hat=q_hat) for x in x_target]
        _assert_same_intervals(single, *arm.intervals(gamma, alpha, "csa",
                                                      "cqr"))


def _grid_and_per_gamma(arm, gammas, alpha, method, score):
    """`arm.intervals` over the grid and once per gamma, each with its
    warnings recorded: (grid result, grid warnings, per-gamma results,
    per-gamma warning counts)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        grid = arm.intervals(np.array(gammas), alpha, method, score)
    single, counts = [], []
    for gamma in gammas:
        with warnings.catch_warnings(record=True) as one:
            warnings.simplefilter("always")
            single.append(arm.intervals(gamma, alpha, method, score))
        counts.append(len(one))
    return grid, len(caught), single, counts


def _assert_grid_rows(grid, single):
    """Row g of every grid array is the per-gamma array, bit for bit."""
    for got in grid:
        assert got.shape == (len(single),) + single[0][0].shape
    for g, one in enumerate(single):
        for got, want in zip(grid, one):
            assert got[g].tobytes() == want.tobytes()


@pytest.mark.blas
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(160, 320),
       p=st.integers(2, 5), m=st.integers(1, 5), t=st.sampled_from([0, 1]),
       gammas=st.lists(st.sampled_from(GAMMAS), min_size=1, max_size=4,
                       unique=True),
       alpha=st.sampled_from([0.2, 0.3]))
def test_gamma_grid_equals_one_call_per_gamma(seed, n, p, m, t, gammas,
                                              alpha):
    dgp = SyntheticDGP(covariate_dim=p)
    ds, _ = generate(dgp, n, seed=seed)
    x_target = generate(dgp, m, seed=seed + 1)[0].covariates
    arm = fit_arms(ds, seed, x_target)[t]
    for method in ("nuc", "csa", "cssa"):
        for score in ("mean", "cqr"):
            grid, n_warned, single, counts = _grid_and_per_gamma(
                arm, gammas, alpha, method, score)
            _assert_grid_rows(grid, single)
            # each gamma that falls back warns once, in either route
            assert all(c <= 1 for c in counts) and n_warned == sum(counts)


def test_infeasible_gamma_alone_falls_back():
    # treatment almost separated by x1: arm 1's propensity-balance row is
    # infeasible at gamma 1.5 and feasible at 2, 3 and 4
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(300, 3))
    t = (x[:, 0] + 0.05 * rng.normal(size=300) > 0.5).astype(int)
    ds = ObservationalDataset(x, t, x[:, 1] + rng.normal(size=300))
    arm = fit_arms(ds, 2, x[:7])[1]
    gammas = (1.0, 1.5, 2.0, 3.0, 4.0)
    for score in ("mean", "cqr"):
        grid, n_warned, single, counts = _grid_and_per_gamma(
            arm, gammas, 0.2, "cssa", score)
        assert counts == [0, 1, 0, 0, 0] and n_warned == 1
        _assert_grid_rows(grid, single)
        plain = arm.intervals(np.array(gammas), 0.2, "csa", score)
        # the fallen-back gamma is CSA's row; the sharpened rows are not
        assert all(a[1].tobytes() == b[1].tobytes()
                   for a, b in zip(grid, plain))
        assert any(a[g].tobytes() != b[g].tobytes()
                   for g in (2, 3, 4) for a, b in zip(grid, plain))


def test_infeasible_gamma_alone_falls_back_on_the_lp_route():
    # the same near-separated data with one identity row per covariate,
    # which takes the LP route: arm 1's rows are infeasible at gamma 1.5
    # and feasible at 2 and 3
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(300, 3))
    t = (x[:, 0] + 0.05 * rng.normal(size=300) > 0.5).astype(int)
    ds = ObservationalDataset(x, t, x[:, 1] + rng.normal(size=300))
    arm = fit_arms(ds, 2, x[:7])[1]
    cal = arm.fold.cal
    rows = balance_constraints("identity", arm.cal_x, cal.covariates,
                               cal.treatment, arm.e_cal, arm.fold.e_cal, 1)
    assert rows[0].shape[0] == 3
    band = scores_and_band("mean", arm.mu_hat, arm.cal_x, arm.cal_y,
                           arm.x_target)
    gammas = (1.0, 1.5, 2.0, 3.0)

    def run(gamma, constraints):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = arm_intervals(*band, arm.e_cal, arm.e_target, gamma,
                                0.2, 1, arm.p_t, constraints)
        return out, len(caught)

    grid, n_warned = run(np.array(gammas), rows)
    single = [run(g, rows) for g in gammas]
    assert n_warned == 1 and [c for _, c in single] == [0, 1, 0, 0]
    _assert_grid_rows(grid, [one for one, _ in single])
    plain, _ = run(np.array(gammas), None)
    # the fallen-back gamma is CSA's row; the sharpened rows are not
    assert all(a[1].tobytes() == b[1].tobytes() for a, b in zip(grid, plain))
    assert any(a[g].tobytes() != b[g].tobytes()
               for g in (2, 3) for a, b in zip(grid, plain))


def _assert_same_intervals(single, lower, upper, thr):
    """Per-target intervals equal the batch arrays bit for bit."""
    assert [c.threshold for c in single] == list(thr)
    assert [-np.inf if c.lower is None else c.lower
            for c in single] == list(lower)
    assert [np.inf if c.upper is None else c.upper
            for c in single] == list(upper)


def _assert_nested_in_gamma(intervals):
    """Each interval holds the one at the previous gamma."""
    for (lo_a, hi_a, _), (lo_b, hi_b, _) in zip(intervals, intervals[1:]):
        assert np.all(lo_b <= lo_a) and np.all(hi_b >= hi_a)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(160, 320),
       p=st.integers(2, 5), m=st.integers(1, 5), t=st.sampled_from([0, 1]),
       alpha=st.sampled_from([0.2, 0.3]))
def test_interval_widths_grow_with_gamma(seed, n, p, m, t, alpha):
    dgp = SyntheticDGP(covariate_dim=p)
    ds, _ = generate(dgp, n, seed=seed)
    x_target = generate(dgp, m, seed=seed + 1)[0].covariates
    arm = fit_arms(ds, seed, x_target)[t]
    for score in ("mean", "cqr"):
        nuc = [arm.intervals(g, alpha, "nuc", score) for g in GAMMAS]
        assert all(a.tobytes() == b.tobytes()
                   for other in nuc[1:] for a, b in zip(nuc[0], other))
        _assert_nested_in_gamma([arm.intervals(g, alpha, "csa", score)
                                 for g in GAMMAS])
        # the fallback to CSA on infeasible balance rows breaks monotonicity,
        # so only gammas whose call did not warn are compared
        sharp = []
        for g in GAMMAS:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = arm.intervals(g, alpha, "cssa", score)
            if not caught:
                sharp.append(out)
        _assert_nested_in_gamma(sharp)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(160, 240),
       p=st.integers(2, 4), m=st.integers(1, 5), t=st.sampled_from([0, 1]),
       log_gamma=st.floats(0.0, 300.0))
# the bound itself, one rounding above it, and gammas far inside it
@example(seed=0, n=200, p=3, m=4, t=1, log_gamma=8.0)
@example(seed=0, n=200, p=3, m=4, t=1, log_gamma=8.0 + 1e-12)
@example(seed=1, n=160, p=2, m=5, t=0, log_gamma=4.0)
@example(seed=2, n=240, p=4, m=3, t=1, log_gamma=6.5)
def test_any_gamma_is_solved_or_named(seed, n, p, m, t, log_gamma):
    # gamma log-uniform in [1, 1e300]: every method and score returns
    # intervals with lower <= upper and CSSA inside CSA, or refuses gamma
    # by name, exactly when gamma is above the bound
    gamma = 10.0 ** log_gamma
    dgp = SyntheticDGP(covariate_dim=p)
    ds, _ = generate(dgp, n, seed=seed)
    x_target = generate(dgp, m, seed=seed + 1)[0].covariates
    arm = fit_arms(ds, seed, x_target)[t]
    for score in ("mean", "cqr"):
        out = {}
        for method in ("nuc", "csa", "cssa"):
            if gamma > GAMMA_MAX:
                with pytest.raises(ValueError, match="gamma must be"):
                    arm.intervals(gamma, 0.2, method, score)
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # infeasible rows fall back
                out[method] = arm.intervals(gamma, 0.2, method, score)
            assert np.all(out[method][0] <= out[method][1])
        if out:
            assert np.all(out["cssa"][2] <= out["csa"][2])


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(120, 260),
       p=st.integers(3, 5), two_arm=st.booleans(),
       gammas=st.permutations(GAMMAS), alpha=st.sampled_from([0.1, 0.2, 0.3]))
def test_nested_fold_equals_fresh_fit(seed, n, p, two_arm, gammas, alpha):
    dgp = SyntheticDGP(covariate_dim=p, two_arm=two_arm)
    ds, _ = generate(dgp, n, seed=seed)
    x_target = generate(dgp, 7, seed=seed + 1)[0].covariates
    fold = NestedFold(ds, seed)
    # the models of the whole grid come from one call
    grid = fold.model(np.array(gammas), alpha)
    assert len(grid) == len(gammas)
    for gamma, from_grid in zip(gammas, grid):
        fresh = nested_ite_fit(ds, gamma, alpha, seed=seed)
        for shared in (fold.model(gamma, alpha), from_grid):
            assert shared.lo_model.y.tobytes() == fresh.lo_model.y.tobytes()
            assert shared.hi_model.y.tobytes() == fresh.hi_model.y.tobytes()
            assert shared.n_unbounded == fresh.n_unbounded
            for a, b in zip(nested_ite_predict(shared, x_target),
                            nested_ite_predict(fresh, x_target)):
                assert a.tobytes() == b.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(60, 300),
       p=st.integers(3, 5), two_arm=st.booleans(),
       alpha=st.sampled_from([0.1, 0.2, 0.3]))
# at gamma 2, 48 of its 75 val intervals are unbounded
@example(seed=0, n=150, p=3, two_arm=True, alpha=0.1)
def test_nested_endpoints_never_cross(seed, n, p, two_arm, alpha):
    # GAMMAS run from no val interval unbounded to every one unbounded
    dgp = SyntheticDGP(covariate_dim=p, two_arm=two_arm)
    ds, _ = generate(dgp, n, seed=seed)
    fold = NestedFold(ds, seed)
    x = np.vstack([generate(dgp, 20, seed=seed + 1)[0].covariates,
                   fold.val_x])
    for gamma in GAMMAS:
        model = fold.model(gamma, alpha)
        assert np.all(model.lo_model.predict(x) <= model.hi_model.predict(x))


def _calibrate_by_loop(ds):
    """`calibrate_gamma` as p + 1 separate fits on column-subset copies:
    the reference for the batched fit."""
    p = ds.covariate_dim
    e_full = fit_propensity(ds.covariates, ds.treatment).predict(ds.covariates)
    odds_full = e_full / (1.0 - e_full)
    out = np.empty((ds.n, p))
    for j in range(p):
        x = ds.covariates[:, [c for c in range(p) if c != j]]
        e_drop = fit_propensity(x, ds.treatment).predict(x)
        ratio = odds_full / (e_drop / (1.0 - e_drop))
        out[:, j] = np.where(ratio >= 1.0, ratio, 1.0 / ratio)
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(8, 300),
       p=st.integers(2, 10), scale=st.sampled_from([0.01, 1.0, 100.0]),
       constant=st.booleans(), duplicate=st.booleans())
def test_batched_calibration_equals_separate_fits(seed, n, p, scale,
                                                  constant, duplicate):
    # constant and duplicated columns make some drop-one fits equal the
    # full fit; the ratio is then 1 up to rounding
    rng = np.random.default_rng(seed)
    x = scale * rng.normal(size=(n, p))
    if constant:
        x[:, -1] = scale
    if duplicate:
        x[:, 1] = x[:, 0]
    t = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-x[:, 0] / scale)))
    t[:2] = (False, True)  # both arms present
    ds = ObservationalDataset(x, t.astype(int), rng.normal(size=n))
    np.testing.assert_allclose(calibrate_gamma(ds), _calibrate_by_loop(ds),
                               rtol=1e-12, atol=0.0)
    full = fit_propensity(x, t).predict(x)
    np.testing.assert_allclose(drop_one_propensities(x, t)[:, -1], full,
                               rtol=1e-12, atol=0.0)


def _logistic_reference(z, beta, intercept, out=None, clip=False):
    """1 / (1 + exp(-(z @ beta + intercept))), maybe clipped, as the
    former ascent computed it."""
    e = np.matmul(z, beta, out=out)
    e += intercept
    np.exp(np.negative(e, out=e), out=e)
    np.divide(1.0, np.add(e, 1.0, out=e), out=e)
    return np.clip(e, CLIP, 1.0 - CLIP, out=e) if clip else e


def _ascend_reference(z, t, mask=None):
    """The 500-step ascent as it was before the [z, 1] design: beta and the
    intercept updated apart, with the intercept's step from the mean
    residual."""
    n, p = z.shape
    shape = (p,) if mask is None else mask.shape
    beta, intercept = np.zeros(shape), np.zeros(shape[1:])
    t = t if mask is None else t[:, None]
    resid, grad = np.empty((n,) + shape[1:]), np.empty(shape)
    for _ in range(N_ITER):
        np.subtract(t, _logistic_reference(z, beta, intercept, out=resid),
                    out=resid)
        np.matmul(z.T, resid, out=grad)
        grad /= n
        grad -= 2.0 * PENALTY * beta
        if mask is not None:
            grad *= mask
        beta += np.multiply(grad, STEP, out=grad)
        intercept += STEP * resid.mean(axis=0)
    return beta, intercept[()]


@pytest.mark.blas
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 16),
       n=st.integers(2, 12) | st.integers(13, 300), p=st.integers(1, 8),
       scale=st.sampled_from([0.01, 1.0, 100.0]),
       separated=st.booleans(), constant=st.booleans(),
       duplicate=st.booleans())
def test_ascent_matches_reference(seed, n, p, scale, separated, constant,
                                  duplicate):
    rng = np.random.default_rng(seed)
    x = scale * rng.normal(size=(n, p))
    if constant:
        x[:, -1] = scale
    if duplicate and p > 1:
        x[:, 1] = x[:, 0]
    t = (x[:, 0] > np.median(x[:, 0]) if separated
         else rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-x[:, 0] / scale)))
    t = t.astype(float)
    t[:2] = (0.0, 1.0) if x[0, 0] <= x[1, 0] else (1.0, 0.0)
    z, t_fit, _, _ = _standardize(x, t)
    want = _logistic_reference(z, *_ascend_reference(z, t_fit), clip=True)
    full = fit_propensity(x, t).predict(x)
    np.testing.assert_allclose(full, want, rtol=1e-12, atol=0.0)
    mask = 1.0 - np.eye(p, p + 1)
    want = _logistic_reference(z, *_ascend_reference(z, t_fit, mask),
                               clip=True)
    got = drop_one_propensities(x, t)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got[:, -1], fit_propensity(x, t).predict(x),
                               rtol=1e-12, atol=0.0)


@pytest.mark.blas
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 16), sets=st.integers(1, 9),
       n=st.integers(2, 12) | st.integers(13, 300), p=st.integers(1, 8),
       scale=st.sampled_from([0.01, 1.0, 100.0]),
       separated=st.booleans(), constant=st.booleans(),
       duplicate=st.booleans())
def test_batched_fits_equal_separate_fits(seed, sets, n, p, scale, separated,
                                          constant, duplicate):
    # each set drawn as in test_ascent_matches_reference, from its own seed
    xs, ts = [], []
    for rng in map(np.random.default_rng, range(seed, seed + sets)):
        x = scale * rng.normal(size=(n, p))
        if constant:
            x[:, -1] = scale
        if duplicate and p > 1:
            x[:, 1] = x[:, 0]
        t = (x[:, 0] > np.median(x[:, 0]) if separated
             else rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-x[:, 0] / scale)))
        t = t.astype(float)
        t[:2] = (0.0, 1.0) if x[0, 0] <= x[1, 0] else (1.0, 0.0)
        xs.append(x)
        ts.append(t)
    batch = fit_propensities(xs, ts)
    assert len(batch) == sets
    for x, t, got in zip(xs, ts, batch):
        want = fit_propensity(x, t)
        for name in ("beta_", "intercept_", "mean_", "sd_"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.array_equal(got.predict(x), want.predict(x))


def _gamma_summary_by_loop(gamma_matrix, names):
    """`gamma_summary` as one pass per covariate, as it was written before
    the one array pass: the reference."""
    gamma_matrix = np.asarray(gamma_matrix, dtype=float)
    rows = []
    for j, name in enumerate(names):
        col = gamma_matrix[:, j]
        rows.append({
            "covariate": name,
            "median": float(np.median(col)),
            "p90": float(np.percentile(col, 90)),
            "p99": float(np.percentile(col, 99)),
        })
    return rows


def _shrinkage_by_loop(lower, upper, tau, alpha):
    """`shrinkage_sharpness` as one pass per factor, as it was written
    before the one broadcast comparison: the reference."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    tau = np.asarray(tau, dtype=float)
    bounded = np.isfinite(lower) & np.isfinite(upper)
    n_excluded = int((~bounded).sum())
    center = (lower[bounded] + upper[bounded]) / 2.0
    half = (upper[bounded] - lower[bounded]) / 2.0
    dev = np.abs(tau[bounded] - center)
    table = []
    max_factor = None
    for f in np.round(np.linspace(0.0, 0.3, 31), 4):
        cov = float(np.mean(dev <= (1.0 - f) * half))
        table.append((float(f), cov))
        if cov >= 1.0 - alpha:
            max_factor = float(f)
    return table, max_factor, n_excluded


# gamma-matrix cells, free or on a coarse grid that forces ties
_GAMMA_CELL = st.floats(1.0, 1e6) | st.sampled_from([1.0, 1.25, 2.0])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(matrix=st.integers(1, 6).flatmap(
    lambda p: st.lists(st.lists(_GAMMA_CELL, min_size=p, max_size=p),
                       min_size=1, max_size=40)))
@example(matrix=[[1.0, 3.5, 2.0]])
@example(matrix=[[1.25, 1.25]] * 7 + [[2.0, 1.0]] * 3)
def test_gamma_summary_equals_column_loop(matrix):
    names = [f"x{j}" for j in range(len(matrix[0]))]
    # repr tells every float apart, bit for bit
    assert repr(gamma_summary(matrix, names)) \
        == repr(_gamma_summary_by_loop(matrix, names))


# interval ends: free, on a coarse grid (ties with tau and between
# intervals) or infinite; one interval stays bounded
_END = (st.floats(-10.0, 10.0)
        | st.sampled_from([0.0, 0.5, 1.0, -np.inf, np.inf]))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(ends=st.lists(st.tuples(_END, _END, st.floats(-10.0, 10.0)
                                | st.sampled_from([0.0, 0.5, 1.0])),
                     max_size=40),
       alpha=st.sampled_from([0.05, 0.1, 0.2, 0.5, 0.9]))
@example(ends=[], alpha=0.2)
@example(ends=[(-np.inf, np.inf, 0.0)] * 3 + [(0.0, 1.0, 0.5)] * 2,
         alpha=0.5)
def test_shrinkage_sharpness_equals_factor_loop(ends, alpha):
    a, b, tau = np.array([(0.0, 1.0, 0.95), *ends]).T
    lower, upper = np.minimum(a, b), np.maximum(a, b)
    assert repr(shrinkage_sharpness(lower, upper, tau, alpha)) \
        == repr(_shrinkage_by_loop(lower, upper, tau, alpha))


# cells the C parser and the row-by-row pass must read alike: numbers in
# several spellings, then quoted, padded, underscored, non-finite, empty,
# non-ASCII, non-binary (in `t`) and over-long ones
_NUMBER = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
           | st.floats(-1e3, 1e3).map(lambda v: format(v, ".17g"))
           | st.integers(-3, 3).map(str)
           | st.sampled_from(["-0", "+1e3", "1.", ".5", "1E-2", "0.0"]))
_ODD = st.sampled_from(['"0.5"', '"1"', " 1 ", "\t0", "1_0", "nan", "inf",
                        "-Infinity", "1e400", "", "x", "0.5", "2", "\u0661",
                        "1\x0c", "1 2", "1." + "0" * 140_000])
_HEADERS = st.sampled_from([
    "x1,t,y", "t,x2,x1,y", "y,t,x1", "x1", "x1,x2", "t,y", "x1,t",
    '"x1",t,y', "x1,x1,t,y", "x1,t,y,x2", "x1,,t,y"])


@st.composite
def csv_texts(draw):
    """A header and up to five rows, maybe with one odd cell, a ragged row,
    blank or whitespace-only lines and no final line end, joined by one of
    LF, CRLF and CR; and the header's names other than `t` and `y`."""
    header = draw(_HEADERS)
    names = header.replace('"', "").split(",")
    rows = [[draw(st.sampled_from(["0", "1", "1.0", "0e0"]) if c == "t"
                  else _NUMBER) for c in names]
            for _ in range(draw(st.integers(0, 5)))]
    if rows and draw(st.integers(0, 2)) == 0:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(_ODD)
    if rows and draw(st.integers(0, 3)) == 0:
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()) or len(row) == 1:
            row.append(draw(_NUMBER))
        else:
            row.pop()
    lines = [header] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))),
                     draw(st.sampled_from(["", "", " ", "\t "])))
    eol = draw(st.sampled_from(["\n", "\r\n", "\n", "\r\n", "\r"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    return text, [c for c in names if c not in ("t", "y")]


def _read_outcome(read, path):
    """What `read(path)` gives: its arrays' shapes and bytes, or its error."""
    try:
        got = read(path)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(got, ObservationalDataset):
        return got.names, *[(a.shape, a.dtype, a.tobytes()) for a in (
            got.covariates, got.treatment, got.outcome)]
    return got.shape, got.dtype, got.tobytes()


CR_ONLY = "x1,t,y\r0.5,1,2.0\r0.25,0,1.0\r"
QUOTED = 'x1,t,y\n"0.5","1",2.0\n0.25,0,"1.0"\n'


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(csv_texts())
# header only: loadtxt's "no data" warning stays inside
@example(("x1,t,y\n", ["x1"]))
@example(("x1\r\n", ["x1"]))
# a finite field over the `csv` size limit is still refused
@example((f"x1,t,y\n0.5,1,1.0\n1.{'0' * 140_000},1,1.0\n", ["x1"]))
# and so is one that spans lines within quotes
@example(('x1,t,y\n"' + " \n" * 70_001 + '1",1,2.0\n', ["x1"]))
# a non-binary treatment and non-finite values in plain numbers
@example(("x1,t,y\n0.5,1,2.0\n0.25,0.5,1.0\n", ["x1"]))
@example(("t,x1,y\n1,0.5,nan\n", ["x1"]))
@example(("x1,t,y\n0.5,1,2.0\n1e400,0,1.0\n", ["x1"]))
# files the C parser reads, and line ends it leaves to the `csv` pass
@example((CR_ONLY, ["x1"]))
@example((QUOTED, ["x1"]))
@example(("x1,t,y\n0.5,1,2.0\r0.25,0,1.0\n", ["x1"]))  # a lone CR
@example(("x1,t,y\n0.5,1,2.0\x0c0.25,0,1.0\n", ["x1"]))  # a ragged row
def test_csv_reader_matches_row_by_row(text_covariates):
    text, covariates = text_covariates
    readers = (ingest_csv,
               functools.partial(ingest_covariates,
                                 names=covariates[::-1] or ["x1"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        for read in readers:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fast = _read_outcome(read, path)
            assert not caught
            with mock.patch.object(dataset, "_parse", lambda text: None):
                assert fast == _read_outcome(read, path)


@pytest.mark.parametrize("text", [CR_ONLY, QUOTED])
def test_well_formed_csv_takes_the_c_parser(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(dataset, "_float_rows",
                           wraps=dataset._float_rows) as slow:
        ds = ingest_csv(path)
        x = ingest_covariates(path, ["x1"])
    assert slow.call_count == 0
    assert ds.covariates.tolist() == x.tolist() == [[0.5], [0.25]]
    assert ds.treatment.tolist() == [1, 0]
    assert ds.outcome.tolist() == [2.0, 1.0]
