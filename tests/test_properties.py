"""Property tests of the threshold engine's invariants, of the unconfounded
thresholds against the weighted-quantile reference, of the CSSA probe
against the fractional program solved as one LP, of interval widths in
gamma, of the batch interval route against the per-target API (with the
quantile model at each call's alpha), and of the shared nested fold
against a fresh nested fit, over generated inputs.

Derandomized with no example database, so every run checks the same
examples.
"""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confsens.conformal import (
    WeightedDiscreteDist,
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
    BalanceConstraint,
    FractionalProgram,
    _probe,
    cssa_interval,
    cssa_threshold,
    cssa_threshold_batch,
    solve_fractional,
)
from confsens.ite import NestedFold, nested_ite_fit, nested_ite_predict
from confsens.msm import (
    SensitivitySpec,
    min_miscoverage,
    weight_bounds_same_arm,
)
from confsens.oracle import SyntheticDGP, generate
from confsens.pipeline import fit_arms
from confsens.predictors import CLIP, fit_quantile

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
    return cssa_threshold_batch(scores, lo_c, hi_c, (), spec.alpha, hi_t)


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
                == cssa_threshold(v, box, box, [], alpha) == q)


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
def test_csa_unbounded_iff_alpha_below_alpha_star(inst, gamma, rel, below):
    # alpha is drawn outside a relative 1e-6 band around alpha*, where the
    # greedy's sums and the closed form may round to different sides
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
                                     [BalanceConstraint(g, rhs)], alpha, hi_t)
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


def sentinel_program(j, h, lo, hi, A, b, slack_rel):
    """A probe's fractional program from 1-based position j, with the
    sentinel as one more fixed weight (lo = hi = h) that no row covers."""
    return FractionalProgram(j - 1, np.append(lo, h), np.append(hi, h),
                             A_eq=np.column_stack([A, np.zeros(len(A))]),
                             b_eq=b, slack_rel=slack_rel)


@_settings
@given(single_row_probes())
def test_single_row_probe_equals_lp(probe):
    # at the optimal ratio as the level, the probe's weights attain it
    j, h, lo, hi, A, b, slack = probe
    want = solve_fractional(sentinel_program(*probe))
    got = _probe(j, lo, hi, A, b, want.value if want.feasible else 0.5,
                 slack)
    assert (got is not None) == want.feasible
    if got is not None:
        tail, total = got
        assert abs((tail + h) / (total + h) - want.value) <= 1e-7


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


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(160, 320),
       p=st.integers(2, 5), m=st.integers(1, 5), t=st.sampled_from([0, 1]),
       gamma=st.sampled_from(GAMMAS), alpha=st.sampled_from([0.2, 0.3]))
def test_batch_intervals_equal_per_target_api(seed, n, p, m, t, gamma,
                                              alpha):
    dgp = SyntheticDGP(covariate_dim=p)
    ds, _ = generate(dgp, n, seed=seed)
    x_target = generate(dgp, m, seed=seed + 1)[0].covariates
    arm = fit_arms(ds, seed)[t]
    for method in ("nuc", "csa", "cssa"):
        for score in ("mean", "cqr"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # infeasible rows fall back
                lower, upper, thr = arm.intervals(x_target, gamma, alpha,
                                                  method, score)
                single = [_per_target(arm, method, x, gamma, alpha, score)
                          for x in x_target]
            _assert_same_intervals(single, lower, upper, thr)


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
    arm = fit_arms(ds, seed)[t]
    for alpha in alphas + alphas:
        q_hat = fit_quantile(arm.pre_x, arm.pre_y,
                             (alpha / 2.0, 1.0 - alpha / 2.0),
                             scale=arm.scale)
        spec = SensitivitySpec(gamma=gamma, alpha=alpha, t=t)
        single = [csa_interval(arm.mu_hat, arm.fold.propensity, arm.cal_x,
                               arm.cal_y, x, spec, arm.p_t, score="cqr",
                               q_hat=q_hat) for x in x_target]
        _assert_same_intervals(single, *arm.intervals(x_target, gamma,
                                                      alpha, "csa", "cqr"))


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
    arm = fit_arms(ds, seed)[t]
    for score in ("mean", "cqr"):
        nuc = [arm.intervals(x_target, g, alpha, "nuc", score)
               for g in GAMMAS]
        assert all(a.tobytes() == b.tobytes()
                   for other in nuc[1:] for a, b in zip(nuc[0], other))
        _assert_nested_in_gamma([arm.intervals(x_target, g, alpha, "csa",
                                               score) for g in GAMMAS])
        # the fallback to CSA on infeasible balance rows breaks monotonicity,
        # so only gammas whose call did not warn are compared
        sharp = []
        for g in GAMMAS:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = arm.intervals(x_target, g, alpha, "cssa", score)
            if not caught:
                sharp.append(out)
        _assert_nested_in_gamma(sharp)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(120, 260),
       p=st.integers(3, 5), two_arm=st.booleans(),
       gammas=st.permutations(GAMMAS), alpha=st.sampled_from([0.1, 0.2, 0.3]))
def test_nested_fold_equals_fresh_fit(seed, n, p, two_arm, gammas, alpha):
    dgp = SyntheticDGP(covariate_dim=p, two_arm=two_arm)
    ds, _ = generate(dgp, n, seed=seed)
    x_target = generate(dgp, 7, seed=seed + 1)[0].covariates
    fold = NestedFold(ds, seed)
    for gamma in gammas:
        shared = fold.model(gamma, alpha)
        fresh = nested_ite_fit(ds, gamma, alpha, seed=seed)
        assert shared.lo_model.y.tobytes() == fresh.lo_model.y.tobytes()
        assert shared.hi_model.y.tobytes() == fresh.hi_model.y.tobytes()
        assert shared.n_unbounded == fresh.n_unbounded
        for a, b in zip(nested_ite_predict(shared, x_target),
                        nested_ite_predict(fresh, x_target)):
            assert a.tobytes() == b.tobytes()
