import itertools
import re

import numpy as np
import pytest

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
from confsens.cssa import cssa_threshold, cssa_threshold_batch
from confsens.msm import (
    SensitivitySpec,
    min_miscoverage,
    weight_bounds_same_arm,
)
from confsens.predictors import (KNNQuantile, NeighborSearch, fit_mean,
                                 fit_propensity)


def brute_force_max_quantile(scores, lo, hi, alpha):
    """Exhaustive corner-search reference: the (1 - alpha) weighted
    quantile maximized over all 2^m assignments of each weight to its
    lower or upper bound."""
    best = -np.inf
    m = len(scores)
    for corner in itertools.product(*[(lo[i], hi[i]) for i in range(m)]):
        d = WeightedDiscreteDist(scores, np.array(corner))
        q = weighted_quantile(d, 1.0 - alpha)
        best = max(best, q)
    return best


def csa_batch(scores, e_cal, e_target, spec, p_t):
    """CSA thresholds at many targets: `cssa_threshold_batch` over the
    gamma box with no balance rows."""
    lo_c, hi_c = weight_bounds_same_arm(e_cal, spec.gamma, spec.t, p_t)
    _, hi_t = weight_bounds_same_arm(np.asarray(e_target, dtype=float),
                                     spec.gamma, spec.t, p_t)
    return cssa_threshold_batch(scores, lo_c, hi_c, None, spec.alpha, hi_t)


class TestGreedy:
    def test_two_point_fixture(self):
        v = np.array([1.0, 2.0, np.inf])
        lo = np.full(3, 1.0)
        hi = np.full(3, 1.5)
        res = greedy_max_quantile(v, lo, hi, alpha=0.5)
        assert res.threshold == 2.0
        assert res.threshold == brute_force_max_quantile(v, lo, hi, 0.5)

    def test_uniform_reduces_to_weighted_quantile(self):
        v = np.array([1.0, 2.0, 3.0, np.inf])
        w = np.full(4, 0.25)
        res = greedy_max_quantile(v, w, w, alpha=0.25)
        assert res.threshold == 3.0

    def test_small_alpha_unbounded(self):
        v = np.array([1.0, 2.0, np.inf])
        lo = np.full(3, 1.0)
        hi = np.full(3, 1.5)
        # sentinel upper mass alone exceeds alpha * total
        res = greedy_max_quantile(v, lo, hi, alpha=0.1)
        assert np.isinf(res.threshold)

    def test_weight_layout(self):
        v = np.array([1.0, 2.0, 3.0, np.inf])
        lo = np.full(4, 0.5)
        hi = np.full(4, 2.0)
        res = greedy_max_quantile(v, lo, hi, alpha=0.4)
        k = res.flip_index
        assert np.array_equal(res.weights[:k], lo[:k])
        assert np.array_equal(res.weights[k:], hi[k:])
        assert res.iterations <= 4

    def test_misaligned_error(self):
        with pytest.raises(ValueError):
            greedy_max_quantile(np.array([1.0, np.inf]), np.ones(3),
                                np.ones(3), 0.2)

    def test_needs_sentinel(self):
        with pytest.raises(ValueError, match="sentinel"):
            greedy_max_quantile(np.array([1.0, 2.0]), np.ones(2),
                                np.ones(2), 0.2)

    def test_needs_sorted_scores(self):
        with pytest.raises(ValueError, match="sorted ascending"):
            greedy_max_quantile(np.array([2.0, 1.0, np.inf]), np.ones(3),
                                np.ones(3), 0.2)

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            v = np.append(np.sort(np.round(rng.normal(size=n), 1)), np.inf)
            lo = rng.uniform(0.1, 1.0, size=n + 1)
            hi = lo + rng.uniform(0.0, 1.0, size=n + 1)
            alpha = rng.uniform(0.05, 0.95)
            got = greedy_max_quantile(v, lo, hi, alpha).threshold
            want = brute_force_max_quantile(v, lo, hi, alpha)
            assert got == want

    def test_all_equal_scores(self):
        v = np.array([2.0, 2.0, 2.0, np.inf])
        lo = np.full(4, 1.0)
        hi = np.full(4, 1.0)
        assert greedy_max_quantile(v, lo, hi, 0.3).threshold == 2.0
        assert np.isinf(greedy_max_quantile(v, lo, hi, 0.2).threshold)


class TestThreshold:
    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=30)
        e = rng.uniform(0.25, 0.5, size=30)
        prev = -np.inf
        for g in (1.0, 1.5, 2.0, 3.0):
            spec = SensitivitySpec(gamma=g, alpha=0.2, t=1)
            thr = csa_threshold(scores, e, 0.4, spec, 0.4).threshold
            assert thr >= prev
            prev = thr

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=30)
        e = rng.uniform(0.25, 0.5, size=30)
        prev = np.inf
        for alpha in (0.1, 0.2, 0.3, 0.5):
            spec = SensitivitySpec(gamma=2.0, alpha=alpha, t=1)
            thr = csa_threshold(scores, e, 0.4, spec, 0.4).threshold
            assert thr <= prev
            prev = thr

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=40)
        e_cal = rng.uniform(0.25, 0.5, size=40)
        e_t = rng.uniform(0.25, 0.5, size=20)
        spec = SensitivitySpec(gamma=2.0, alpha=0.2, t=1)
        batch = csa_batch(scores, e_cal, e_t, spec, 0.4)
        single = [csa_threshold(scores, e_cal, et, spec, 0.4).threshold
                  for et in e_t]
        assert np.array_equal(batch, np.array(single))
        # equal weights at gamma = 1 put the tail fraction exactly at alpha
        # at one flip position; every route must return the conformal rank
        for n, alpha, want in ((9, 0.1, 8.0), (5, 0.5, 2.0)):
            scores, e = np.arange(float(n)), np.full(n, 0.5)
            spec = SensitivitySpec(gamma=1.0, alpha=alpha, t=1)
            assert csa_batch(scores, e, [0.5], spec, 0.4)[0] == want
            assert csa_threshold(scores, e, 0.5, spec, 0.4).threshold == want
            assert wcp_threshold_nuc_batch(scores, e, [0.5], 1, 0.4,
                                           alpha)[0] == want

    def test_batch_greedy_matches_scalar_greedy(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            v = np.sort(rng.normal(size=n))
            lo = rng.uniform(0.1, 1.0, size=n)
            hi = lo + rng.uniform(0.0, 1.0, size=n)
            h_t = rng.uniform(0.1, 2.0, size=5)
            alpha = rng.uniform(0.05, 0.9)
            got = greedy_threshold_batch(v, lo, hi, h_t, alpha)
            for j, h in enumerate(h_t):
                ref = greedy_max_quantile(np.append(v, np.inf),
                                          np.append(lo, h * 0.5),
                                          np.append(hi, h), alpha).threshold
                assert got[j] == ref


_SCORES = np.array([0.3, 0.7, 1.1, 1.2, 2.0])  # ascending
_V = np.append(_SCORES, np.inf)
_E_CAL = np.array([0.3, 0.5, 0.4, 0.6, 0.45])


def _e_cal(extra):
    """The calibration propensities, `extra` entries longer (cycling) or
    shorter than the scores."""
    return np.resize(_E_CAL, _SCORES.size + extra)


def _bounds(extra, sentinel=False):
    """Gamma = 2 weight bounds of `_e_cal(extra)`, with a target's bounds
    (1, 1) appended when `sentinel`."""
    return [np.append(b, 1.0) if sentinel else b
            for b in weight_bounds_same_arm(_e_cal(extra), 2.0, 1, 0.4)]


# The six threshold entry points on one instance, as functions of alpha
# and of how much longer the calibration bounds are than the scores.
ENTRY_POINTS = {
    "greedy_max_quantile": lambda alpha, extra: greedy_max_quantile(
        _V, *_bounds(extra, sentinel=True), alpha).threshold,
    "greedy_threshold_batch": lambda alpha, extra: greedy_threshold_batch(
        _SCORES, *_bounds(extra), [1.0], alpha)[0],
    "csa_threshold": lambda alpha, extra: csa_threshold(
        _SCORES, _e_cal(extra), 0.5,
        SensitivitySpec(gamma=2.0, alpha=alpha, t=1), 0.4).threshold,
    "wcp_threshold_nuc_batch": lambda alpha, extra: wcp_threshold_nuc_batch(
        _SCORES, _e_cal(extra), [0.5], 1, 0.4, alpha)[0],
    "cssa_threshold": lambda alpha, extra: cssa_threshold(
        _V, *_bounds(extra, sentinel=True), None, alpha),
    "cssa_threshold_batch": lambda alpha, extra: cssa_threshold_batch(
        _SCORES, *_bounds(extra), None, alpha, [1.0])[0],
}


class TestEntryPointRefusals:
    """Every threshold entry point refuses the same inputs the same way."""

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5, np.nan])
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_alpha_outside_unit_interval(self, entry, alpha):
        with pytest.raises(ValueError,
                           match=re.escape("alpha must lie in (0, 1)")):
            ENTRY_POINTS[entry](alpha, 0)

    @pytest.mark.parametrize("extra", [-1, 1])
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_misaligned_bounds(self, entry, extra):
        # too long used to be cut to a prefix, too short an IndexError
        with pytest.raises(ValueError, match="misaligned"):
            ENTRY_POINTS[entry](0.2, extra)

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_valid_instance_answers(self, entry):
        assert np.isfinite(ENTRY_POINTS[entry](0.4, 0))


def _fitted_instance(seed=0, n=200):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 3))
    t = (rng.uniform(size=n) < 0.4).astype(int)
    y = x[:, 0] + rng.normal(size=n)
    idx1 = np.flatnonzero(t == 1)
    mu = fit_mean(x[idx1][:40], y[idx1][:40])
    prop = fit_propensity(x, t)
    cal_x = x[idx1][40:]
    cal_y = y[idx1][40:]
    return mu, prop, cal_x, cal_y


class TestInterval:
    def test_gamma_one_equals_nuc(self):
        mu, prop, cal_x, cal_y = _fitted_instance()
        spec = SensitivitySpec(gamma=1.0, alpha=0.2, t=1)
        x0 = np.array([0.5, 0.5, 0.5])
        a = csa_interval(mu, prop, cal_x, cal_y, x0, spec, 0.4)
        scores = np.abs(cal_y - mu.predict(cal_x))
        q = wcp_threshold_nuc_batch(scores, prop.predict(cal_x),
                                    prop.predict(x0[None, :]), 1, 0.4, 0.2)[0]
        mu0 = mu.predict(x0[None, :])[0]
        assert (a.lower, a.upper, a.threshold) == (mu0 - q, mu0 + q, q)

    def test_widens_with_gamma(self):
        mu, prop, cal_x, cal_y = _fitted_instance(seed=1)
        x0 = np.array([0.5, 0.5, 0.5])
        widths = []
        for g in (1.0, 2.0, 4.0):
            spec = SensitivitySpec(gamma=g, alpha=0.2, t=1)
            lower, upper, _ = csa_interval(mu, prop, cal_x, cal_y, x0,
                                           spec, 0.4)
            widths.append(upper - lower)
        assert widths[0] <= widths[1] <= widths[2]

    @pytest.mark.parametrize("score", ["mean", "cqr"])
    def test_band_widened_by_threshold(self, score):
        # the score's band at the target widened by the threshold, bit for
        # bit; (None, None, inf) when alpha is below alpha* (at alpha*
        # the sentinel's mass ties the level and the quantile stays finite)
        mu, prop, cal_x, cal_y = _fitted_instance(seed=3)
        q_hat = KNNQuantile(NeighborSearch(cal_x[:20]), cal_y[:20], (0.1, 0.9))
        cal_x, cal_y = cal_x[20:], cal_y[20:]
        x0 = np.array([0.5, 0.5, 0.5])
        _, (band_lo, band_hi) = scores_and_band(
            score, q_hat if score == "cqr" else mu, cal_x, cal_y, x0[None, :])

        def interval(alpha):
            spec = SensitivitySpec(gamma=2.0, alpha=alpha, t=1)
            return csa_interval(mu, prop, cal_x, cal_y, x0, spec, 0.4,
                                score=score, q_hat=q_hat)

        res = interval(0.2)
        assert res._fields == ("lower", "upper", "threshold")
        lower, upper, threshold = res
        assert np.isfinite(threshold)
        assert lower == band_lo[0] - threshold
        assert upper == band_hi[0] + threshold
        a_star = min_miscoverage(prop.predict(cal_x),
                                 prop.predict(x0[None, :])[0], 2.0, 1, 0.4)
        for alpha in (a_star * (1 - 1e-6), a_star / 2):
            assert interval(alpha) == (None, None, np.inf)

    def test_cqr_score_requires_quantile_model(self):
        mu, prop, cal_x, cal_y = _fitted_instance(seed=2)
        spec = SensitivitySpec(gamma=2.0, alpha=0.2, t=1)
        with pytest.raises(ValueError, match="quantile"):
            csa_interval(mu, prop, cal_x, cal_y, cal_x[0], spec, 0.4,
                         score="cqr")


class TestUnionCheck:
    def test_fixed_tilt_intervals_contained(self):
        """Worst-case interval must contain the interval of every fixed
        sensitivity model: here models are described by a piecewise tilt
        eta(y) in [1/gamma, gamma] applied to the calibration weights."""
        rng = np.random.default_rng(5)
        gamma = 2.0
        n = 60
        scores = np.sort(rng.normal(size=n))
        e = rng.uniform(0.25, 0.5, size=n)
        p_t = 0.4
        e_t = 0.35
        spec = SensitivitySpec(gamma=gamma, alpha=0.2, t=1)
        worst = csa_threshold(scores, e, e_t, spec, p_t).threshold
        odds = (1 - e) / e
        odds_t = (1 - e_t) / e_t
        for _ in range(50):
            eta = rng.uniform(1.0 / gamma, gamma, size=n)
            eta_t = rng.uniform(1.0 / gamma, gamma)
            w = p_t * (1 + odds * eta)
            w_t = p_t * (1 + odds_t * eta_t)
            d = WeightedDiscreteDist(np.append(scores, np.inf),
                                     np.append(w, w_t))
            fixed = weighted_quantile(d, 0.8)
            assert fixed <= worst
