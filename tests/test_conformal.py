import numpy as np
import pytest

from confsens.conformal import (
    WeightedDiscreteDist,
    score_abs_residual,
    scores_and_band,
    score_cqr,
    wcp_threshold_nuc_batch,
    weighted_quantile,
)


class _Const:
    def __init__(self, value):
        self.value = value

    def predict(self, x):
        x = np.atleast_2d(x)
        return np.full(x.shape[0], self.value)


class _ConstPair:
    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def predict(self, x):
        x = np.atleast_2d(x)
        n = x.shape[0]
        return np.full(n, self.lo), np.full(n, self.hi)


class TestScores:
    def test_abs_residual(self):
        assert score_abs_residual(_Const(2.0), [[0.0]], [5.0])[0] == 3.0
        assert score_abs_residual(_Const(1.5), [[0.0]], [1.5])[0] == 0.0
        assert score_abs_residual(_Const(-1.0), [[0.0]], [-4.0])[0] == 3.0

    def test_cqr(self):
        q = _ConstPair(-1.0, 1.0)
        assert score_cqr(q, [[0.0]], [0.0])[0] == -1.0
        assert score_cqr(q, [[0.0]], [2.0])[0] == 1.0
        assert score_cqr(q, [[0.0]], [-1.0])[0] == 0.0

    def test_cqr_negative_iff_inside_band(self):
        q = _ConstPair(-1.0, 1.0)
        ys = np.linspace(-2, 2, 41)
        s = score_cqr(q, np.zeros((41, 1)), ys)
        inside = (ys >= -1.0) & (ys <= 1.0)
        assert np.array_equal(s <= 0, inside)


class TestWeightedQuantile:
    def test_uniform_discrete(self):
        d = WeightedDiscreteDist([1.0, 2.0, 3.0], [1, 1, 1])
        assert weighted_quantile(d, 2.0 / 3.0) == 2.0

    def test_sentinel_atom(self):
        d = WeightedDiscreteDist([1, 2, 3, np.inf], [0.25] * 4)
        assert weighted_quantile(d, 0.7) == 3.0
        assert weighted_quantile(d, 0.8) == np.inf

    def test_point_mass(self):
        d = WeightedDiscreteDist([5.0], [1.0])
        for level in (0.01, 0.5, 1.0):
            assert weighted_quantile(d, level) == 5.0

    def test_level_out_of_range(self):
        d = WeightedDiscreteDist([1.0], [1.0])
        with pytest.raises(ValueError):
            weighted_quantile(d, 1.5)

    def test_tie_merging(self):
        # mass accumulates over equal atoms before the comparison
        d = WeightedDiscreteDist([1.0, 1.0, 2.0], [0.3, 0.3, 0.4])
        assert weighted_quantile(d, 0.5) == 1.0

    def test_uniform_weights_match_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = rng.integers(1, 30)
            vals = np.round(rng.normal(size=n), 1)  # force ties
            level = rng.uniform(0.01, 1.0)
            d = WeightedDiscreteDist(vals, np.ones(n))
            got = weighted_quantile(d, level)
            srt = np.sort(vals)
            want = srt[int(np.ceil(level * n)) - 1]
            assert got == want

    def test_monotone_in_level(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=15)
        w = rng.uniform(0.1, 1.0, size=15)
        d = WeightedDiscreteDist(vals, w)
        levels = np.sort(rng.uniform(0, 1, size=20))
        outs = [weighted_quantile(d, lv) for lv in levels]
        assert all(a <= b for a, b in zip(outs, outs[1:]))


class TestWcpNuc:
    def test_uniform_weights_order_statistic(self):
        scores = np.arange(1.0, 20.0)  # n = 19
        e = np.full(19, 0.5)
        thr = wcp_threshold_nuc_batch(scores, e, [0.5], t=1, p_t=0.5,
                                      alpha=0.2)
        assert thr[0] == 16.0  # (1 - alpha)(n + 1) = 16th order statistic

    def test_alpha_zero_like_level_unbounded(self):
        scores = np.arange(1.0, 5.0)
        e = np.full(4, 0.5)
        thr = wcp_threshold_nuc_batch(scores, e, [0.5], t=1, p_t=0.5,
                                      alpha=1e-9)
        assert thr[0] == np.inf

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=40)
        e_cal = rng.uniform(0.25, 0.5, size=40)
        e_t = rng.uniform(0.25, 0.5, size=25)
        for alpha in (0.1, 0.2, 0.4):
            batch = wcp_threshold_nuc_batch(scores, e_cal, e_t, 1, 0.4, alpha)
            single = [wcp_threshold_nuc_batch(scores, e_cal, [et], 1, 0.4,
                                              alpha)[0] for et in e_t]
            assert np.array_equal(batch, np.array(single))
            # reference: the weighted quantile with the sentinel atom
            ref = [weighted_quantile(WeightedDiscreteDist(
                np.append(scores, np.inf), 0.4 / np.append(e_cal, et)),
                1.0 - alpha) for et in e_t]
            assert np.array_equal(batch, np.array(ref))

    def test_empty_calibration_error(self):
        with pytest.raises(ValueError):
            wcp_threshold_nuc_batch(np.array([]), np.array([]), [0.5], 1,
                                    0.5, 0.2)


class TestWeightedDiscreteDist:
    def test_renormalizes(self):
        d = WeightedDiscreteDist([1.0, 2.0], [2.0, 6.0])
        assert np.allclose(d.masses, [0.25, 0.75])

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            WeightedDiscreteDist([1.0], [-1.0])

    def test_rejects_zero_total(self):
        with pytest.raises(ValueError):
            WeightedDiscreteDist([1.0], [0.0])

    def test_rejects_nonfinite_mass(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                WeightedDiscreteDist([1.0, 2.0], [1.0, bad])

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal-length"):
            WeightedDiscreteDist([1.0, 2.0], [1.0])


def test_scores_and_band_refuses_unknown_score():
    with pytest.raises(ValueError, match="unknown score kind 'median'"):
        scores_and_band("median", _Const(0.0), [[0.0]], [1.0], [[0.0]])
