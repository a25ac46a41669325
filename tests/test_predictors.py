import contextlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confsens import harness, predictors
from confsens.predictors import (
    _BLOCK,
    _MEMO,
    KNNMean,
    KNNQuantile,
    KNNSingleQuantile,
    LogisticPropensity,
    NeighborSearch,
    _neighbor_idx,
    drop_one_propensities,
    fit_mean,
    fit_propensities,
    fit_propensity,
    marginal_treatment_prob,
    metric_weights,
    relevance_weights,
)

# CI reruns these with one BLAS thread
pytestmark = pytest.mark.blas


class TestKNNMean:
    def test_constant_outcome(self):
        x = np.random.default_rng(0).uniform(size=(20, 2))
        model = fit_mean(x, np.full(20, 3.0))
        assert np.allclose(model.predict(x[:5]), 3.0)

    def test_one_nn_interpolates(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([5.0, 7.0, 9.0])
        model = KNNMean(NeighborSearch(x, k=1), y)
        assert model.predict(np.array([[1.0]]))[0] == 7.0

    def test_two_nn_hand_average(self):
        model = KNNMean(NeighborSearch(np.array([[0.0], [1.0]]), k=2),
                        np.array([0.0, 2.0]))
        assert model.predict(np.array([[0.5]]))[0] == pytest.approx(1.0)

    def test_k_equals_n_is_global_mean(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(30, 3))
        y = rng.normal(size=30)
        model = KNNMean(NeighborSearch(x, k=30), y)
        assert np.allclose(model.predict(x[:4]), y.mean())

    def test_too_few_pairs_error(self):
        with pytest.raises(ValueError):
            fit_mean(np.array([[0.0]]), np.array([1.0]))

    def test_k_below_one_error(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            NeighborSearch(np.zeros((5, 1)), k=-1)


def _adversarial(kind, rng, n, m, p):
    """Training and query covariates of one family that stresses the
    prefilter's error bound."""
    if kind == "normal":
        return [rng.normal(size=(r, p)) for r in (n, m)]
    if kind == "offset":  # a common offset far above the separations
        return [1e6 + 1e-3 * rng.normal(size=(r, p)) for r in (n, m)]
    if kind == "relevance":  # metric scales down to the weights' floor
        w = np.maximum(10.0 ** rng.uniform(-4.0, 0.0, size=p), 1e-3)
        w[rng.integers(p)] = 1.0
        return [w * rng.normal(size=(r, p)) for r in (n, m)]
    if kind == "duplicates":  # rows drawn from a handful of points
        pool = rng.normal(size=(4, p))
        return [pool[rng.integers(0, 4, size=r)] for r in (n, m)]
    # a quarter grid: many equal distances
    return [rng.integers(0, 3, size=(r, p)) / 4 for r in (n, m)]


class TestNeighborSearch:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(kind=st.sampled_from(["normal", "grid", "offset", "relevance",
                                 "duplicates"]),
           magnitude=st.sampled_from(["unit", "tiny", "huge"]),
           n=st.integers(1, 400), p=st.integers(1, 6),
           m=st.sampled_from([0, 5, _BLOCK, 2 * _BLOCK + 9]),
           k_over_n=st.integers(-400, 3), seed=st.integers(0, 2 ** 16))
    @example(kind="grid", magnitude="unit", n=40, p=2, m=_BLOCK,
             k_over_n=-39, seed=0)
    @example(kind="grid", magnitude="unit", n=40, p=2, m=5, k_over_n=0,
             seed=1)
    @example(kind="grid", magnitude="unit", n=40, p=2, m=2 * _BLOCK + 9,
             k_over_n=3, seed=2)
    @example(kind="normal", magnitude="unit", n=40, p=2, m=0, k_over_n=-20,
             seed=3)
    @example(kind="normal", magnitude="unit", n=40, p=2, m=_BLOCK + 1,
             k_over_n=-34, seed=4)
    def test_matches_full_stable_argsort(self, kind, magnitude, n, p, m,
                                         k_over_n, seed):
        # k runs from 1 through n to n + 3.  The Gram prefilter must keep
        # every neighbour and tie of the per-element distances, also where
        # its error bound is tightest: underflowing or overflowing squares
        rng = np.random.default_rng(seed)
        x, q = _adversarial(kind, rng, n, m, p)
        if magnitude != "unit":
            low, high = (-170, -150) if magnitude == "tiny" else (150, 200)
            scale = 10.0 ** rng.uniform(low, high)
            x, q = scale * x, scale * q
        k = max(1, n + k_over_n)
        with np.errstate(over="ignore"):
            d2 = ((q[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        want = np.argsort(d2, axis=1, kind="stable")[:, :k]
        # the search may overflow only where the per-element distances do
        overflows = not np.isfinite(d2).all()
        with np.errstate(over="ignore" if overflows else "raise"):
            got = _neighbor_idx(x, q, k)
        assert got.shape == want.shape and np.array_equal(got, want)

    def test_results_do_not_alias_the_work_buffer(self):
        # the second, shorter search ends on a partial block; the first
        # result, which the memo holds, must not change under it
        rng = np.random.default_rng(12)
        x = rng.normal(size=(200, 3))
        search = NeighborSearch(x)
        queries = [rng.normal(size=(m, 3)) for m in (3 * _BLOCK,
                                                     _BLOCK + 7)]

        def brute(q):
            d2 = ((q[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
            return np.argsort(d2, axis=1, kind="stable")[:, :search.k]

        first = search(queries[0])
        second = search(queries[1])
        assert search(queries[0]) is first
        assert np.array_equal(first, brute(queries[0]))
        assert np.array_equal(second, brute(queries[1]))

    def test_predict_memory_is_bounded_in_query_rows(self):
        rng = np.random.default_rng(10)
        model = fit_mean(rng.normal(size=(750, 20)), rng.normal(size=750))

        def peak(m):
            q = rng.normal(size=(m, 20))
            tracemalloc.start()
            model.predict(q)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return peak

        # the distance blocks, not the query count, set the peak
        assert peak(16 * _BLOCK) < 1.5 * peak(4 * _BLOCK)

    def test_memo_is_bounded_and_keyed_by_value(self):
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=(60, 2)), rng.normal(size=60)
        search = NeighborSearch(x, feature_weights=relevance_weights(x, y))
        model = KNNMean(search, y)
        for _ in range(50):
            model.predict(rng.normal(size=(7, 2)))
        assert len(search._memo) == _MEMO
        q = rng.normal(size=(9, 2))
        first = model.predict(q)
        q[0] = 50.0  # a changed query set is searched again
        assert np.array_equal(model.predict(q),
                              fit_mean(x, y, scale="relevance").predict(q))
        assert not np.array_equal(model.predict(q), first)

    @pytest.mark.parametrize("methods, searches", [
        (harness.METHODS, 9), (("csa-m", "csa-q", "ite-nuc"), 2)])
    def test_searches_per_trial(self, monkeypatch, methods, searches):
        # per arm: its calibration rows and the targets, shared by mu-hat
        # and q-hat; nested: two per arm fit, then the targets once
        calls = []
        search = predictors._neighbor_idx

        def counted(*args):
            calls.append(args[1].shape[0])
            return search(*args)

        monkeypatch.setattr(predictors, "_neighbor_idx", counted)
        cfg = harness.ExperimentConfig(
            methods=methods, gammas=(1.0, 1.5, 2.0, 3.0, 4.0), n_train=300,
            n_target=200, n_trials=1)
        # this seed's sharpened trial meets an infeasible balance row
        fallback = (pytest.warns(UserWarning, match="infeasible")
                    if "cssa-m" in methods else contextlib.nullcontext())
        with fallback:
            harness.run_trial(cfg, 0)
        assert len(calls) == searches

    @pytest.mark.parametrize("methods, predicts", [
        (harness.METHODS, 6), (("csa-m", "csa-q", "ite-nuc"), 2)])
    def test_propensity_predicts_per_trial(self, monkeypatch, methods,
                                           predicts):
        # the arms' fold: its calibration rows and the targets, once for
        # every gamma; nested: calibration and query rows per arm
        calls = []
        predict = LogisticPropensity.predict

        def counted(self, x):
            calls.append(x.shape[0])
            return predict(self, x)

        monkeypatch.setattr(LogisticPropensity, "predict", counted)
        for gammas in ((1.0, 2.0), (1.0, 1.5, 2.0, 3.0, 4.0)):
            calls.clear()
            cfg = harness.ExperimentConfig(methods=methods, gammas=gammas,
                                           n_train=300, n_target=200,
                                           n_trials=1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the sharpened fallback
                harness.run_trial(cfg, 0)
            assert len(calls) == predicts


class TestNonFiniteCovariates:
    FITS = {
        "mean": lambda x, y: fit_mean(x, y),
        "mean-relevance": lambda x, y: fit_mean(x, y, scale="relevance"),
        "quantile": lambda x, y: KNNQuantile(NeighborSearch(x), y,
                                             (0.1, 0.9)),
        "quantile-relevance": lambda x, y: KNNQuantile(
            NeighborSearch(x, feature_weights=relevance_weights(x, y)), y,
            (0.1, 0.9)),
        "propensity": lambda x, y: fit_propensity(x, y > 0),
    }

    @staticmethod
    def _data():
        rng = np.random.default_rng(12)
        return rng.normal(size=(40, 3)), rng.normal(size=40)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fit", FITS)
    def test_training_covariates_refused(self, fit, bad):
        x, y = self._data()
        x[7, 1] = bad
        with pytest.raises(ValueError, match="non-finite covariate value"):
            self.FITS[fit](x, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fit", FITS)
    def test_query_covariates_refused(self, fit, bad):
        x, y = self._data()
        model = self.FITS[fit](x, y)
        q = x[:5].copy()
        q[3, 2] = bad
        with pytest.raises(ValueError, match="non-finite covariate value"):
            model.predict(q)

    def test_infinite_outcomes_propagate(self):
        x, y = self._data()
        y[:] = np.inf
        assert np.all(fit_mean(x, y).predict(x[:5]) == np.inf)
        lo, hi = KNNQuantile(NeighborSearch(x), y, (0.1, 0.9)).predict(x[:5])
        assert np.all(lo == np.inf) and np.all(hi == np.inf)


# each k-NN model, built over a given search
BUILDS = {
    "KNNMean": lambda search, y: KNNMean(search, y),
    "KNNQuantile": lambda search, y: KNNQuantile(search, y, (0.1, 0.9)),
    "KNNSingleQuantile": lambda search, y: KNNSingleQuantile(search, y, 0.5),
}


@pytest.mark.parametrize("build", list(BUILDS))
def test_empty_training_set_refused(build):
    # used to build, then warn "Mean of empty slice" and fail in predict
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty training set"):
            BUILDS[build](NeighborSearch(np.empty((0, 2)), 3), np.empty(0))


@pytest.mark.parametrize("fit", ["mean-relevance", "propensity"])
def test_empty_fit_refused_before_any_statistic(fit):
    # the relevance weights and the logistic fit refuse an empty set
    # before they average it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty training set"):
            TestNonFiniteCovariates.FITS[fit](np.empty((0, 3)), np.empty(0))


class TestOneDimensionalCovariates:
    # a 1-D query used to be read as one row when its length was p, and
    # 1-D training covariates of `fit_*` as one column
    FITS = {**{name: lambda x, y, build=build: build(NeighborSearch(x), y)
               for name, build in BUILDS.items()},
            "LogisticPropensity": lambda x, y: fit_propensity(x, y > 0),
            "fit_mean": fit_mean,
            "fit_propensity": lambda x, y: fit_propensity(x, y > 0)}

    @staticmethod
    def _data():
        rng = np.random.default_rng(13)
        return rng.normal(size=(40, 4)), rng.normal(size=40)

    @pytest.mark.parametrize("fit", FITS)
    def test_query_refused(self, fit):
        x, y = self._data()
        with pytest.raises(ValueError, match="model expects 4"):
            self.FITS[fit](x, y).predict(x[0])

    @pytest.mark.parametrize("fit", FITS)
    def test_training_covariates_refused(self, fit):
        x, y = self._data()
        with pytest.raises(ValueError, match=r"training covariates have "
                           r"shape \(40,\), not \(rows, covariates\)"):
            self.FITS[fit](x[:, 0], y)


def test_outcomes_must_match_the_search():
    search = NeighborSearch(np.zeros((5, 2)))
    for build in BUILDS.values():
        with pytest.raises(ValueError, match="for 5 training rows"):
            build(search, np.zeros(4))


def test_models_share_one_search():
    # the models over one search find a query set's neighbours once
    rng = np.random.default_rng(14)
    x, y = rng.normal(size=(50, 3)), rng.normal(size=50)
    q = rng.normal(size=(8, 3))
    search = NeighborSearch(x, k=5)
    models = [build(search, y) for build in BUILDS.values()]
    assert all(model.x is x and model.k == 5 for model in models)
    for model in models:
        model.predict(q)
    assert len(search._memo) == 1


class TestKNNQuantile:
    def test_constant_outcome(self):
        x = np.random.default_rng(0).uniform(size=(20, 2))
        model = KNNQuantile(NeighborSearch(x), np.full(20, 3.0),
                            (0.1, 0.9))
        lo, hi = model.predict(x[:3])
        assert np.allclose(lo, 3.0) and np.allclose(hi, 3.0)

    def test_empirical_quantile_convention(self):
        # neighbor outcomes 0..19, level 0.5 under inf{y: F(y) >= tau} -> 9
        x = np.arange(20.0).reshape(-1, 1) * 1e-6
        y = np.arange(20.0)
        model = KNNQuantile(NeighborSearch(x, k=20), y, (0.5, 0.9))
        lo, hi = model.predict(np.array([[0.0]]))
        assert lo[0] == 9.0
        assert hi[0] == 17.0  # ceil(0.9*20) - 1 = 17

    def test_levels_must_be_ordered(self):
        x = np.random.default_rng(0).uniform(size=(20, 1))
        with pytest.raises(ValueError, match="lo < hi"):
            KNNQuantile(NeighborSearch(x), np.zeros(20), (0.4, 0.4))

    def test_monotone_pair(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(50, 2))
        y = rng.normal(size=50)
        model = KNNQuantile(NeighborSearch(x), y, (0.3, 0.7))
        lo, hi = model.predict(rng.uniform(size=(40, 2)))
        assert np.all(lo <= hi)


class TestKNNSingleQuantile:
    def test_one_nn_interpolates(self):
        m = KNNSingleQuantile(NeighborSearch(np.array([[0.0], [1.0]]), k=1),
                              np.array([2.0, 5.0]), level=0.5)
        assert m.predict(np.array([[0.9]]))[0] == 5.0

    def test_quantile_convention(self):
        x = np.arange(10.0).reshape(-1, 1) * 1e-6
        y = np.arange(10.0)
        m = KNNSingleQuantile(NeighborSearch(x, k=10), y, level=0.4)
        assert m.predict(np.array([[0.0]]))[0] == 3.0  # ceil(0.4*10)-1

    def test_infinite_training_values_propagate(self):
        x = np.zeros((4, 1)) + np.arange(4).reshape(-1, 1) * 1e-6
        y = np.array([1.0, 2.0, np.inf, np.inf])
        m = KNNSingleQuantile(NeighborSearch(x, k=4), y, level=0.9)
        assert m.predict(np.array([[0.0]]))[0] == np.inf

    def test_level_range_error(self):
        with pytest.raises(ValueError, match="quantile level"):
            KNNSingleQuantile(NeighborSearch(np.zeros((3, 1)), k=1),
                              np.zeros(3), level=1.0)


class TestLogisticPropensity:
    def test_outputs_clipped(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(200, 2))
        # near-separable data pushes raw outputs to the extremes
        t = (x[:, 0] > 0.5).astype(int)
        model = fit_propensity(x, t)
        e = model.predict(rng.uniform(size=(10000, 2)))
        # the fixed clip binds at both ends
        assert e.min() == 0.01 and e.max() == 0.99

    def test_independent_covariates_near_half(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(size=(2000, 3))
        t = rng.integers(0, 2, size=2000)
        model = fit_propensity(x, t)
        e = model.predict(rng.uniform(size=(500, 3)))
        assert np.all(np.abs(e - 0.5) < 0.08)

    def test_single_class_error(self):
        with pytest.raises(ValueError):
            fit_propensity(np.zeros((5, 1)), np.ones(5))

    def test_constant_column_is_inert(self):
        # 0.01 has no exact mean over these rows: its rounded standard
        # deviation used to be about 1e-18, which scaled the column up to
        # +-1 noise that the fit then used
        rng = np.random.default_rng(14)
        x = rng.normal(size=(32, 2))
        t = (x[:, 0] + rng.normal(size=32) > 0).astype(int)
        padded = np.hstack([x, np.full((32, 1), 0.01)])
        model = fit_propensity(padded, t)
        assert model.beta_[2] == 0.0
        np.testing.assert_allclose(model.predict(padded),
                                   fit_propensity(x, t).predict(x),
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("x, t, match", [
        (np.zeros((5, 2)), np.ones(5), "both treatment values"),
        (np.array([[0.0, np.nan], [1.0, 2.0]]), np.array([0, 1]),
         "non-finite covariate value"),
        (np.zeros(4), np.array([0, 1, 0, 1]), r"not \(rows, covariates\)"),
        (np.empty((0, 2)), np.empty(0), "empty training set"),
        # used to fail inside the ascent with numpy's broadcast error
        (np.eye(5, 2), np.array([0, 1, 0, 1]),
         r"treatment of shape \(4,\) for 5 training rows"),
        (np.eye(5, 2), np.array([[0], [1], [0], [1], [0]]),
         r"treatment of shape \(5, 1\) for 5 training rows"),
        # float64 cannot hold these columns' standard deviations: they used
        # to give NaN or saturated propensities behind numpy warnings
        (np.eye(30, 2) * [1.0, 1e-310], np.arange(30) % 2,
         r"column 1 varies on a scale float64 cannot standardize "
         r"\(standard deviation 0\)"),
        (np.eye(30, 2) * [1.0, 1e300], np.arange(30) % 2,
         r"column 1 varies .* \(standard deviation inf\)")])
    def test_drop_one_propensities_checks_inputs(self, x, t, match):
        # the batched fits refuse what `fit_propensity` refuses, also in a
        # batch beside a set that fits
        good = (np.eye(*x.shape) if x.ndim == 2 else np.eye(4, 1),
                np.arange(len(x)) % 2)
        for fit in (fit_propensity, drop_one_propensities,
                    lambda x, t: fit_propensities([good[0], x],
                                                  [good[1], t])):
            with pytest.raises(ValueError, match=match):
                fit(x, t)

    @pytest.mark.parametrize("value", [1e-310, 1e300])
    def test_constant_column_at_any_scale_is_inert(self, value):
        # a constant column needs no spread that float64 can hold
        x = np.column_stack([np.arange(6.0), np.full(6, value)])
        assert fit_propensity(x, np.arange(6) % 2).beta_[1] == 0.0

    @pytest.mark.parametrize("xs, shapes", [
        ([], r"\[\]"),
        ([np.eye(4, 2), np.eye(6, 2)], r"\[\(4, 2\), \(6, 2\)\]"),
        ([np.eye(4, 2), np.eye(4, 3)], r"\[\(4, 2\), \(4, 3\)\]")])
    def test_fit_propensities_refuses_mixed_shapes(self, xs, shapes):
        ts = [np.arange(len(x)) % 2 for x in xs]
        with pytest.raises(ValueError, match=f"of one shape, got shapes "
                                             f"{shapes}"):
            fit_propensities(xs, ts)

    def test_drop_one_columns(self):
        # column j equals a fit without covariate j; the last, the full fit
        rng = np.random.default_rng(15)
        x = rng.normal(size=(120, 3))
        t = (x[:, 0] - x[:, 1] + rng.normal(size=120) > 0).astype(int)
        e = drop_one_propensities(x, t)
        assert e.shape == (120, 4)
        assert e.min() >= 0.01 and e.max() <= 0.99
        for j in range(3):
            kept = np.delete(x, j, axis=1)
            np.testing.assert_allclose(
                e[:, j], fit_propensity(kept, t).predict(kept),
                rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(e[:, 3], fit_propensity(x, t).predict(x),
                                   rtol=1e-12, atol=0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(100, 2))
        t = rng.integers(0, 2, size=100)
        a = fit_propensity(x, t).predict(x)
        b = fit_propensity(x, t).predict(x)
        assert np.array_equal(a, b)


def test_metric_weights_refuses_unknown_scaling():
    x = np.random.default_rng(9).uniform(size=(10, 2))
    with pytest.raises(ValueError, match="unknown metric scaling 'l1'"):
        metric_weights("l1", x, x[:, 0])


class TestRelevanceWeights:
    def test_signal_feature_dominates(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(size=(500, 5))
        y = 3.0 * x[:, 2] + 0.01 * rng.normal(size=500)
        w = relevance_weights(x, y)
        assert w[2] == 1.0
        assert np.all(w[[0, 1, 3, 4]] < 0.3)

    def test_constant_outcome_uniform(self):
        x = np.random.default_rng(7).uniform(size=(50, 3))
        assert np.allclose(relevance_weights(x, np.zeros(50)), 1.0)

    def test_scaled_knn_beats_plain_on_sparse_signal(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(size=(600, 12))
        f = np.sin(6.0 * x[:, 0]) + x[:, 1] ** 2
        y = f + 0.1 * rng.normal(size=600)
        xq = rng.uniform(size=(300, 12))
        fq = np.sin(6.0 * xq[:, 0]) + xq[:, 1] ** 2
        plain = fit_mean(x, y).predict(xq)
        scaled = fit_mean(x, y, scale="relevance").predict(xq)
        assert np.mean((scaled - fq) ** 2) < np.mean((plain - fq) ** 2)


def test_marginal_treatment_prob():
    assert marginal_treatment_prob(np.array([1, 1, 0, 0]), 1) == 0.5
    assert marginal_treatment_prob(np.array([1, 0, 0, 0]), 0) == 0.75
    with pytest.raises(ValueError, match="absent"):
        marginal_treatment_prob(np.array([1, 1]), 0)
    with pytest.raises(ValueError):
        marginal_treatment_prob(np.array([]), 1)
