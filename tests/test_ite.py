import numpy as np
import pytest

from confsens.conformal import PredictiveInterval
from confsens.dataset import ObservationalDataset
from confsens.ite import (
    IteInterval,
    KNNSingleQuantile,
    bonferroni_ite,
    nested_ite_fit,
    nested_ite_predict,
)


class TestIteInterval:
    def test_width_and_contains(self):
        c = IteInterval(-1.0, 2.0)
        assert c.width == 3.0
        assert c.contains(0.0) and c.contains(-1.0) and c.contains(2.0)
        assert not c.contains(2.1)

    def test_unbounded_sides(self):
        c = IteInterval(None, 2.0, lower_unbounded=True)
        assert not c.bounded and c.width == np.inf
        assert c.contains(-1e9) and not c.contains(3.0)


class TestBonferroni:
    def test_hand_example(self):
        c1 = PredictiveInterval(1.0, 3.0, 1.0)
        c0 = PredictiveInterval(-1.0, 0.5, 0.75)
        d = bonferroni_ite(c1, c0, alpha_split=(0.1, 0.1))
        assert (d.lower, d.upper) == (0.5, 4.0)
        assert d.method == "bonferroni"
        assert d.alpha_split == (0.1, 0.1)

    def test_width_is_sum_of_widths(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a1, b1 = np.sort(rng.normal(size=2))
            a0, b0 = np.sort(rng.normal(size=2))
            d = bonferroni_ite(PredictiveInterval(a1, b1, 1.0),
                               PredictiveInterval(a0, b0, 1.0))
            assert d.width == pytest.approx((b1 - a1) + (b0 - a0))

    def test_unbounded_propagates(self):
        c1 = PredictiveInterval(None, None, np.inf, True, True)
        c0 = PredictiveInterval(-1.0, 0.5, 0.75)
        d = bonferroni_ite(c1, c0)
        assert d.lower_unbounded and d.upper_unbounded

    def test_one_sided_unbounded(self):
        c1 = PredictiveInterval(1.0, 3.0, 1.0)
        c0 = PredictiveInterval(None, None, np.inf, True, True)
        d = bonferroni_ite(c1, c0)
        assert d.lower is None and d.upper is None

    def test_contains_true_difference(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y1, y0 = rng.normal(size=2)
            c1 = PredictiveInterval(y1 - 0.5, y1 + 0.5, 0.5)
            c0 = PredictiveInterval(y0 - 0.5, y0 + 0.5, 0.5)
            assert bonferroni_ite(c1, c0).contains(y1 - y0)


class TestKNNSingleQuantile:
    def test_one_nn_interpolates(self):
        m = KNNSingleQuantile(np.array([[0.0], [1.0]]),
                              np.array([2.0, 5.0]), level=0.5, k=1)
        assert m.predict(np.array([[0.9]]))[0] == 5.0

    def test_quantile_convention(self):
        x = np.arange(10.0).reshape(-1, 1) * 1e-6
        y = np.arange(10.0)
        m = KNNSingleQuantile(x, y, level=0.4, k=10)
        assert m.predict(np.array([[0.0]]))[0] == 3.0  # ceil(0.4*10)-1

    def test_infinite_training_values_propagate(self):
        x = np.zeros((4, 1)) + np.arange(4).reshape(-1, 1) * 1e-6
        y = np.array([1.0, 2.0, np.inf, np.inf])
        m = KNNSingleQuantile(x, y, level=0.9, k=4)
        assert m.predict(np.array([[0.0]]))[0] == np.inf

    def test_level_range_error(self):
        with pytest.raises(ValueError):
            KNNSingleQuantile(np.zeros((3, 1)), np.zeros(3), level=1.0, k=1)


def _two_arm_ds(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 3))
    e = 0.3 + 0.3 * x[:, 0]
    t = (rng.uniform(size=n) < e).astype(int)
    y1 = 2.0 * x[:, 0] + rng.normal(size=n)
    y0 = x[:, 1] + rng.normal(size=n)
    y = np.where(t == 1, y1, y0)
    return ObservationalDataset(x, t, y)


class TestNested:
    def test_fit_shape_and_determinism(self):
        ds = _two_arm_ds()
        m1 = nested_ite_fit(ds, gamma=1.5, alpha=0.2, seed=3)
        m2 = nested_ite_fit(ds, gamma=1.5, alpha=0.2, seed=3)
        assert m1.n_val == ds.n - ds.n // 2
        xq = np.full((5, 3), 0.5)
        a = nested_ite_predict(m1, xq)
        b = nested_ite_predict(m2, xq)
        for ca, cb in zip(a, b):
            assert (ca.lower, ca.upper) == (cb.lower, cb.upper)

    def test_predict_ordered_endpoints(self):
        ds = _two_arm_ds(seed=1)
        model = nested_ite_fit(ds, gamma=2.0, alpha=0.25, seed=0)
        rng = np.random.default_rng(2)
        out = nested_ite_predict(model, rng.uniform(size=(50, 3)))
        for c in out:
            assert c.method == "nested"
            if c.bounded:
                assert c.lower <= c.upper

    def test_reasonable_coverage_no_confounding(self):
        # with gamma covering the truth (here gamma = 1 suffices: treatment
        # is ignorable given x), empirical ITE coverage should be near the
        # nominal level rather than collapsing
        rng = np.random.default_rng(4)
        ds = _two_arm_ds(n=900, seed=5)
        model = nested_ite_fit(ds, gamma=1.5, alpha=0.2, seed=0)
        n_q = 400
        xq = rng.uniform(size=(n_q, 3))
        tau = (2.0 * xq[:, 0] + rng.normal(size=n_q)) - (
            xq[:, 1] + rng.normal(size=n_q))
        out = nested_ite_predict(model, xq)
        cover = np.mean([c.contains(v) for c, v in zip(out, tau)])
        assert cover >= 0.7

    def test_too_small_arm_error(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(size=(12, 2))
        t = np.array([1] * 11 + [0])
        ds = ObservationalDataset(x, t, rng.normal(size=12))
        with pytest.raises(ValueError):
            nested_ite_fit(ds, gamma=1.5, alpha=0.2, seed=0)

    def test_predict_rejects_wrong_width(self):
        # a query with fewer covariates than the model must not broadcast
        model = nested_ite_fit(_two_arm_ds(), gamma=1.5, alpha=0.2, seed=0)
        for x in (np.array([0.5]), np.full((4, 1), 0.5)):
            with pytest.raises(ValueError, match="model expects 3"):
                nested_ite_predict(model, x)
