import numpy as np
import pytest

from confsens.dataset import ObservationalDataset
from confsens.ite import (
    bonferroni_ite,
    nested_ite_fit,
    nested_ite_predict,
)


def _arm(lower, upper):
    """Per-arm (lower, upper, threshold) arrays as `FittedArm.intervals`
    returns them; the threshold is not read."""
    return (np.atleast_1d(np.asarray(lower, dtype=float)),
            np.atleast_1d(np.asarray(upper, dtype=float)), None)


class TestBonferroni:
    def test_hand_example(self):
        lower, upper = bonferroni_ite(_arm(1.0, 3.0), _arm(-1.0, 0.5))
        assert (lower.tolist(), upper.tolist()) == ([0.5], [4.0])

    def test_width_is_sum_of_widths(self):
        rng = np.random.default_rng(0)
        a1, b1 = np.sort(rng.normal(size=(2, 20)), axis=0)
        a0, b0 = np.sort(rng.normal(size=(2, 20)), axis=0)
        lower, upper = bonferroni_ite(_arm(a1, b1), _arm(a0, b0))
        assert np.allclose(upper - lower, (b1 - a1) + (b0 - a0))

    def test_unbounded_propagates(self):
        lower, upper = bonferroni_ite(_arm(-np.inf, np.inf), _arm(-1.0, 0.5))
        assert (lower.tolist(), upper.tolist()) == ([-np.inf], [np.inf])

    def test_one_sided_unbounded(self):
        lower, upper = bonferroni_ite(_arm(1.0, 3.0), _arm(-np.inf, np.inf))
        assert (lower.tolist(), upper.tolist()) == ([-np.inf], [np.inf])

    def test_contains_true_difference(self):
        rng = np.random.default_rng(1)
        y1, y0 = rng.normal(size=(2, 50))
        lower, upper = bonferroni_ite(_arm(y1 - 0.5, y1 + 0.5),
                                      _arm(y0 - 0.5, y0 + 0.5))
        assert np.all((lower <= y1 - y0) & (y1 - y0 <= upper))


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
        for a, b in zip(nested_ite_predict(m1, xq),
                        nested_ite_predict(m2, xq)):
            assert a.shape == (5,) and a.tobytes() == b.tobytes()

    def test_predict_ordered_endpoints(self):
        ds = _two_arm_ds(seed=1)
        model = nested_ite_fit(ds, gamma=2.0, alpha=0.25, seed=0)
        rng = np.random.default_rng(2)
        lower, upper = nested_ite_predict(model, rng.uniform(size=(50, 3)))
        assert np.all(lower <= upper)

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
        lower, upper = nested_ite_predict(model, xq)
        cover = np.mean((lower <= tau) & (tau <= upper))
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
