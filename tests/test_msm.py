import re
import tracemalloc

import numpy as np
import pytest

from confsens.cssa import arm_intervals
from confsens.dataset import ObservationalDataset
from confsens.harness import ExperimentConfig
from confsens.ite import NestedFold
from confsens.msm import (
    GAMMA_MAX,
    SensitivitySpec,
    calibrate_gamma,
    emit_gamma_summary_csv,
    gamma_summary,
    min_miscoverage,
    weight_bounds_cross_arm,
    weight_bounds_same_arm,
)
from confsens.oracle import (SyntheticDGP, generate,
                             sample_counterfactual_batch, tilt_two_sided)
from confsens.pipeline import Fold

# CI reruns these with one BLAS thread
pytestmark = pytest.mark.blas


class TestSensitivitySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SensitivitySpec(gamma=0.5, alpha=0.2, t=1)
        with pytest.raises(ValueError):
            SensitivitySpec(gamma=2.0, alpha=1.2, t=1)
        with pytest.raises(ValueError):
            SensitivitySpec(gamma=2.0, alpha=0.2, t=2)

    def test_nan_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            SensitivitySpec(gamma=np.nan, alpha=0.2, t=1)
        for bounds in (lambda e: weight_bounds_same_arm(e, np.nan, 1, 0.5),
                       lambda e: weight_bounds_cross_arm(e, np.nan, 1)):
            with pytest.raises(ValueError, match="gamma"):
                bounds(np.array([0.5]))

    @pytest.mark.parametrize("gamma", [np.inf, np.nan, -np.inf])
    def test_nonfinite_gamma_rejected_everywhere(self, gamma):
        # an infinite gamma bounds no weight: every gamma check refuses it
        checks = (lambda: SensitivitySpec(gamma=gamma, alpha=0.2, t=1),
                  lambda: weight_bounds_same_arm(np.array([0.5]), gamma, 1,
                                                 0.5),
                  lambda: weight_bounds_cross_arm(np.array([0.5]), gamma, 1),
                  lambda: ExperimentConfig(gammas=(1.0, gamma)),
                  lambda: tilt_two_sided(gamma, mean=0.0, sigma=1.0))
        for check in checks:
            with pytest.raises(ValueError, match="finite number >= 1"):
                check()


# each gamma the contract refuses, with the text its error names
_REFUSED = {
    "empty": (np.array([]), "non-empty 1-D grid of numbers, got array([]"),
    "bool": (True, "non-empty 1-D grid of numbers, got True"),
    "bool-grid": (np.array([True, True]), "1-D grid of numbers, got array(["),
    "2-D": (np.array([[1.0, 2.0]]), "1-D grid of numbers, got array([["),
    "above-bound": (np.nextafter(GAMMA_MAX, np.inf), "<= 1e+08, got"),
    "1e300": (1e300, "<= 1e+08, got 1e+300"),  # overflowed the oracle
}


@pytest.fixture(scope="module")
def gamma_entry_points():
    """Every public call that takes gamma, as a function of gamma alone."""
    ds, _ = generate(SyntheticDGP(covariate_dim=3), 200, seed=0)
    arm = Fold(ds, 0).arms(ds.covariates[:5])[1]
    fold = NestedFold(ds, 0)
    e = np.array([0.3, 0.6])
    return {
        "SensitivitySpec": lambda g: SensitivitySpec(gamma=g, alpha=0.2, t=1),
        "same-arm": lambda g: weight_bounds_same_arm(e, g, 1, 0.5),
        "cross-arm": lambda g: weight_bounds_cross_arm(e, g, 1),
        "FittedArm.intervals": lambda g: arm.intervals(g, 0.2, "csa"),
        "NestedFold.model": lambda g: fold.model(g, 0.2),
        "oracle": lambda g: sample_counterfactual_batch(
            g, np.zeros(50), np.ones(50), np.random.default_rng(0)),
    }


@pytest.mark.parametrize("call", ["SensitivitySpec", "same-arm", "cross-arm",
                                  "FittedArm.intervals", "NestedFold.model",
                                  "oracle"])
@pytest.mark.parametrize("case", list(_REFUSED))
def test_gamma_refused_by_name(case, call, gamma_entry_points):
    gamma, text = _REFUSED[case]
    with pytest.raises(ValueError, match=re.escape(text)):
        gamma_entry_points[call](gamma)


def test_gamma_bound_is_accepted(gamma_entry_points):
    for call in gamma_entry_points.values():
        call(GAMMA_MAX)
    assert np.all(np.isfinite(gamma_entry_points["oracle"](GAMMA_MAX)))


class TestSameArmBounds:
    def test_collapse_at_gamma_one(self):
        lo, hi = weight_bounds_same_arm(np.array([0.5]), 1.0, 1, 0.5)
        assert lo[0] == hi[0] == 1.0

    def test_hand_values(self):
        lo, hi = weight_bounds_same_arm(np.array([0.5]), 2.0, 1, 0.5)
        assert (lo[0], hi[0]) == (0.75, 1.5)

    def test_control_arm_identity(self):
        # (1 + e/(1-e)) * (1-e) = 1 exactly
        lo, hi = weight_bounds_same_arm(np.array([0.2]), 1.0, 0, 0.8)
        assert lo[0] == pytest.approx(1.0) and hi[0] == pytest.approx(1.0)

    def test_monotone_widening_in_gamma(self):
        e = np.array([0.3, 0.45])
        gaps = []
        for g in (1.0, 1.5, 2.0, 4.0):
            lo, hi = weight_bounds_same_arm(e, g, 1, 0.4)
            gaps.append(hi - lo)
        for a, b in zip(gaps, gaps[1:]):
            assert np.all(b >= a)

    def test_rejects_degenerate_propensity(self):
        with pytest.raises(ValueError, match="pre-clipped"):
            weight_bounds_same_arm(np.array([0.0]), 2.0, 1, 0.5)


class TestCrossArmBounds:
    def test_hand_values(self):
        lo, hi = weight_bounds_cross_arm(np.array([0.5]), 1.0, 1)
        assert lo[0] == hi[0] == 1.0
        lo, hi = weight_bounds_cross_arm(np.array([0.5]), 3.0, 1)
        assert (lo[0], hi[0]) == (pytest.approx(1.0 / 3.0), 3.0)
        lo, hi = weight_bounds_cross_arm(np.array([0.25]), 1.0, 0)
        assert lo[0] == pytest.approx(3.0) and hi[0] == pytest.approx(3.0)

    def test_gamma_one_is_inverse_odds(self):
        e = np.array([0.3, 0.4])
        lo, hi = weight_bounds_cross_arm(e, 1.0, 1)
        assert np.allclose(lo, e / (1 - e)) and np.allclose(hi, e / (1 - e))


@pytest.mark.parametrize("bounds", [
    lambda e: weight_bounds_same_arm(e, 2.0, 1, 0.5),
    lambda e: weight_bounds_cross_arm(e, 2.0, 1)],
    ids=["same-arm", "cross-arm"])
def test_nan_propensity_refused(bounds):
    # NaN compares False, so `e <= 0 or e >= 1` used to let it through
    with pytest.raises(ValueError, match="pre-clipped"):
        bounds(np.array([0.5, np.nan]))


@pytest.mark.parametrize("nan_at", ["calibration", "target"])
def test_arm_intervals_refuse_a_nan_propensity(nan_at):
    # a NaN calibration propensity used to give lower > upper at every
    # target, and a NaN target propensity an unbounded interval
    scores = np.linspace(0.1, 2.0, 20)
    e_cal, e_target = np.full(20, 0.5), np.full(3, 0.5)
    (e_cal if nan_at == "calibration" else e_target)[0] = np.nan
    with pytest.raises(ValueError, match="pre-clipped"):
        arm_intervals(scores, (np.zeros(3), np.zeros(3)), e_cal, e_target,
                      1.5, 0.2, 1, 0.5)


class TestMinMiscoverage:
    def test_randomized_trial_value(self):
        n = 19
        e = np.full(n, 0.5)
        a_star = min_miscoverage(e, 0.5, 1.0, 1, 0.5)
        assert a_star == pytest.approx(1.0 / (n + 1))

    def test_hand_heterogeneous(self):
        # gamma = 1: alpha* = (1/e*) / (1/e1 + 1/e2 + 1/e*), t = 1, p = 0.5
        e_cal = np.array([0.25, 0.5])
        got = min_miscoverage(e_cal, 0.4, 1.0, 1, 0.5)
        want = (1 / 0.4) / (1 / 0.25 + 1 / 0.5 + 1 / 0.4)
        assert got == pytest.approx(want)

    def test_monotone_in_gamma(self):
        e = np.random.default_rng(0).uniform(0.25, 0.5, size=30)
        vals = [min_miscoverage(e, 0.3, g, 1, 0.4) for g in (1, 2, 4, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_empty_calibration_error(self):
        with pytest.raises(ValueError):
            min_miscoverage(np.array([]), 0.5, 1.0, 1, 0.5)


def _confounded_ds(n=800, p=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, p))
    logit = 2.0 * (x[:, 0] - 0.5) + 1.5 * (x[:, 1] - 0.5)
    e = 1.0 / (1.0 + np.exp(-logit))
    t = (rng.uniform(size=n) < e).astype(int)
    y = rng.normal(size=n)
    return ObservationalDataset(x, t, y)


class TestCalibrateGamma:
    def test_all_entries_at_least_one(self):
        ds = _confounded_ds()
        m = calibrate_gamma(ds)
        assert m.shape == (ds.n, ds.covariate_dim)
        assert np.all(m >= 1.0)

    def test_duplicated_column_is_inert(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(size=(600, 1))
        x = np.hstack([base, base, rng.uniform(size=(600, 1))])
        e = 1.0 / (1.0 + np.exp(-2.0 * (base[:, 0] - 0.5)))
        t = (rng.uniform(size=600) < e).astype(int)
        ds = ObservationalDataset(x, t, rng.normal(size=600))
        m = calibrate_gamma(ds)
        # dropping one duplicate leaves the propensity nearly unchanged
        assert np.median(m[:, 0]) < 1.1

    def test_irrelevant_covariate_near_one(self):
        ds = _confounded_ds(n=2000, seed=2)
        m = calibrate_gamma(ds)
        assert np.median(m[:, 3]) < 1.1  # covariate 3 plays no role

    @pytest.mark.parametrize("n, p", [(2000, 20), (8000, 20), (2000, 80)])
    def test_peak_memory_is_a_few_matrices(self, n, p):
        # the p + 1 fits share one standardized copy of the covariates and
        # one (n, p + 1) buffer, and make no column-subset copies
        ds = _confounded_ds(n=n, p=p, seed=4)
        tracemalloc.start()
        calibrate_gamma(ds)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 8 * n * (p + 1) * 8

    def test_one_arm_refused(self):
        ds = _confounded_ds(n=50)
        ds = ObservationalDataset(ds.covariates, np.ones(50, dtype=int),
                                  ds.outcome)
        with pytest.raises(ValueError, match="both treatment values"):
            calibrate_gamma(ds)

    def test_needs_two_covariates(self):
        rng = np.random.default_rng(3)
        ds = ObservationalDataset(rng.uniform(size=(50, 1)),
                                  rng.integers(0, 2, size=50),
                                  rng.normal(size=50))
        with pytest.raises(ValueError):
            calibrate_gamma(ds)


def test_gamma_summary_and_csv(tmp_path):
    m = np.array([[1.0, 2.0], [1.5, 4.0], [2.0, 8.0]])
    rows = gamma_summary(m, ("a", "b"))
    assert rows[0]["covariate"] == "a"
    assert rows[0]["median"] == 1.5
    path = tmp_path / "gamma.csv"
    emit_gamma_summary_csv(rows, path)
    text = path.read_text()
    assert text.splitlines()[0] == "covariate,median,p90,p99"
    assert len(text.splitlines()) == 3
