"""Peak memory of the interval paths: at a fixed training size n it grows
at most linearly in the number of targets m, and by a bounded number of
bytes per target, so no (n, m) array is built; a sharpened interval's
linear program builds no (n, n) array."""

import tracemalloc
import warnings

import numpy as np

from confsens.cssa import cssa_interval
from confsens.ite import NestedFold, nested_ite_predict
from confsens.msm import SensitivitySpec
from confsens.oracle import SyntheticDGP, generate
from confsens.pipeline import fit_arms
from confsens.predictors import fit_mean, fit_propensity

DGP = SyntheticDGP(covariate_dim=20)
M = 2000
PER_TARGET = 2048  # bytes; an (n, m) float array costs 8 n per target


def _peaks(run):
    """Traced peaks of `run` at M and 4 M fresh targets, after a warm-up
    call builds what the models cache."""
    rng = np.random.default_rng(1)
    run(rng.uniform(size=(M, 20)))
    peaks = []
    for m in (M, 4 * M):
        x = rng.uniform(size=(m, 20))
        tracemalloc.start()
        run(x)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    return peaks


def _assert_linear(small, large):
    assert large <= 4 * small
    assert large - small <= 3 * M * PER_TARGET


def test_fitted_arm_intervals():
    ds = generate(DGP, 2000, seed=0)[0]

    def run(x):
        arm = fit_arms(ds, 0, x)[1]
        for method, score in (("nuc", "mean"), ("csa", "mean"),
                              ("cssa", "mean"), ("csa", "cqr")):
            arm.intervals(2.0, 0.1, method, score)

    _assert_linear(*_peaks(run))


def test_nested_fold_model():
    # at fixed n the model is a fixed cost; the targets enter at predict
    fold = NestedFold(generate(DGP, 2000, seed=0)[0], 0)
    _assert_linear(*_peaks(
        lambda x: nested_ite_predict(fold.model(2.0, 0.1), x)))


def test_identity_balanced_interval():
    # the LP takes the weight box as variable bounds: as constraint rows
    # it would be two n x n identity blocks, over 10 MiB at this arm size
    data = generate(SyntheticDGP(covariate_dim=5), 1200, seed=0)[0]
    x, t, y = data.covariates, data.treatment, data.outcome
    pre, cal = np.arange(200), np.arange(200, 1200)
    pre1, cal1 = pre[t[pre] == 1], cal[t[cal] == 1]
    assert 380 <= cal1.size <= 450
    mu, prop = fit_mean(x[pre1], y[pre1]), fit_propensity(x[pre], t[pre])
    spec = SensitivitySpec(gamma=2.0, alpha=0.2, t=1)

    def run():
        return cssa_interval(mu, prop, x[cal1], y[cal1], x[0], spec,
                             t[pre].mean(), x[cal], t[cal], g_kind="identity")

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a fallback would skip the LP
        run()  # warm-up: loads the solver
        tracemalloc.start()
        lower, upper, _ = run()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert lower <= upper
    assert peak < 2 * 2**20
