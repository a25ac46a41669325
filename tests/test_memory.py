"""Peak memory of the interval paths: at a fixed training size n it grows
at most linearly in the number of targets m, and by a bounded number of
bytes per target, so no (n, m) array is built, for one gamma or a grid of
five; a sharpened interval's linear program builds no (n, n) array, and
neither does a pass of the sharpened threshold's greedy probes.  A sweep's
peak does not grow with its trial count."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np

from confsens import cssa, harness
from confsens.cssa import cssa_interval, cssa_threshold_batch
from confsens.harness import ExperimentConfig, run_sweep
from confsens.ite import NestedFold, nested_ite_predict
from confsens.msm import SensitivitySpec, weight_bounds_same_arm
from confsens.oracle import SyntheticDGP, generate
from confsens.pipeline import Fold
from confsens.predictors import fit_mean, fit_propensity

DGP = SyntheticDGP(covariate_dim=20)
M = 2000
PER_TARGET = 2048  # bytes; an (n, m) float array costs 8 n per target
GAMMAS = np.array([1.0, 1.5, 2.0, 3.0, 4.0])


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
        arm = Fold(ds, 0).arms(x)[1]
        for method, score in (("nuc", "mean"), ("csa", "mean"),
                              ("cssa", "mean"), ("csa", "cqr")):
            arm.intervals(2.0, 0.1, method, score)

    _assert_linear(*_peaks(run))


def test_fitted_arm_gamma_grid():
    # each method solves the five gammas in one call
    ds = generate(DGP, 2000, seed=0)[0]

    def run(x):
        arm = Fold(ds, 0).arms(x)[1]
        for method in ("nuc", "csa", "cssa"):
            arm.intervals(GAMMAS, 0.1, method)

    _assert_linear(*_peaks(run))


def test_probe_passes_at_a_large_arm():
    # 1000 calibration units, five gammas and target weights spread so
    # that each round probes many positions: the passes hold at most
    # _PASS_ROWS rows, never one (gammas * n, n) array (38 MiB here) or an
    # (n, n) one (7.6 MiB)
    rng = np.random.default_rng(0)
    n = 1000
    e = rng.uniform(0.2, 0.8, size=n)
    lo, hi = weight_bounds_same_arm(e, GAMMAS, 1, 0.5)
    w, _ = weight_bounds_same_arm(e, 1.0, 1, 0.5)  # inside every box
    rows = (e / n)[None, :], np.array([(e / n) @ w])
    h = np.exp(rng.uniform(np.log(1e-2), np.log(1e3), size=(5, 2000)))
    args = rng.normal(size=n), lo, hi, rows, 0.2, h
    sizes = []

    def counted(j, *rest):
        sizes.append(len(j))
        return probe(j, *rest)

    probe = cssa._probe
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a fallback would skip the probes
        with mock.patch.object(cssa, "_probe", counted):
            cssa_threshold_batch(*args)
        tracemalloc.start()
        cssa_threshold_batch(*args)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert max(sizes) == cssa._PASS_ROWS and sum(sizes) > 10 * max(sizes)
    assert peak < 6 * 2**20


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


def test_sweep_holds_one_batch():
    # a batch of trials shares one propensity ascent, and the sweep holds
    # one batch's training sets at a time: four batches peak as one does
    rows = 1000  # each trial's one fold fits on n_train / 2 rows
    per_batch = harness._ASCENT_BYTES // (rows * 21 * 8)
    assert per_batch >= 4
    peaks = []
    for n_trials in (1, per_batch, 4 * per_batch):
        cfg = ExperimentConfig(methods=("csa-m",), gammas=(1.0,),
                               n_train=2 * rows, n_target=10,
                               n_trials=n_trials)
        if n_trials == 1:  # warm-up: loads what the first sweep imports
            run_sweep(cfg)
            continue
        tracemalloc.start()
        run_sweep(cfg)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]
