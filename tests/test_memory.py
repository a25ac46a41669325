"""Peak memory of the interval paths: at a fixed training size n it grows
at most linearly in the number of targets m, and by a bounded number of
bytes per target, so no (n, m) array is built."""

import tracemalloc

import numpy as np

from confsens.ite import NestedFold, nested_ite_predict
from confsens.oracle import SyntheticDGP, generate
from confsens.pipeline import fit_arms

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
    arm = fit_arms(generate(DGP, 2000, seed=0)[0], 0)[1]

    def run(x):
        for method, score in (("nuc", "mean"), ("csa", "mean"),
                              ("cssa", "mean"), ("csa", "cqr")):
            arm.intervals(x, 2.0, 0.1, method, score)

    _assert_linear(*_peaks(run))


def test_nested_fold_model():
    # at fixed n the model is a fixed cost; the targets enter at predict
    fold = NestedFold(generate(DGP, 2000, seed=0)[0], 0)
    _assert_linear(*_peaks(
        lambda x: nested_ite_predict(fold.model(2.0, 0.1), x)))
