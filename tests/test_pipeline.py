import pytest

from confsens import harness, pipeline
from confsens.oracle import SyntheticDGP, generate
from confsens.pipeline import Fold


def test_intervals_refuse_unknown_method():
    ds, _ = generate(SyntheticDGP(covariate_dim=2), 60, seed=0)
    arm = Fold(ds, 0).arms(ds.covariates[:3])[1]
    with pytest.raises(ValueError, match="unknown method 'oracle'"):
        arm.intervals(2.0, 0.2, "oracle")


def test_mean_scores_once_per_arm(monkeypatch):
    # bonferroni spends alpha / 2 per arm, csa-m the whole alpha on arm 1;
    # the mean scores and band do not depend on alpha, so each arm
    # computes them once
    calls = []
    scores_and_band = pipeline.scores_and_band

    def counted(score, model, *args):
        calls.append((score, id(model)))
        return scores_and_band(score, model, *args)

    monkeypatch.setattr(pipeline, "scores_and_band", counted)
    cfg = harness.ExperimentConfig(methods=("csa-m", "bonferroni"),
                                   gammas=(1.0, 2.0), n_train=300,
                                   n_target=50, n_trials=1)
    harness.run_trial(cfg, 0)
    assert len(calls) == 2 and {score for score, _ in calls} == {"mean"}
    assert calls[0][1] != calls[1][1]
