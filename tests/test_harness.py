import json
import os
import warnings
from dataclasses import fields

import numpy as np
import pytest

from confsens import harness, ite, pipeline, predictors
from confsens.harness import (
    METHODS,
    ExperimentConfig,
    TrialRecord,
    beta_coverage_check,
    beta_coverage_trials,
    run_sweep,
    run_trial,
    shrinkage_sharpness,
    summarize,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown methods"):
            ExperimentConfig(methods=("nope",))
        with pytest.raises(ValueError):
            ExperimentConfig(gammas=(0.5,))
        with pytest.raises(ValueError):
            ExperimentConfig(alpha=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(n_trials=0)

    def test_repeats_rejected(self):
        # a summary row would count each repeat as one more trial
        with pytest.raises(ValueError, match="repeated method or gamma: "
                                             "'csa-m'"):
            ExperimentConfig(methods=("csa-m", "csa-m"), gammas=(1.0,))
        with pytest.raises(ValueError, match="repeated method or gamma: 1.0"):
            ExperimentConfig(methods=("csa-m",), gammas=(1, 1.0))

    def test_nan_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            ExperimentConfig(gammas=(1.0, float("nan")))

    def test_empty_grids_rejected(self):
        # an empty grid used to pass here and fail in write_outputs
        with pytest.raises(ValueError, match="empty"):
            ExperimentConfig(methods=())
        with pytest.raises(ValueError, match="empty"):
            ExperimentConfig(gammas=())


def _tiny_cfg(**kw):
    base = dict(methods=("csa-m", "ite-nuc"), gammas=(1.0, 2.0),
                alpha=0.2, n_train=300, n_target=80, n_trials=2)
    base.update(kw)
    return ExperimentConfig(**base)


class TestSweep:
    def test_deterministic(self):
        cfg = _tiny_cfg()
        a = run_trial(cfg, 0)
        b = run_trial(cfg, 0)
        for ra, rb in zip(a, b):
            assert ra.coverage == rb.coverage
            assert ra.mean_width == rb.mean_width

    def test_record_grid_complete(self):
        cfg = _tiny_cfg()
        records, summary = run_sweep(cfg)
        assert len(records) == 2 * 2 * 2  # methods x gammas x trials
        keys = {(r["method"], r["gamma"]) for r in summary}
        assert keys == {("csa-m", 1.0), ("csa-m", 2.0),
                        ("ite-nuc", 1.0), ("ite-nuc", 2.0)}
        for row in summary:
            assert row["n_trials"] == 2
            assert 0.0 <= row["coverage_mean"] <= 1.0

    def test_keep_targets_arrays(self):
        cfg = _tiny_cfg(n_trials=1)
        records = run_trial(cfg, 0, keep_targets=True)
        r = records[0]
        assert r.lower.shape == (80,) and r.tau.shape == (80,)
        cov = np.mean((r.tau >= r.lower) & (r.tau <= r.upper))
        assert cov == pytest.approx(r.coverage)

    def test_worst_case_wider_than_nuc_at_gamma_two(self):
        cfg = _tiny_cfg(n_trials=1)
        _, summary = run_sweep(cfg)
        by = {(r["method"], r["gamma"]): r for r in summary}
        assert (by[("csa-m", 2.0)]["width_mean"]
                >= by[("ite-nuc", 2.0)]["width_mean"])

    def test_outputs_written(self, tmp_path):
        cfg = _tiny_cfg(output_dir=str(tmp_path / "out"))
        run_sweep(cfg)
        out = tmp_path / "out"
        assert (out / "records.csv").exists()
        assert (out / "summary.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert {k: manifest["config"][k]
                for k in ("n_train", "n_target", "n_trials")} == {
            "n_train": 300, "n_target": 80, "n_trials": 2}
        assert manifest["seeds"] == [0, 1]
        assert "numpy" in manifest["versions"]
        header = (out / "records.csv").read_text().splitlines()[0]
        assert header == ("method,gamma,trial,seed,coverage,mean_width,"
                          "n_unbounded,n_target")

    @pytest.mark.parametrize("methods, fits", [(("nested",), 1),
                                               (("csa-m",), 0)])
    def test_nested_propensity_fit_once_per_trial(self, methods, fits,
                                                  monkeypatch):
        # the nested fold's propensity is fit once, in the trial's batch
        # fit beside the arms' fold, and shared by every gamma; no fold
        # fits its own
        batches, own = [], []
        batch_fit = harness.fit_propensities

        def counting(xs, ts):
            batches.append(len(xs))
            return batch_fit(xs, ts)

        monkeypatch.setattr(harness, "fit_propensities", counting)
        for module in (ite, pipeline):
            monkeypatch.setattr(module, "fit_propensity",
                                lambda *args: own.append(1))
        run_sweep(_tiny_cfg(methods=methods, gammas=(1.0, 1.5, 2.0),
                            n_trials=1))
        assert batches == [1 + fits] and not own

    def test_sweep_fits_its_propensities_in_one_ascent(self, monkeypatch):
        # four trials' arm and nested folds: 8 sets of 250 rows
        calls = []
        ascend = predictors._ascend

        def counted(z, t, mask=None):
            calls.append(z.shape)
            return ascend(z, t, mask)

        monkeypatch.setattr(predictors, "_ascend", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the sharpened fallback
            run_sweep(_tiny_cfg(methods=METHODS, n_train=500, n_target=20,
                                n_trials=4))
        assert calls == [(8, 250, 20)]

    @pytest.mark.parametrize("two_arm", [False, True])
    def test_sweep_equals_its_trials(self, two_arm, monkeypatch):
        # a budget of two trials' designs: batches of trials 0-1, 2-3, 4
        cfg = _tiny_cfg(methods=METHODS, n_train=100, n_target=30,
                        n_trials=5, two_arm=two_arm)
        monkeypatch.setattr(harness, "_ASCENT_BYTES",
                            2 * 2 * 50 * 21 * 8 + 1)
        calls = []
        ascend = predictors._ascend
        monkeypatch.setattr(predictors, "_ascend",
                            lambda *args: calls.append(1) or ascend(*args))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the sharpened fallback
            records, _ = run_sweep(cfg, keep_targets=True)
            assert len(calls) == 3
            trials = [r for i in range(cfg.n_trials)
                      for r in run_trial(cfg, i, keep_targets=True)]
        assert len(records) == len(trials) == 5 * 6 * 2
        for got, want in zip(records, trials):
            for field in fields(TrialRecord):
                a, b = getattr(got, field.name), getattr(want, field.name)
                if isinstance(b, np.ndarray):
                    assert a.tobytes() == b.tobytes(), field.name
                else:
                    assert a == b or (a != a and b != b), field.name


GOLDEN = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.blas
class TestGoldenSweep:
    """Summaries pinned from the per-arm pipeline before it was shared
    with the command line; every method must reproduce them byte for
    byte."""

    @pytest.mark.parametrize("setting", ["default", "heteroscedastic",
                                         "two_arm"])
    def test_summary_matches_golden(self, setting, tmp_path):
        flags = {"heteroscedastic": setting == "heteroscedastic",
                 "two_arm": setting == "two_arm"}
        cfg = ExperimentConfig(methods=METHODS, gammas=(1.0, 2.0), alpha=0.2,
                               n_train=400, n_target=120, n_trials=1,
                               base_seed=0, output_dir=str(tmp_path),
                               **flags)
        run_sweep(cfg)
        for written, golden in (("summary.csv", f"golden_sweep_{setting}"),
                                ("records.csv", f"golden_records_{setting}")):
            got = (tmp_path / written).read_bytes()
            with open(os.path.join(GOLDEN, f"{golden}.csv"), "rb") as fh:
                assert got == fh.read(), written


class TestSummarize:
    def test_single_method_stats(self):
        cfg = _tiny_cfg(methods=("ite-nuc",), gammas=(1.0,), n_trials=3)
        records, summary = run_sweep(cfg)
        covs = np.array([r.coverage for r in records])
        assert summary[0]["coverage_mean"] == pytest.approx(covs.mean())
        assert summary[0]["coverage_sd"] == pytest.approx(covs.std(ddof=1))


class TestShrinkage:
    def test_factor_zero_is_plain_coverage(self):
        rng = np.random.default_rng(0)
        tau = rng.normal(size=500)
        lower, upper = tau - 1.0, tau + 1.0
        lower[::7] = tau[::7] + 0.1  # some misses
        table, max_f, n_exc = shrinkage_sharpness(lower, upper, tau, 0.2)
        plain = np.mean((tau >= lower) & (tau <= upper))
        assert table[0] == (0.0, pytest.approx(plain))
        assert n_exc == 0

    def test_monotone_and_max_factor(self):
        rng = np.random.default_rng(1)
        tau = rng.normal(size=2000)
        lower, upper = tau * 0 - 3.0, tau * 0 + 3.0
        table, max_f, _ = shrinkage_sharpness(lower, upper, tau, 0.2)
        covs = [c for _, c in table]
        assert all(a >= b for a, b in zip(covs, covs[1:]))
        # plenty of slack: N(0,1) inside +-3 keeps >= 0.8 down to ~1.28
        assert max_f is not None and max_f > 0.3 - 1e-9

    def test_unbounded_excluded(self):
        tau = np.zeros(4)
        lower = np.array([-1.0, -np.inf, -1.0, -1.0])
        upper = np.array([1.0, 1.0, np.inf, 1.0])
        _, _, n_exc = shrinkage_sharpness(lower, upper, tau, 0.2)
        assert n_exc == 2

    def test_all_covered_no_factor_limit(self):
        tau = np.zeros(10)
        table, max_f, _ = shrinkage_sharpness(tau - 1, tau + 1, tau, 0.2)
        assert max_f == pytest.approx(0.3)


class TestBetaCoverage:
    def test_parameter_mapping(self):
        # alpha = 0.5, n_cal = 3: floor(4 * 0.5) = 2 -> Beta(2, 2)
        from scipy import stats
        rng = np.random.default_rng(2)
        draws = stats.beta(2, 2).rvs(size=400, random_state=rng)
        _, _, passed = beta_coverage_check(draws, n_cal=3, alpha=0.5)
        assert passed

    def test_requires_fifty_trials(self):
        with pytest.raises(ValueError, match="50"):
            beta_coverage_check(np.linspace(0.5, 0.9, 20), 100, 0.2)

    def test_reference_run_follows_law(self):
        covs = beta_coverage_trials(n_cal=80, n_trials=120, alpha=0.2,
                                    seed=3)
        _, p, passed = beta_coverage_check(covs, n_cal=80, alpha=0.2)
        assert passed, f"KS p-value {p}"

    def test_shifted_run_breaks_law(self):
        covs = beta_coverage_trials(n_cal=80, n_trials=400, alpha=0.2,
                                    seed=4, shifted=True)
        _, _, passed = beta_coverage_check(covs, n_cal=80, alpha=0.2)
        assert not passed

    def test_ndtr_is_the_normal_cdf_bit_for_bit(self):
        # the trials call scipy.special so that import loads no stats
        from scipy import special, stats
        x = np.concatenate([np.linspace(-40.0, 40.0, 1_000_001),
                            [-np.inf, np.inf]])
        assert np.array_equal(special.ndtr(x), stats.norm.cdf(x))

    def test_determinism(self):
        a = beta_coverage_trials(50, 60, 0.2, seed=5)
        b = beta_coverage_trials(50, 60, 0.2, seed=5)
        assert np.array_equal(a, b)

