import argparse
import contextlib
import csv
import io
import json
import os
import re
import tempfile
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsens import cli
from confsens.cli import build_parser, main
from confsens.dataset import ObservationalDataset, emit_csv
from confsens.harness import ExperimentConfig

GOLDEN = os.path.join(os.path.dirname(__file__), "data")


def _run(args):
    return main(args)


def _assert_one_error_line(capsys, text="error:"):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and text in err[0]


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    assert _run(["generate", "--n", "400", "--dim", "4", "--seed", "1",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def target_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "target.csv"
    assert _run(["generate", "--n", "6", "--dim", "4", "--seed", "2",
                 "--out", str(path)]) == 0
    return path


class TestGenerate:
    def test_writes_header_and_rows(self, data_csv):
        with open(data_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x1", "x2", "x3", "x4", "t", "y"]
        assert len(rows) == 401

    def test_truth_out(self, tmp_path):
        out = tmp_path / "d.csv"
        truth = tmp_path / "truth.csv"
        assert _run(["generate", "--n", "10", "--dim", "3", "--seed", "0",
                     "--out", str(out), "--truth-out", str(truth)]) == 0
        with open(truth, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["e", "mu1", "mu0", "sigma"]
        assert len(rows) == 11
        for written, name in ((out, "generate"), (truth, "truth")):
            with open(os.path.join(GOLDEN, f"golden_cli_{name}.csv"),
                      "rb") as fh:
                assert written.read_bytes() == fh.read(), name


class TestFit:
    def test_report_contents(self, data_csv, tmp_path):
        out = tmp_path / "fit.json"
        assert _run(["fit", "--data", str(data_csv), "--out",
                     str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["n"] == 400 and report["covariate_dim"] == 4
        assert 0.2 <= report["p_treated"] <= 0.6
        assert len(report["propensity"]["coefficients"]) == 4
        assert report["mean_model_arm1"]["kind"] == "knn"

    def test_non_finite_report_refused(self, data_csv, tmp_path, capsys,
                                       monkeypatch):
        # a NaN coefficient used to be written as `NaN`, which JSON lacks
        fit = cli.fit_propensity

        def nan_fit(x, t):
            model = fit(x, t)
            model.beta_ = model.beta_ * np.nan
            return model

        monkeypatch.setattr(cli, "fit_propensity", nan_fit)
        out = tmp_path / "fit.json"
        assert _run(["fit", "--data", str(data_csv), "--out",
                     str(out)]) == 1
        _assert_one_error_line(capsys, "not JSON compliant")
        assert not out.exists()


class TestInterval:
    def test_csa_interval_csv(self, data_csv, target_csv, tmp_path):
        out = tmp_path / "iv.csv"
        assert _run(["interval", "--data", str(data_csv), "--target",
                     str(target_csv), "--gamma", "2.0", "--out",
                     str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lower", "upper", "threshold", "unbounded"]
        assert len(rows) == 7
        for row in rows[1:]:
            if row[3] == "0":
                assert float(row[0]) <= float(row[1])

    def test_cssa_no_wider_than_csa(self, data_csv, target_csv, tmp_path):
        a = tmp_path / "csa.csv"
        b = tmp_path / "cssa.csv"
        common = ["--data", str(data_csv), "--target", str(target_csv),
                  "--gamma", "2.0"]
        assert _run(["interval", *common, "--method", "csa",
                     "--out", str(a)]) == 0
        assert _run(["interval", *common, "--method", "cssa",
                     "--out", str(b)]) == 0
        wa = np.loadtxt(a, delimiter=",", skiprows=1)
        wb = np.loadtxt(b, delimiter=",", skiprows=1)
        assert np.all(wb[:, 1] - wb[:, 0] <= wa[:, 1] - wa[:, 0] + 1e-9)

    def test_cssa_at_gamma_one_is_csa(self, data_csv, target_csv,
                                      tmp_path):
        common = ["--data", str(data_csv), "--target", str(target_csv),
                  "--gamma", "1"]
        assert _run(["interval", *common, "--method", "csa",
                     "--out", str(tmp_path / "csa.csv")]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no infeasibility fallback
            assert _run(["interval", *common, "--method", "cssa",
                         "--out", str(tmp_path / "cssa.csv")]) == 0
        assert ((tmp_path / "cssa.csv").read_bytes()
                == (tmp_path / "csa.csv").read_bytes())

    def test_small_alpha_mean_score(self, data_csv, target_csv, tmp_path):
        # the mean score needs no quantile model, whose levels
        # (0.005, 0.995) would need 200 training pairs in the arm
        out = tmp_path / "iv.csv"
        assert _run(["interval", "--data", str(data_csv), "--target",
                     str(target_csv), "--gamma", "2", "--alpha", "0.01",
                     "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 7

    def test_nonfinite_target_covariate(self, data_csv, tmp_path, capsys):
        for bad in ("nan", "inf"):
            target = tmp_path / f"{bad}.csv"
            target.write_text(f"x1,x2,x3,x4\n0.1,0.2,0.3,0.4\n"
                              f"0.1,{bad},0.3,0.4\n")
            assert _run(["interval", "--data", str(data_csv), "--target",
                         str(target), "--gamma", "2",
                         "--out", str(tmp_path / "o.csv")]) == 1
            assert "data row 2" in capsys.readouterr().err

    def test_cqr_score_route(self, data_csv, target_csv, tmp_path):
        out = tmp_path / "cqr.csv"
        assert _run(["interval", "--data", str(data_csv), "--target",
                     str(target_csv), "--gamma", "1.5", "--score", "cqr",
                     "--out", str(out)]) == 0
        assert out.read_text().count("\n") >= 2


class TestCssaFallback:
    def test_fallback_prints_one_warning_line(self, tmp_path, capsys):
        # treatment almost separated by x1: the propensity-balance row is
        # infeasible for the treated arm, so cssa falls back to csa
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(300, 3))
        t = (x[:, 0] + 0.05 * rng.normal(size=300) > 0.5).astype(int)
        y = x[:, 1] + rng.normal(size=300)
        data = tmp_path / "separated.csv"
        emit_csv(ObservationalDataset(x, t, y), data)
        common = ["--data", str(data), "--target", str(data),
                  "--gamma", "1.5", "--t", "1"]
        assert _run(["interval", *common, "--method", "csa",
                     "--out", str(tmp_path / "csa.csv")]) == 0
        capsys.readouterr()
        # a caller's error filter must not turn the fallback into a crash
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run(["interval", *common, "--method", "cssa",
                         "--out", str(tmp_path / "cssa.csv")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["warning: balancing constraints infeasible; falling "
                       "back to the unconstrained thresholds"]
        assert ((tmp_path / "cssa.csv").read_bytes()
                == (tmp_path / "csa.csv").read_bytes())


class TestIte:
    def test_nested_csv(self, data_csv, target_csv, tmp_path):
        out = tmp_path / "ite.csv"
        assert _run(["ite", "--data", str(data_csv), "--target",
                     str(target_csv), "--gamma", "1.5", "--out",
                     str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "lower", "upper", "method", "gamma",
                           "alpha"]
        assert len(rows) == 7
        assert all(row[3] == "nested" for row in rows[1:])

    def test_bonferroni_route(self, data_csv, target_csv, tmp_path):
        out = tmp_path / "bon.csv"
        assert _run(["ite", "--data", str(data_csv), "--target",
                     str(target_csv), "--gamma", "1.5", "--method",
                     "bonferroni", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(row[3] == "bonferroni" for row in rows[1:])

    @pytest.mark.parametrize("method", ["nested", "bonferroni"])
    def test_target_width_mismatch(self, method, data_csv, tmp_path, capsys):
        target = tmp_path / "narrow.csv"
        target.write_text("x1\n0.1\n0.2\n")
        assert _run(["ite", "--data", str(data_csv), "--target", str(target),
                     "--gamma", "1.5", "--method", method,
                     "--out", str(tmp_path / "o.csv")]) == 1
        _assert_one_error_line(
            capsys, "target lacks covariate columns ['x2', 'x3', 'x4']")

    def test_bonferroni_small_alpha(self, data_csv, target_csv, tmp_path):
        # each arm runs at alpha / 2 = 0.01 and needs no quantile model
        out = tmp_path / "bon.csv"
        assert _run(["ite", "--data", str(data_csv), "--target",
                     str(target_csv), "--gamma", "1.5", "--method",
                     "bonferroni", "--alpha", "0.02", "--out",
                     str(out)]) == 0
        assert out.read_text().count("\n") == 7


def _reordered(target_csv, path, header):
    """`target_csv` rewritten with its columns in the order `header`."""
    with open(target_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, header, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    return path


@pytest.mark.parametrize("command", [["interval"], ["ite"],
                                     ["ite", "--method", "bonferroni"]],
                         ids=["interval", "nested", "bonferroni"])
@pytest.mark.parametrize("header", [["x4", "x2", "x3", "x1"],
                                    ["y", "x3", "x1", "t", "x4", "x2"]],
                         ids=["covariates", "with-t-y"])
def test_target_read_by_column_name(command, header, data_csv, target_csv,
                                    tmp_path):
    # the target's covariates used to be read by position
    target = _reordered(target_csv, tmp_path / "reordered.csv", header)
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path, out in zip((target_csv, target), outs):
        assert _run([*command, "--data", str(data_csv), "--target",
                     str(path), "--gamma", "2.0", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("command", ["interval", "ite"])
@pytest.mark.parametrize("header, text", [
    (["x1", "x2", "x4"], "target lacks covariate columns ['x3']"),
    (["x1", "x2", "x3", "x4", "x5"], "columns the data lacks: ['x5']"),
])
def test_target_column_mismatch(command, header, text, data_csv, tmp_path,
                                capsys):
    target = tmp_path / "target.csv"
    target.write_text(",".join(header) + "\n" + ",".join(["0.5"] * len(header))
                      + "\n")
    assert _run([command, "--data", str(data_csv), "--target", str(target),
                 "--gamma", "2.0", "--out", str(tmp_path / "o.csv")]) == 1
    _assert_one_error_line(capsys, text)


# Per-target CSVs pinned on the fixtures above, compared byte for byte.
# The fixture's outcome under t = 0 is identically zero, so the CQR
# sharpened interval is pinned at both arms.
_GOLDEN_COMMANDS = {
    "csa": ["interval", "--method", "csa"],
    "cssa_cqr_t0": ["interval", "--method", "cssa", "--score", "cqr",
                    "--t", "0"],
    "cssa_cqr_t1": ["interval", "--method", "cssa", "--score", "cqr",
                    "--t", "1"],
    "nested": ["ite", "--method", "nested"],
    "bonferroni": ["ite", "--method", "bonferroni"],
}


@pytest.mark.blas
@pytest.mark.parametrize("name", list(_GOLDEN_COMMANDS))
def test_csv_matches_golden(name, data_csv, target_csv, tmp_path):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run([*_GOLDEN_COMMANDS[name], "--data", str(data_csv),
                     "--target", str(target_csv), "--gamma", "2.0",
                     "--out", str(out)]) == 0
    with open(os.path.join(GOLDEN, f"golden_cli_{name}.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


class TestSweep:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "methods": ["ite-nuc"], "gammas": [1.0], "alpha": 0.2,
            "n_train": 200, "n_target": 40, "n_trials": 2,
        }))
        out_dir = tmp_path / "run"
        assert _run(["sweep", "--config", str(cfg), "--n-trials", "1",
                     "--out-dir", str(out_dir)]) == 0
        text = capsys.readouterr().out
        assert "ite-nuc" in text and "coverage=" in text
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["n_trials"] == 1  # flag wins

    @pytest.mark.parametrize("config, text", [
        ({"foo": 1}, "foo"),
        ([1, 2], "JSON object"),
        ({"gammas": 2.0}, "gammas"),
        ({"n_trials": "3"}, "n_trials"),
    ])
    def test_malformed_config_fails(self, config, text, tmp_path, capsys):
        # each used to end in a TypeError traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert _run(["sweep", "--config", str(cfg), "--out-dir",
                     str(tmp_path / "run")]) == 1
        _assert_one_error_line(capsys, text)
        assert not (tmp_path / "run").exists()

    def test_flags_only(self, tmp_path):
        out_dir = tmp_path / "run2"
        assert _run(["sweep", "--methods", "ite-nuc", "--gammas", "1.0",
                     "--n-train", "200", "--n-target", "40",
                     "--n-trials", "1", "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "summary.csv").exists()

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        # the variable beats the flag, and the manifest names where the
        # files went
        inner = tmp_path / "env_dir"
        monkeypatch.setenv("CONFSENS_OUTPUT_DIR", str(inner))
        assert _run(["sweep", "--methods", "ite-nuc", "--gammas", "1.0",
                     "--n-train", "200", "--n-target", "40",
                     "--n-trials", "1",
                     "--out-dir", str(tmp_path / "ignored")]) == 0
        assert (inner / "summary.csv").exists()
        assert not (tmp_path / "ignored").exists()
        manifest = json.loads((inner / "manifest.json").read_text())
        assert manifest["config"]["output_dir"] == str(inner)

    def test_flags_cover_config(self):
        # each config field is the dest of exactly one flag, so a field
        # added without its flag fails here
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = [a.dest for a in sub.choices["sweep"]._actions
                 if a.dest not in ("help", "config")]
        assert sorted(dests) == sorted(f.name
                                       for f in fields(ExperimentConfig))

    def test_absent_flag_keeps_config_entry(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"two_arm": True, "base_seed": 3}))
        out_dir = tmp_path / "run"
        assert _run(["sweep", "--config", str(cfg), "--methods", "ite-nuc",
                     "--gammas", "1.0", "--n-train", "200", "--n-target",
                     "40", "--n-trials", "1", "--out-dir", str(out_dir)]) == 0
        config = json.loads((out_dir / "manifest.json").read_text())["config"]
        assert config["two_arm"] is True and config["base_seed"] == 3

    def test_seed_flag_sets_base_seed(self, tmp_path):
        out_dir = tmp_path / "run"
        assert _run(["sweep", "--methods", "ite-nuc", "--gammas", "1.0",
                     "--n-train", "200", "--n-target", "40", "--n-trials",
                     "1", "--seed", "5", "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["base_seed"] == 5
        assert manifest["seeds"] == [5]

    @pytest.mark.parametrize("flag", ["--methods", "--gammas"])
    def test_empty_grid_flag_fails(self, flag, tmp_path, capsys):
        # an empty flag used to fall back to the default grid
        assert _run(["sweep", flag, "", "--n-train", "200", "--n-target",
                     "40", "--n-trials", "1",
                     "--out-dir", str(tmp_path / "run")]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["generate", "fit", "interval", "ite",
                                     "sweep", "calibrate"])
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        _run([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: confsens {command}")


def test_shared_flags_declared_once():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices
    for flags, commands in ((("--data", "--out"),
                             ("fit", "interval", "ite", "calibrate")),
                            (("--target", "--gamma", "--alpha", "--seed"),
                             ("interval", "ite"))):
        for flag in flags:
            actions = {id(sub[c]._option_string_actions[flag])
                       for c in commands}
            assert len(actions) == 1, flag


@pytest.mark.blas
class TestCalibrate:
    def test_summary_csv(self, data_csv, tmp_path):
        out = tmp_path / "gamma.csv"
        assert _run(["calibrate", "--data", str(data_csv), "--out",
                     str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["covariate", "median", "p90", "p99"]
        assert len(rows) == 5
        assert all(float(r[1]) >= 1.0 for r in rows[1:])
        with open(os.path.join(GOLDEN, "golden_cli_calibrate.csv"),
                  "rb") as fh:
            assert out.read_bytes() == fh.read()


class TestErrors:
    @pytest.mark.parametrize("command", [["interval"],
                                         ["ite", "--method", "bonferroni"]])
    def test_nan_gamma_exit_code(self, command, data_csv, target_csv,
                                 tmp_path, capsys):
        assert _run([*command, "--data", str(data_csv), "--target",
                     str(target_csv), "--gamma", "nan",
                     "--out", str(tmp_path / "o.csv")]) == 1
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["interval"],
                                         ["ite", "--method", "nested"],
                                         ["ite", "--method", "bonferroni"]])
    def test_infinite_gamma_exit_code(self, command, data_csv, target_csv,
                                      tmp_path, capsys):
        # used to exit 0 with every row unbounded
        assert _run([*command, "--data", str(data_csv), "--target",
                     str(target_csv), "--gamma", "inf",
                     "--out", str(tmp_path / "o.csv")]) == 1
        _assert_one_error_line(capsys, "gamma")

    @pytest.mark.parametrize("gammas, code", [("1,inf", 1), ("1e6", 0)],
                             ids=["1,inf", "1e6"])
    def test_sweep_gamma_exit_code(self, gammas, code, tmp_path, capsys):
        # inf is refused up front; 1e6 is legal, and the oracle draws what
        # its rejection rounds leave by inverse CDF
        assert _run(["sweep", "--methods", "ite-nuc", "--gammas", gammas,
                     "--n-train", "200", "--n-target", "40", "--n-trials",
                     "1", "--out-dir", str(tmp_path / "run")]) == code
        if code:
            _assert_one_error_line(capsys)
        assert (tmp_path / "run" / "records.csv").exists() == (code == 0)

    def test_sweep_at_gamma_50(self, tmp_path):
        # used to exit 1: 6 of 302 oracle draws were left unaccepted
        assert _run(["sweep", "--methods", "ite-nuc", "--gammas", "50",
                     "--n-train", "500", "--n-target", "500", "--n-trials",
                     "1", "--out-dir", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "records.csv").exists()

    @pytest.mark.parametrize("flags", [["--dim", "1"], ["--dim", "0"],
                                       ["--dim", "2", "--two-arm"]])
    def test_too_few_covariates_exit_code(self, flags, tmp_path, capsys):
        # used to end in an IndexError traceback
        assert _run(["generate", "--n", "10", *flags,
                     "--out", str(tmp_path / "d.csv")]) == 1
        _assert_one_error_line(capsys, "covariate_dim")

    def test_ragged_target_row(self, data_csv, tmp_path, capsys):
        # a short row used to surface numpy's "inhomogeneous shape" text
        target = tmp_path / "ragged.csv"
        target.write_text("x1,x2,x3,x4\n0.1,0.2,0.3,0.4\n0.1,0.2,0.3\n")
        assert _run(["interval", "--data", str(data_csv), "--target",
                     str(target), "--gamma", "2",
                     "--out", str(tmp_path / "o.csv")]) == 1
        _assert_one_error_line(capsys, "data row 2 has 3 cells")

    def test_repeated_column_name(self, target_csv, tmp_path, capsys):
        # the second `x1` used to be read in place of the first
        data = tmp_path / "repeated.csv"
        data.write_text("x1,x1,t,y\n1,2,1,0.5\n3,4,0,0.7\n")
        assert _run(["interval", "--data", str(data), "--target",
                     str(target_csv), "--gamma", "1.5",
                     "--out", str(tmp_path / "o.csv")]) == 1
        _assert_one_error_line(capsys, "repeated column name 'x1'")

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert _run(["fit", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unparsable_csv_exit_code(self, tmp_path, capsys):
        # used to end in a `_csv.Error` traceback
        huge = tmp_path / "huge.csv"
        huge.write_text(f"x1,x2,t,y\n0.5,{'9' * 200_000},1,1.0\n")
        assert _run(["calibrate", "--data", str(huge),
                     "--out", str(tmp_path / "o.csv")]) == 1
        _assert_one_error_line(capsys, "unreadable CSV at line 2")

    def test_bad_csv_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,t,y\n0.5,7,1.0\n")
        assert _run(["fit", "--data", str(bad),
                     "--out", str(tmp_path / "o.json")]) == 1
        assert "error:" in capsys.readouterr().err


def _hostile_datasets():
    """Small datasets that stress the fits, by name: (x, t, y)."""
    rng = np.random.default_rng(0)
    n = 200
    x = rng.uniform(size=(n, 3))
    t = (rng.uniform(size=n) < 0.5).astype(int)
    y = x[:, 1] + rng.normal(size=n)
    lone = np.zeros(n, dtype=int)
    lone[0] = 1
    return {"constant-outcome": (x, t, np.full(n, 2.5)),
            "identical-rows": (np.tile(x[:1], (n, 1)), t, y),
            "separated": (x, (x[:, 0] > 0.5).astype(int), y),
            "one-unit-arm": (x, lone, y),
            "all-treated": (x, np.ones(n, dtype=int), y),
            "n8": (x[:8], np.array([0, 1] * 4), y[:8]),
            "p1": (x[:, :1], t, y),
            "tiny-scale": (x * [1.0, 1e-310, 1.0], t, y),
            "huge-scale": (x * [1.0, 1e300, 1.0], t, y)}


_HOSTILE_COMMANDS = {
    "csa": ["interval", "--method", "csa", "--gamma", "1.5"],
    "cssa": ["interval", "--method", "cssa", "--gamma", "1.5"],
    "cqr": ["interval", "--method", "csa", "--score", "cqr",
            "--gamma", "1.5"],
    "nested": ["ite", "--method", "nested", "--gamma", "1.5"],
    "bonferroni": ["ite", "--method", "bonferroni", "--gamma", "1.5"],
    "calibrate": ["calibrate"],
    "fit": ["fit"],
}

_PAIRS = "need at least 2 training pairs"
_CQR_PAIRS = "need at least 11 training pairs"
_BOTH = "both treatment values must be present"
_SCALE = ("covariate column 1 varies on a scale float64 cannot "
          "standardize (standard deviation {})")
_FALLBACK = ("warning: balancing constraints infeasible; falling back to "
             "the unconstrained thresholds")

# Hand-written outcome of each cell: "ok" (exit 0, nothing on stderr),
# "fallback" (exit 0, the one CSSA fallback line) or the text of the one
# `error:` line of exit 1.
_HOSTILE_MATRIX = {
    # columns: csa, cssa, cqr, nested, bonferroni, calibrate, fit
    "constant-outcome": ("ok",) * 7,
    "identical-rows": ("ok",) * 7,
    "separated": ("ok", "fallback", "ok", "ok", "ok", "ok", "ok"),
    "one-unit-arm": (_PAIRS, _PAIRS, _CQR_PAIRS, "too few units in arm 1",
                     _PAIRS, "ok", _PAIRS),
    "n8": (_PAIRS, _PAIRS, _CQR_PAIRS, "too few units in arm 0", _PAIRS,
           "ok", "ok"),
    "p1": ("ok", "ok", "ok", "ok", "ok", "need at least 2 covariates", "ok"),
    "all-treated": (_BOTH, _BOTH, _BOTH, "too few units in arm 0", _BOTH,
                    _BOTH, _BOTH),
    # used to exit 0 with numpy warnings and NaN, or unbounded, outputs
    "tiny-scale": (_SCALE.format(0),) * 7,
    "huge-scale": (_SCALE.format("inf"),) * 7,
}


@pytest.fixture(scope="module")
def hostile_csvs(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    paths = {}
    for name, (x, t, y) in _hostile_datasets().items():
        paths[name] = root / f"{name}.csv"
        emit_csv(ObservationalDataset(x, t, y), paths[name])
    return paths


def _check_output(command, out):
    """Each row's lower <= upper; an interval's unbounded flag marks
    exactly the rows with empty endpoint cells."""
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows
    ends = [row[:2] for row in rows] if command == "interval" \
        else [row[1:3] for row in rows]
    for (lower, upper), row in zip(ends, rows):
        if lower and upper:
            assert float(lower) <= float(upper)
        if command == "interval":
            assert (row[3] == "1") == (lower == "") == (upper == "")


@pytest.mark.parametrize("dataset", sorted(_HOSTILE_MATRIX))
@pytest.mark.parametrize("column", list(_HOSTILE_COMMANDS))
def test_hostile_input_matrix(dataset, column, hostile_csvs, tmp_path,
                              capsys):
    data = str(hostile_csvs[dataset])
    args = _HOSTILE_COMMANDS[column]
    target = [] if args[0] in ("calibrate", "fit") else ["--target", data]
    out = tmp_path / "out"
    code = _run([*args, "--data", data, *target, "--out", str(out)])
    expected = _HOSTILE_MATRIX[dataset][list(_HOSTILE_COMMANDS).index(column)]
    if expected in ("ok", "fallback"):
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ([] if expected == "ok" else [_FALLBACK])
        if args[0] in ("interval", "ite"):
            _check_output(args[0], out)
    else:
        assert code == 1
        _assert_one_error_line(capsys, expected)


@st.composite
def _generated_datasets(draw):
    """(x, t, y) with n from 6 to 80 and p from 1 to 5.  Each column is
    uniform, tied or constant at a scale of 10^[-310, 300], or a copy of
    column 0; the treatment is random, separated on column 0, or leaves
    an arm two units; the outcome has a signal, ties or one value; every
    zero is -0.0."""
    n, p = draw(st.integers(6, 80)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = np.empty((n, p))
    for j in range(p):
        kind = draw(st.sampled_from(["uniform", "ties", "constant", "copy"]))
        x[:, j] = x[:, 0] if kind == "copy" and j else {
            "uniform": rng.uniform(-1.0, 1.0, n),
            "ties": rng.integers(-1, 2, n).astype(float),
            "constant": np.full(n, rng.uniform(-1.0, 1.0)),
            "copy": rng.uniform(-1.0, 1.0, n),
        }[kind] * 10.0 ** draw(st.integers(-310, 300))
    split = x[:, 0] > np.median(x[:, 0])
    two = np.isin(np.arange(n), rng.choice(n, 2, replace=False))
    t = {"random": rng.integers(0, 2, n), "separated": split,
         "two-treated": two, "two-control": ~two,
         }[draw(st.sampled_from(["random", "separated", "two-treated",
                                 "two-control"]))].astype(int)
    y = {"signal": split + rng.normal(size=n),
         "ties": rng.integers(-1, 2, n).astype(float),
         "constant": np.full(n, 2.5),
         }[draw(st.sampled_from(["signal", "ties", "constant"]))]
    x[x == 0.0], y[y == 0.0] = -0.0, -0.0
    return x, t, y


def _run_quietly(args):
    """(exit code, stderr lines) of one `main` run; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    return code, err.getvalue().splitlines()


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(_generated_datasets())
def test_generated_inputs_work_or_fail_by_name(data):
    # every command of the hostile matrix on a generated dataset, which is
    # also the target file: one `error:` line and exit 1, or exit 0 with
    # no NaN cell, ordered and flagged rows and no warning but the CSSA
    # fallback's
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "data.csv")
        emit_csv(ObservationalDataset(*data), path)
        for column, args in _HOSTILE_COMMANDS.items():
            out = os.path.join(root, column)
            target = ([] if args[0] in ("calibrate", "fit")
                      else ["--target", path])
            code, err = _run_quietly([*args, "--data", path, *target,
                                      "--out", out])
            if code == 1:
                assert len(err) == 1 and err[0].startswith("error:"), \
                    (column, err)
                continue
            assert code == 0 and set(err) <= {_FALLBACK}, (column, err)
            with open(out, encoding="utf-8") as fh:
                assert not re.search(r"\bnan\b", fh.read(), re.I), column
            if args[0] in ("interval", "ite"):
                _check_output(args[0], out)


def _tiny_sweep(n_train, methods, *flags):
    return ["sweep", "--n-train", str(n_train), "--n-target", "5",
            "--gammas", "1,2", "--methods", methods, *flags]


# The `generate`, tiny `sweep` and out-of-range gamma columns: hand-written
# outcome of each cell, "ok" (exit 0 with output rows, nothing on stderr)
# or the text of the one `error:` line of exit 1; "{data}" and "{target}"
# stand for the module's data and target files.
_HOSTILE_RUNS = {
    "generate-n0": (["generate", "--n", "0"], "n must be >= 1"),
    "generate-n1": (["generate", "--n", "1", "--dim", "3", "--two-arm"],
                    "ok"),
    "sweep-n2": (_tiny_sweep(2, "csa-m", "--n-trials", "1"),
                 "both treatment values must be present"),
    "sweep-n8-cqr": (_tiny_sweep(8, "csa-q", "--n-trials", "1"),
                     _CQR_PAIRS),
    # trial 1's fit rows lack a treatment value, but trial 0's quantile
    # model refuses first, as it does when the trials run one at a time
    "sweep-n6-cqr-nested": (_tiny_sweep(6, "csa-q,nested", "--n-trials",
                                        "2"), _CQR_PAIRS),
    "sweep-n8-cqr-nested": (_tiny_sweep(8, "csa-q,nested", "--n-trials",
                                        "2"), _CQR_PAIRS),
    "sweep-n1": (_tiny_sweep(1, "csa-m", "--n-trials", "3"),
                 "empty training set"),
    "sweep-n0": (_tiny_sweep(0, "csa-m", "--n-trials", "1"),
                 "n_train must be >= 1"),
    "sweep-no-targets": (["sweep", "--n-train", "40", "--n-target", "0",
                          "--gammas", "1,2", "--methods", "csa-m",
                          "--n-trials", "1"], "n_target must be >= 1"),
    "sweep-no-trials": (_tiny_sweep(40, "csa-m", "--n-trials", "0"),
                        "n_trials must be >= 1"),
    "sweep-alpha-1": (_tiny_sweep(40, "csa-m", "--n-trials", "1",
                                  "--alpha", "1"),
                      "alpha must lie in (0, 1)"),
    "sweep-repeated-method": (_tiny_sweep(40, "csa-m,csa-m", "--n-trials",
                                          "1"),
                              "repeated method or gamma: 'csa-m'"),
    "sweep-repeated-gamma": (["sweep", "--n-train", "40", "--n-target", "5",
                              "--gammas", "1,1.0", "--methods", "csa-m",
                              "--n-trials", "1"],
                             "repeated method or gamma: 1.0"),
    "sweep-nested": (_tiny_sweep(40, "nested", "--n-trials", "1"), "ok"),
    "sweep-cssa-two-arm": (_tiny_sweep(40, "cssa-m", "--n-trials", "1",
                                       "--two-arm"), "ok"),
    # used to print a traceback: 1 / gamma ** 2 overflowed in the oracle
    "sweep-gamma-1e300": (["sweep", "--n-train", "40", "--n-target", "5",
                           "--gammas", "1e300", "--methods", "csa-m",
                           "--n-trials", "1"], "<= 1e+08, got 1e+300"),
    "interval-cssa-gamma-1e20": (["interval", "--method", "cssa", "--gamma",
                                  "1e20", "--data", "{data}", "--target",
                                  "{target}"], "<= 1e+08, got 1e+20"),
}


@pytest.mark.parametrize("cell", list(_HOSTILE_RUNS))
def test_hostile_generate_and_sweep(cell, data_csv, target_csv, tmp_path,
                                   capsys):
    args, expected = _HOSTILE_RUNS[cell]
    args = [a.format(data=data_csv, target=target_csv) for a in args]
    out = tmp_path / "out"
    code = _run([*args, "--out-dir" if args[0] == "sweep" else "--out",
                 str(out)])
    if expected != "ok":
        assert code == 1
        _assert_one_error_line(capsys, expected)
        assert not out.exists()
        return
    assert code == 0
    assert capsys.readouterr().err == ""
    if args[0] == "generate":
        with open(out, newline="") as fh:
            assert len(list(csv.reader(fh))) == 2  # header and one unit
        return
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["method"], r["gamma"]) for r in rows] == [
        (args[args.index("--methods") + 1], g) for g in ("1.0", "2.0")]
