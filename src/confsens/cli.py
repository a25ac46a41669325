"""Command-line entry points.

Subcommands: `generate` (synthetic datasets), `fit` (predictor fitting
report), `interval` (worst-case intervals for Y(t) from CSVs), `ite`
(effect intervals via the nested construction), `sweep` (full coverage
experiment), `calibrate` (confounding-strength reference table).

The `sweep` subcommand reads a JSON config file; individual flags
override file entries, and CONFSENS_OUTPUT_DIR overrides the output
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import fields

import numpy as np

from .dataset import (
    arm_indices,
    emit_csv,
    ingest_covariates,
    ingest_csv,
    write_csv,
)
from .harness import ExperimentConfig, run_sweep
from .ite import bonferroni_ite, nested_ite_fit, nested_ite_predict
from .msm import calibrate_gamma, emit_gamma_summary_csv, gamma_summary
from .oracle import SyntheticDGP, emit_truth_csv, generate
from .pipeline import fit_arms
from .predictors import CLIP, fit_mean, fit_propensity, marginal_treatment_prob


def _cmd_generate(args):
    dgp = SyntheticDGP(covariate_dim=args.dim,
                       heteroscedastic=args.heteroscedastic,
                       two_arm=args.two_arm)
    ds, truth = generate(dgp, args.n, seed=args.seed)
    emit_csv(ds, args.out)
    if args.truth_out:
        emit_truth_csv(truth, args.truth_out)
    print(f"wrote {ds.n} units to {args.out}")


def _cmd_fit(args):
    ds = ingest_csv(args.data)
    propensity = fit_propensity(ds.covariates, ds.treatment)
    report = {
        "n": ds.n,
        "covariate_dim": ds.covariate_dim,
        "p_treated": marginal_treatment_prob(ds.treatment, 1),
        "propensity": {
            "intercept": float(propensity.intercept_),
            "coefficients": [float(b) for b in propensity.beta_],
            "feature_means": [float(v) for v in propensity.mean_],
            "feature_sds": [float(v) for v in propensity.sd_],
            "clip": CLIP,
        },
    }
    for t in (0, 1):
        idx = arm_indices(ds, t)
        mu = fit_mean(ds.covariates[idx], ds.outcome[idx])
        report[f"mean_model_arm{t}"] = {"kind": "knn", "k": mu.k,
                                        "n_fit": int(idx.size)}
    # NaN or inf is refused before the file is opened
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote fit report to {args.out}")


def _cmd_interval(args):
    ds = ingest_csv(args.data)
    x_target = ingest_covariates(args.target, ds.names)
    arm = fit_arms(ds, args.seed, x_target)[args.t]
    lower, upper, threshold = arm.intervals(args.gamma, args.alpha,
                                            args.method, args.score)
    write_csv(args.out, ["lower", "upper", "threshold", "unbounded"],
              zip(_cells(lower), _cells(upper),
                  [format(v, ".17g") for v in threshold],
                  np.isinf(threshold).astype(int)))
    print(f"wrote {threshold.shape[0]} intervals to {args.out}")


def _cmd_ite(args):
    ds = ingest_csv(args.data)
    x_target = ingest_covariates(args.target, ds.names)
    if args.method == "nested":
        model = nested_ite_fit(ds, args.gamma, args.alpha, seed=args.seed)
        lower, upper = nested_ite_predict(model, x_target)
    else:
        # Bonferroni: each arm at alpha / 2, then the difference interval
        half = args.alpha / 2.0
        arm0, arm1 = (arm.intervals(args.gamma, half, "csa")
                      for arm in fit_arms(ds, args.seed, x_target))
        lower, upper = bonferroni_ite(arm1, arm0)
    write_csv(args.out, ["id", "lower", "upper", "method", "gamma", "alpha"],
              ((i, lo, up, args.method, args.gamma, args.alpha)
               for i, (lo, up) in enumerate(zip(_cells(lower),
                                                _cells(upper)))))
    print(f"wrote {lower.shape[0]} effect intervals to {args.out}")


def _cmd_sweep(args):
    known = {f.name for f in fields(ExperimentConfig)}
    cfg_dict = {"output_dir": "."}
    if "config" in args:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("a sweep config must be a JSON object")
        unknown = set(loaded) - known
        if unknown:
            raise ValueError(f"unknown sweep config keys: {sorted(unknown)}")
        cfg_dict.update(loaded)
    # the flags present, each under its config field's name
    cfg_dict.update((k, v) for k, v in vars(args).items() if k in known)
    if "methods" in args:
        cfg_dict["methods"] = tuple(args.methods.split(","))
    if "gammas" in args:
        cfg_dict["gammas"] = tuple(float(g) for g in args.gammas.split(","))
    if "CONFSENS_OUTPUT_DIR" in os.environ:
        cfg_dict["output_dir"] = os.environ["CONFSENS_OUTPUT_DIR"]
    cfg = ExperimentConfig(**cfg_dict)
    _, summary = run_sweep(cfg)
    for row in summary:
        print(f"{row['method']:>10}  gamma={row['gamma']:<4g} "
              f"coverage={row['coverage_mean']:.3f} "
              f"({row['coverage_sd']:.3f})  "
              f"width={row['width_mean']:.3f}  "
              f"unbounded={row['n_unbounded']}")


def _cmd_calibrate(args):
    ds = ingest_csv(args.data)
    matrix = calibrate_gamma(ds)
    rows = gamma_summary(matrix, ds.names)
    emit_gamma_summary_csv(rows, args.out)
    print(f"wrote confounding-strength summary for "
          f"{len(rows)} covariates to {args.out}")


def _cells(values):
    """CSV cells for interval endpoints: "" on an unbounded side."""
    return [format(v, ".17g") if np.isfinite(v) else "" for v in values]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="confsens",
        description="Sensitivity-aware conformal intervals for "
                    "treatment effects")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--heteroscedastic", action="store_true")
    p.add_argument("--two-arm", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", default=None)
    p.set_defaults(func=_cmd_generate)

    # the flags shared by subcommands, each declared once
    io_flags = argparse.ArgumentParser(add_help=False)
    io_flags.add_argument("--data", required=True)
    io_flags.add_argument("--out", required=True)
    target_flags = argparse.ArgumentParser(add_help=False)
    target_flags.add_argument("--target", required=True)
    target_flags.add_argument("--gamma", type=float, required=True)
    target_flags.add_argument("--alpha", type=float, default=0.2)
    target_flags.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fit", help="fit predictors and report them",
                       parents=[io_flags])
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("interval", help="worst-case intervals for Y(t)",
                       parents=[io_flags, target_flags])
    p.add_argument("--t", type=int, default=1, choices=(0, 1))
    p.add_argument("--method", default="csa", choices=("csa", "cssa"))
    p.add_argument("--score", default="mean", choices=("mean", "cqr"))
    p.set_defaults(func=_cmd_interval)

    p = sub.add_parser("ite", help="treatment-effect intervals",
                       parents=[io_flags, target_flags])
    p.add_argument("--method", default="nested",
                   choices=("nested", "bonferroni"))
    p.set_defaults(func=_cmd_ite)

    # an absent flag is absent from `args`; each dest names a config field
    p = sub.add_parser("sweep", help="coverage/length experiment",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--methods")
    p.add_argument("--gammas")
    p.add_argument("--alpha", type=float)
    p.add_argument("--n-train", type=int)
    p.add_argument("--n-target", type=int)
    p.add_argument("--n-trials", type=int)
    p.add_argument("--heteroscedastic", action="store_true")
    p.add_argument("--two-arm", action="store_true")
    p.add_argument("--seed", type=int, dest="base_seed")
    p.add_argument("--out-dir", dest="output_dir")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("calibrate", help="confounding-strength table",
                       parents=[io_flags])
    p.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv=None):
    """Run one subcommand; return the exit code.  Errors print as one
    `error:` line, and each distinct warning (e.g. the CSSA fallback to
    the unconstrained thresholds) as one `warning:` line on stderr."""
    args = build_parser().parse_args(argv)
    status = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a caller's "error" must not apply
        try:
            args.func(args)
        except (ValueError, OSError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
