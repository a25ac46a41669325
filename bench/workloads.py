"""The benchmark's workloads and the correctness gate they share.

Each workload drives confsens only through its public functions
(`cli.main`, `cssa.cssa_interval`, `harness.run_sweep`) and draws every
input from the workload seed with `oracle.generate` (and
`dataset.emit_csv` where a CSV is read).  A workload supplies

- `prepare(size, seed, workdir)`: the inputs; this is the timed set-up;
- `run(inputs)`: one pass, one result per operation, where an operation
  that raised yields its exception;
- `outputs(inputs, results)`: the canonical output of each operation,
  compared with the pinned reference;
- `invariants(inputs, results, outputs)`: operations that break one of
  the paper's invariants, checked on every seed;
- `intervals(size)`: intervals delivered per pass.

Sizes are smaller than the paper's because a pass must repeat several
times within one measured run; the `tiny` sizes serve the smoke test.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from confsens import cli, cssa, csa, dataset, harness, msm, oracle, predictors

# relative tolerance for bounded endpoints against the pinned reference
REFERENCE_RTOL = 1e-9
# slack for the order invariants (lower <= upper, CSSA <= CSA, monotone)
ORDER_RTOL = 1e-9

CLI_COMMANDS = (
    ("interval", "--method", "csa"),
    ("interval", "--method", "cssa"),
    ("interval", "--method", "csa", "--score", "cqr"),
    ("ite", "--method", "bonferroni"),
    ("ite", "--method", "nested"),
    ("calibrate",),
)
_CSA, _CSSA = 0, 1
_INTERVAL_OPS = (0, 1, 2)
_ITE_OPS = (3, 4)
_CALIBRATE_OP = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: dict
    tiny: dict
    prepare: Callable
    run: Callable
    outputs: Callable
    invariants: Callable
    intervals: Callable


def _le(a, b):
    """a <= b up to the order slack; infinities compare exactly."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        slack = ORDER_RTOL * np.maximum(1.0, np.abs(b))
        slack = np.where(np.isfinite(slack), slack, 0.0)
        return bool(np.all(a <= b + slack))


def same(got, want):
    """Recursive equality: strings and None exactly, unbounded (infinite)
    values exactly, finite numbers within REFERENCE_RTOL."""
    if isinstance(want, (list, tuple)):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(same(g, w) for g, w in zip(got, want)))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same(got[k], want[k]) for k in want))
    if want is None or isinstance(want, str):
        return got == want
    if isinstance(got, (str, type(None))):
        return False
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= REFERENCE_RTOL * max(1.0, abs(want))


def check(workload, inputs, results, reference=None):
    """{operation index: reason} for every operation that raised, broke an
    invariant, or differs from the reference outputs (when given)."""
    failures = {i: f"raised {r!r}" for i, r in enumerate(results)
                if isinstance(r, BaseException)}
    outputs = workload.outputs(inputs, results)
    for i, reason in workload.invariants(inputs, results, outputs).items():
        failures.setdefault(i, reason)
    if reference is not None:
        for i, (got, want) in enumerate(zip(outputs, reference["outputs"])):
            if not same(got, want):
                failures.setdefault(i, "differs from the pinned reference")
    return failures


def _cell(text):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [[_cell(c) for c in row] for row in csv.reader(fh)]


# --- cli-targets -----------------------------------------------------------
# The CLI subcommands, plus the identity-balanced sharpened interval that the
# CLI does not expose, reached through `cssa.cssa_interval`: the only route
# into the LP solver.

def _cli_prepare(size, seed, workdir):
    dgp = oracle.SyntheticDGP(covariate_dim=size["p"])
    s_data, s_target = np.random.SeedSequence(seed).spawn(2)
    data, _ = oracle.generate(dgp, size["n"],
                              seed=np.random.default_rng(s_data))
    targets, _ = oracle.generate(dgp, size["targets"],
                                 seed=np.random.default_rng(s_target))
    data_csv = os.path.join(workdir, "data.csv")
    target_csv = os.path.join(workdir, "targets.csv")
    dataset.emit_csv(data, data_csv)
    dataset.emit_csv(targets, target_csv)
    ops = []
    for i, (sub, *flags) in enumerate(CLI_COMMANDS):
        out = os.path.join(workdir, f"out{i}.csv")
        argv = [sub, "--data", data_csv, "--out", out]
        if sub != "calibrate":
            argv += ["--target", target_csv, "--gamma", str(size["gamma"]),
                     "--seed", str(seed)]
        ops.append((argv + flags, out))
    return ops, _lp_prepare(size["lp"], seed)


def _cli_run(inputs):
    ops, problems = inputs
    results = []
    with contextlib.redirect_stdout(io.StringIO()):
        for argv, _ in ops:
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:
                results.append(exc)
                continue
            results.append(code if code == 0
                           else RuntimeError(f"exit code {code}"))
    return results + _lp_run(problems)


def _cli_outputs(inputs, results):
    ops, problems = inputs
    k = len(ops)
    return [None if isinstance(r, BaseException) else _read_csv(out)
            for (_, out), r in zip(ops, results)] + \
        _lp_outputs(problems, results[k:])


def _cli_invariants(inputs, results, outputs):
    ops, problems = inputs
    k = len(ops)
    bad = {k + i: reason for i, reason in
           _lp_invariants(problems, results[k:], outputs[k:]).items()}
    for i in _INTERVAL_OPS:
        if outputs[i] is None:
            continue
        for lower, upper, _, unbounded in outputs[i][1:]:
            if bool(unbounded) != (lower is None or upper is None):
                bad[i] = "unbounded flag disagrees with the endpoints"
            elif lower is not None and not _le(lower, upper):
                bad[i] = "lower > upper"
    for i in _ITE_OPS:
        if outputs[i] is None:
            continue
        for row in outputs[i][1:]:
            if row[1] is not None and row[2] is not None \
                    and not _le(row[1], row[2]):
                bad[i] = "lower > upper"
    if outputs[_CSA] is not None and outputs[_CSSA] is not None:
        thr_csa = [row[2] for row in outputs[_CSA][1:]]
        thr_cssa = [row[2] for row in outputs[_CSSA][1:]]
        if not _le(thr_cssa, thr_csa):
            bad.setdefault(_CSSA, "CSSA threshold above CSA")
    if outputs[_CALIBRATE_OP] is not None:
        for _, median, p90, p99 in outputs[_CALIBRATE_OP][1:]:
            if not (_le(1.0, median) and _le(median, p90)
                    and _le(p90, p99)):
                bad[_CALIBRATE_OP] = ("gamma summary not "
                                      "1 <= median <= p90 <= p99")
    return bad


# --- sweep-desk and sweep-wide ----------------------------------------------

def _sweep_prepare(size, seed, workdir):
    return harness.ExperimentConfig(
        methods=size["methods"], gammas=size["gammas"],
        n_train=size["n_train"], n_target=size["n_target"],
        n_trials=size["n_trials"], base_seed=seed,
        output_dir=os.path.join(workdir, "sweep"))


def _sweep_run(cfg):
    try:
        return [harness.run_sweep(cfg, keep_targets=True)]
    except Exception as exc:
        return [exc]


def _sweep_outputs(cfg, results):
    if isinstance(results[0], BaseException):
        return [None]
    return [_read_csv(os.path.join(cfg.output_dir, "summary.csv"))]


def _width(record):
    return record.upper - record.lower


def _sweep_invariants(cfg, results, outputs):
    if outputs[0] is None:
        return {}
    records, _ = results[0]
    by_key = {(r.method, r.gamma, r.trial): r for r in records}
    for r in records:
        bounded = np.isfinite(r.lower) & np.isfinite(r.upper)
        if not _le(r.lower[bounded], r.upper[bounded]):
            return {0: f"lower > upper ({r.method}, gamma={r.gamma})"}
        if not 0.0 <= r.coverage <= 1.0:
            return {0: f"coverage outside [0, 1] ({r.method})"}
    gammas = sorted(cfg.gammas)
    for trial in range(cfg.n_trials):
        for method in ("csa-m", "csa-q"):
            if method not in cfg.methods:
                continue
            for g0, g1 in zip(gammas, gammas[1:]):
                if not _le(_width(by_key[(method, g0, trial)]),
                           _width(by_key[(method, g1, trial)])):
                    return {0: f"{method} width decreases from gamma={g0}"}
        if {"csa-m", "cssa-m"} <= set(cfg.methods):
            for g in gammas:
                if not _le(_width(by_key[("cssa-m", g, trial)]),
                           _width(by_key[("csa-m", g, trial)])):
                    return {0: f"cssa-m wider than csa-m at gamma={g}"}
    return {}


def _sweep_intervals(size):
    return (size["n_target"] * len(size["gammas"]) * len(size["methods"])
            * size["n_trials"])


# --- sharpened intervals through the Python API ----------------------------

_G_KINDS = ("identity", "propensity")


def _lp_prepare(size, seed):
    """Independent small problems whose calibration fold has exactly
    `n_treated` treated and `n_control` control units, so that the size
    of every linear program is fixed and only the data vary with the
    seed.  Each problem has one target, run with both balancing kinds."""
    dgp = oracle.SyntheticDGP(covariate_dim=size["p"])
    spec = msm.SensitivitySpec(gamma=size["gamma"], alpha=size["alpha"], t=1)
    n_pre, n1, n0 = size["n_pre"], size["n_treated"], size["n_control"]
    problems = []
    for ss in np.random.SeedSequence([seed, 1]).spawn(size["problems"]):
        pool, _ = oracle.generate(dgp, n_pre + 4 * (n1 + n0),
                                  seed=np.random.default_rng(ss))
        pre = pool.subset(np.arange(n_pre))
        rest = np.arange(n_pre, pool.n - 1)
        t = pool.treatment[rest]
        treated, control = rest[t == 1][:n1], rest[t == 0][:n0]
        if treated.size < n1 or control.size < n0:
            raise ValueError("pool too small for the calibration fold")
        cal = pool.subset(np.sort(np.concatenate([treated, control])))
        pre_idx = dataset.arm_indices(pre, 1)
        cal_idx = dataset.arm_indices(cal, 1)
        problems.append(dict(
            mu_hat=predictors.fit_mean(pre.covariates[pre_idx],
                                       pre.outcome[pre_idx]),
            propensity=predictors.fit_propensity(pre.covariates,
                                                 pre.treatment),
            cal_x=cal.covariates[cal_idx], cal_y=cal.outcome[cal_idx],
            x_target=pool.covariates[-1], spec=spec,
            p_t=predictors.marginal_treatment_prob(pre.treatment, 1),
            full_x=cal.covariates, full_t=cal.treatment))
    return problems


def _lp_run(problems):
    results = []
    for pr in problems:
        for g_kind in _G_KINDS:
            try:
                results.append(cssa.cssa_interval(
                    pr["mu_hat"], pr["propensity"], pr["cal_x"], pr["cal_y"],
                    pr["x_target"], pr["spec"], pr["p_t"], pr["full_x"],
                    pr["full_t"], g_kind=g_kind))
            except Exception as exc:
                results.append(exc)
    return results


def _lp_outputs(problems, results):
    return [None if isinstance(r, BaseException)
            else [r.lower, r.upper, r.threshold] for r in results]


def _lp_invariants(problems, results, outputs):
    bad = {}
    for p, pr in enumerate(problems):
        unconstrained = csa.csa_interval(
            pr["mu_hat"], pr["propensity"], pr["cal_x"], pr["cal_y"],
            pr["x_target"], pr["spec"], pr["p_t"]).threshold
        for i in range(p * len(_G_KINDS), (p + 1) * len(_G_KINDS)):
            if outputs[i] is None:
                continue
            lower, upper, threshold = outputs[i]
            if lower is not None and upper is not None \
                    and not _le(lower, upper):
                bad[i] = "lower > upper"
            elif not _le(threshold, unconstrained):
                bad[i] = "CSSA threshold above CSA"
    return bad


WORKLOADS = {w.name: w for w in (
    Workload(
        name="cli-targets",
        why="practitioner's per-target path: CLI interval, ite and "
            "calibrate (k-NN dominates) plus identity-balanced CSSA through "
            "the API, the only route into the LP solver",
        size=dict(n=2000, p=20, targets=12, gamma=2.0,
                  lp=dict(problems=8, n_pre=64, n_treated=16, n_control=24,
                          p=5, gamma=2.0, alpha=0.2)),
        tiny=dict(n=240, p=4, targets=3, gamma=2.0,
                  lp=dict(problems=2, n_pre=40, n_treated=8, n_control=12,
                          p=3, gamma=2.0, alpha=0.2)),
        prepare=_cli_prepare, run=_cli_run, outputs=_cli_outputs,
        invariants=_cli_invariants,
        intervals=lambda size: (size["targets"] * len(CLI_COMMANDS)
                                + size["lp"]["problems"] * len(_G_KINDS))),
    Workload(
        name="sweep-desk",
        why="researcher sweep over all six methods: batch solvers, the "
            "CSSA fast path, nested k-NN and oracle draws",
        size=dict(methods=harness.METHODS, gammas=(1.0, 1.5, 2.0, 3.0, 4.0),
                  n_train=500, n_target=500, n_trials=4),
        tiny=dict(methods=harness.METHODS, gammas=(1.0, 2.0), n_train=300,
                  n_target=200, n_trials=1),
        prepare=_sweep_prepare, run=_sweep_run, outputs=_sweep_outputs,
        invariants=_sweep_invariants, intervals=_sweep_intervals),
    Workload(
        name="sweep-wide",
        why="many targets, no CSSA or LP: the k-NN difference tensor and "
            "greedy matrix make it memory-bound",
        size=dict(methods=("csa-m", "csa-q", "ite-nuc"),
                  gammas=(1.0, 1.5, 2.0, 3.0, 4.0), n_train=3000,
                  n_target=1250, n_trials=4),
        tiny=dict(methods=("csa-m", "csa-q", "ite-nuc"), gammas=(1.0, 2.0),
                  n_train=300, n_target=400, n_trials=1),
        prepare=_sweep_prepare, run=_sweep_run, outputs=_sweep_outputs,
        invariants=_sweep_invariants, intervals=_sweep_intervals),
)}
