"""Experiment driver: coverage/length sweeps over confounding-strength
grids against the synthetic oracle, plus the diagnostics used to judge
them (shrinkage sharpness, per-trial coverage law, positivity fractions,
propensity-estimation slack).

Outputs are tidy CSV tables (one row per measurement) and a JSON run
manifest; no plotting.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from functools import cached_property
from numbers import Integral, Real

import numpy as np
from scipy import stats

from . import __version__
from .dataset import write_csv
from .ite import NestedFold, bonferroni_ite, nested_ite_predict
from .msm import check_alpha, check_gamma, weight_bounds_same_arm
from .oracle import SyntheticDGP, generate, sample_target_outcomes
from .pipeline import fit_arms

__all__ = [
    "METHODS",
    "ExperimentConfig",
    "TrialRecord",
    "run_trial",
    "run_sweep",
    "summarize",
    "write_outputs",
    "shrinkage_sharpness",
    "beta_coverage_trials",
    "beta_coverage_check",
    "positivity_summary",
    "delta_slack_diagnostic",
]

METHODS = ("csa-m", "csa-q", "cssa-m", "ite-nuc", "bonferroni", "nested")

_PAPER_SIZES = (3000, 10000, 100)

# (solver, score) of each per-arm method; bonferroni spends alpha / 2 per arm
_ARM_METHODS = {"csa-m": ("csa", "mean"), "csa-q": ("csa", "cqr"),
                "cssa-m": ("cssa", "mean"), "ite-nuc": ("nuc", "mean"),
                "bonferroni": ("csa", "mean")}


# each config field's type; the gammas must be numbers too
_FIELD_TYPES = {"methods": (list, tuple), "gammas": (list, tuple),
                "alpha": Real, "n_train": Integral, "n_target": Integral,
                "n_trials": Integral, "heteroscedastic": bool,
                "two_arm": bool, "base_seed": Integral, "paper_scale": bool,
                "output_dir": (str, type(None))}


def _check_type(name, value, kind):
    """Raise ValueError unless value is a `kind`; a bool is no number."""
    if not isinstance(value, kind) or (isinstance(value, bool)
                                       and kind is not bool):
        raise ValueError(f"{name} has the wrong type: {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative sweep description; fully determines all randomness."""

    methods: tuple = ("csa-m", "ite-nuc")
    gammas: tuple = (1.0, 1.5, 2.0, 3.0, 4.0)
    alpha: float = 0.2
    n_train: int = 2000
    n_target: int = 2000
    n_trials: int = 20
    heteroscedastic: bool = False
    two_arm: bool = False
    base_seed: int = 0
    paper_scale: bool = False
    output_dir: str | None = None

    def __post_init__(self):
        for name, kind in _FIELD_TYPES.items():
            _check_type(name, getattr(self, name), kind)
        if not self.methods or not self.gammas:
            raise ValueError("methods and gammas must not be empty")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        for g in self.gammas:
            _check_type("gammas", g, Real)
            check_gamma(g)
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        check_alpha(self.alpha)
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))

    @property
    def sizes(self):
        """(n_train, n_target, n_trials) after the paper-scale override."""
        if self.paper_scale:
            return _PAPER_SIZES
        return (self.n_train, self.n_target, self.n_trials)


@dataclass(frozen=True)
class TrialRecord:
    """Per-(method, gamma, trial) aggregates plus optional raw arrays."""

    method: str
    gamma: float
    trial: int
    seed: int
    coverage: float
    mean_width: float
    n_unbounded: int
    n_target: int
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    tau: np.ndarray | None = None


def _coverage_and_width(lower, upper, tau):
    """Aggregate arrays with possibly infinite endpoints; an unbounded
    side always covers, and unbounded intervals are excluded from the
    width mean (their count is reported)."""
    covered = ((~np.isfinite(lower)) | (tau >= lower)) & \
              ((~np.isfinite(upper)) | (tau <= upper))
    bounded = np.isfinite(lower) & np.isfinite(upper)
    widths = upper[bounded] - lower[bounded]
    mean_width = float(widths.mean()) if widths.size else np.nan
    return float(covered.mean()), mean_width, int((~bounded).sum())


class _TrialState:
    """Everything fit once per trial and shared across gammas/methods."""

    def __init__(self, cfg: ExperimentConfig, trial: int):
        n_train, n_target, _ = cfg.sizes
        self.seed = cfg.base_seed + trial
        ss = np.random.SeedSequence(self.seed)
        s_train, s_target, s_truth, s_nested = ss.spawn(4)
        dgp = SyntheticDGP(heteroscedastic=cfg.heteroscedastic,
                           two_arm=cfg.two_arm)
        self.dgp = dgp
        self.train, _ = generate(dgp, n_train,
                                 seed=np.random.default_rng(s_train))
        target_ds, self.truth = generate(
            dgp, n_target, seed=np.random.default_rng(s_target))
        self.x_target = target_ds.covariates
        self.truth_rng = np.random.default_rng(s_truth)
        self.nested_seed = s_nested
        self.arms = fit_arms(self.train, self.seed, scale="relevance")

    @cached_property
    def nested(self):
        """The nested stage's fold, fit on first use and shared by gammas."""
        return NestedFold(self.train, self.nested_seed)

    def draw_tau(self, gamma):
        """One MSM-consistent potential-outcome draw per target unit."""
        y1, _ = sample_target_outcomes(self.truth, 1, gamma, self.truth_rng)
        if not self.dgp.two_arm:
            return y1
        y0, _ = sample_target_outcomes(self.truth, 0, gamma, self.truth_rng)
        return y1 - y0


def _ite_interval(state: _TrialState, gamma, alpha, method):
    """(lower, upper) arrays over the targets.  A per-arm method gives the
    interval for Y(1), or the difference of the two arms' intervals when
    the outcome has two arms; bonferroni always takes the difference."""
    if method == "nested":
        return nested_ite_predict(state.nested.model(gamma, alpha),
                                  state.x_target)
    solver, score = _ARM_METHODS[method]
    if method == "bonferroni":
        alpha = alpha / 2.0
    arm1 = state.arms[1].intervals(state.x_target, gamma, alpha, solver,
                                   score)
    if method != "bonferroni" and not state.dgp.two_arm:
        return arm1[:2]
    arm0 = state.arms[0].intervals(state.x_target, gamma, alpha, solver,
                                   score)
    return bonferroni_ite(arm1, arm0)


def run_trial(cfg: ExperimentConfig, trial: int, keep_targets=False):
    """All (method, gamma) records for one trial; models are fit once."""
    state = _TrialState(cfg, trial)
    n_target = state.x_target.shape[0]
    records = []
    for gamma in cfg.gammas:
        tau = state.draw_tau(gamma)
        for method in cfg.methods:
            lower, upper = _ite_interval(state, gamma, cfg.alpha, method)
            cov, width, n_unb = _coverage_and_width(lower, upper, tau)
            records.append(TrialRecord(
                method=method, gamma=gamma, trial=trial, seed=state.seed,
                coverage=cov, mean_width=width, n_unbounded=n_unb,
                n_target=n_target,
                lower=lower if keep_targets else None,
                upper=upper if keep_targets else None,
                tau=tau if keep_targets else None))
    return records


def run_sweep(cfg: ExperimentConfig, keep_targets=False):
    """Run all trials; optionally write tidy CSV + manifest outputs."""
    _, _, n_trials = cfg.sizes
    records = []
    for trial in range(n_trials):
        records.extend(run_trial(cfg, trial, keep_targets=keep_targets))
    summary = summarize(records)
    if cfg.output_dir is not None:
        write_outputs(cfg, records, summary)
    return records, summary


def summarize(records):
    """One row per (method, gamma): coverage/width mean and sd across
    trials, plus the total count of unbounded intervals."""
    keys = sorted({(r.method, r.gamma) for r in records})
    rows = []
    for method, gamma in keys:
        sel = [r for r in records if r.method == method and r.gamma == gamma]
        cov = np.array([r.coverage for r in sel])
        width = np.array([r.mean_width for r in sel])
        width = width[np.isfinite(width)]
        rows.append({
            "method": method,
            "gamma": gamma,
            "coverage_mean": float(cov.mean()),
            "coverage_sd": float(cov.std(ddof=1)) if cov.size > 1 else 0.0,
            "width_mean": float(width.mean()) if width.size else np.nan,
            "width_sd": (float(width.std(ddof=1)) if width.size > 1 else 0.0),
            "n_unbounded": int(sum(r.n_unbounded for r in sel)),
            "n_trials": len(sel),
        })
    return rows


def write_outputs(cfg: ExperimentConfig, records, summary):
    os.makedirs(cfg.output_dir, exist_ok=True)
    write_csv(os.path.join(cfg.output_dir, "records.csv"),
              ["method", "gamma", "trial", "seed", "coverage", "mean_width",
               "n_unbounded", "n_target"],
              ([r.method, r.gamma, r.trial, r.seed, format(r.coverage, ".17g"),
                format(r.mean_width, ".17g"), r.n_unbounded, r.n_target]
               for r in records))
    header = list(summary[0])
    write_csv(os.path.join(cfg.output_dir, "summary.csv"), header,
              ([row[k] for k in header] for row in summary))
    manifest = {
        "config": asdict(cfg),
        "resolved_sizes": dict(zip(("n_train", "n_target", "n_trials"),
                                   cfg.sizes)),
        "seeds": [cfg.base_seed + i for i in range(cfg.sizes[2])],
        "versions": {
            "confsens": __version__,
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
        },
    }
    with open(os.path.join(cfg.output_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def shrinkage_sharpness(lower, upper, tau, alpha):
    """Coverage after shrinking interval length by each factor 0, 0.01,
    ..., 0.3 (centers fixed).  Returns (table, max_factor_preserving,
    n_excluded) where the table rows are (factor, coverage) and unbounded
    intervals are dropped.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    tau = np.asarray(tau, dtype=float)
    bounded = np.isfinite(lower) & np.isfinite(upper)
    n_excluded = int((~bounded).sum())
    center = (lower[bounded] + upper[bounded]) / 2.0
    half = (upper[bounded] - lower[bounded]) / 2.0
    dev = np.abs(tau[bounded] - center)
    table = []
    max_factor = None
    for f in np.round(np.linspace(0.0, 0.3, 31), 4):
        cov = float(np.mean(dev <= (1.0 - f) * half))
        table.append((float(f), cov))
        if cov >= 1.0 - alpha:
            max_factor = float(f)
    return table, max_factor, n_excluded


def beta_coverage_trials(n_cal, n_trials, alpha, seed=0, shifted=False):
    """Per-trial coverages of split conformal at 4000 targets, with a fresh
    calibration draw each trial, for checking the finite-sample coverage law.

    Scores are sigma(x) * |N(0, 1)| with sigma(x) = 0.5 + x.  In the
    reference run calibration and target share the covariate law, so the
    threshold is the plain conformal order statistic and each trial's
    coverage (computed in closed form from the known score law) follows
    Beta(n_cal + 1 - floor((n_cal+1) alpha), floor((n_cal+1) alpha)).
    With `shifted=True` the calibration covariates are tilted while the
    weights stay uniform — the negative control that breaks the law.
    """
    rng = np.random.default_rng(seed)
    coverages = np.empty(n_trials)
    x_target = rng.uniform(size=4000)
    sig_target = 0.5 + x_target
    for i in range(n_trials):
        u = rng.uniform(size=n_cal)
        x_cal = u ** (1.0 / 3.0) if shifted else u  # tilt density 3x^2
        scores = (0.5 + x_cal) * np.abs(rng.standard_normal(n_cal))
        k = int(np.ceil((1.0 - alpha) * (n_cal + 1)))
        thr = np.sort(scores)[k - 1] if k <= n_cal else np.inf
        # exact per-target coverage of [..] given the threshold
        per_target = 2.0 * stats.norm.cdf(thr / sig_target) - 1.0
        coverages[i] = float(per_target.mean())
    return coverages


def beta_coverage_check(coverages, n_cal, alpha, level=0.01):
    """Kolmogorov-Smirnov test of per-trial coverages against
    Beta(n_cal + 1 - floor((n_cal+1) alpha), floor((n_cal+1) alpha)).

    Returns (statistic, p_value, passed); requires >= 50 trials, each with
    an independent calibration draw.
    """
    coverages = np.asarray(coverages, dtype=float)
    if coverages.size < 50:
        raise ValueError("need at least 50 independent trials")
    b = int(np.floor((n_cal + 1) * alpha))
    a = n_cal + 1 - b
    stat, pvalue = stats.kstest(coverages, stats.beta(a, b).cdf)
    return float(stat), float(pvalue), bool(pvalue >= level)


def positivity_summary(lower, upper):
    """(fraction of all-positive intervals, fraction of all-negative);
    intervals with an unbounded side count as neither."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = lower.shape[0]
    if n == 0:
        return 0.0, 0.0
    bounded = np.isfinite(lower) & np.isfinite(upper)
    pos = bounded & (lower > 0)
    neg = bounded & (upper < 0)
    return float(pos.mean()), float(neg.mean())


def delta_slack_diagnostic(e_true, e_hat, gamma, t, p_t) -> float:
    """Monte Carlo slack from propensity estimation:
    (gamma / 2) * E|w(e_hat) - w(e_true)| over the arm-t covariate draws
    supplied, with w = p_t / arm_prob the gamma = 1 conformal weight."""
    if e_true is None:
        raise ValueError("requires oracle truth records")
    w_true, _ = weight_bounds_same_arm(e_true, 1.0, t, p_t)
    w_hat, _ = weight_bounds_same_arm(e_hat, 1.0, t, p_t)
    return float(gamma / 2.0 * np.mean(np.abs(w_hat - w_true)))
