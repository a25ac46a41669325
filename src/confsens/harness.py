"""Experiment driver: coverage/length sweeps over confounding-strength
grids against the synthetic oracle, plus the diagnostics used to judge
them (shrinkage sharpness, per-trial coverage law).

A sweep runs its trials in batches: it draws a batch's training sets,
fits every propensity model of the batch (each trial's fold and, when the
nested method runs, its nested fold) in one batched ascent, then runs the
trials in order, drawing each one's targets when it runs and releasing it
once its records are built.  So it holds one batch's training sets at a
time, and its records equal those of `run_trial`, a batch of one.

Outputs are tidy CSV tables (one row per measurement) and a JSON run
manifest; no plotting.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import asdict, dataclass
from numbers import Integral, Real

import numpy as np

from . import __version__
from .dataset import write_csv
from .ite import NestedFold, bonferroni_ite, nested_ite_predict
from .msm import check_alpha, check_gamma
from .oracle import SyntheticDGP, generate, sample_target_outcomes
from .pipeline import Fold
from .predictors import fit_propensities

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
]

METHODS = ("csa-m", "csa-q", "cssa-m", "ite-nuc", "bonferroni", "nested")

# (solver, score) of each per-arm method; bonferroni spends alpha / 2 per arm
_ARM_METHODS = {"csa-m": ("csa", "mean"), "csa-q": ("csa", "cqr"),
                "cssa-m": ("cssa", "mean"), "ite-nuc": ("nuc", "mean"),
                "bonferroni": ("csa", "mean")}


# each config field's type; the gammas must be numbers too
_FIELD_TYPES = {"methods": (list, tuple), "gammas": (list, tuple),
                "alpha": Real, "n_train": Integral, "n_target": Integral,
                "n_trials": Integral, "heteroscedastic": bool,
                "two_arm": bool, "base_seed": Integral,
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
        for values in (self.methods, self.gammas):
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ValueError(f"repeated method or gamma: {v!r}")
        for name in ("n_train", "n_target", "n_trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        check_alpha(self.alpha)
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))


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
    """One trial: its training set's folds, made when its batch is, and
    its targets, their truth and the arms, made when it runs.  Everything
    is fit once per trial and shared across gammas and methods."""

    def __init__(self, cfg: ExperimentConfig, trial: int):
        self.trial, self.seed = trial, cfg.base_seed + trial
        ss = np.random.SeedSequence(self.seed)
        s_train, self._s_target, s_truth, s_nested = ss.spawn(4)
        self.dgp = SyntheticDGP(heteroscedastic=cfg.heteroscedastic,
                                two_arm=cfg.two_arm)
        train, _ = generate(self.dgp, cfg.n_train,
                            seed=np.random.default_rng(s_train))
        self.fold = Fold(train, self.seed)
        self.nested = (NestedFold(train, s_nested) if "nested" in cfg.methods
                       else None)
        self.folds = [f for f in (self.fold, self.nested) if f is not None]
        self.truth_rng = np.random.default_rng(s_truth)

    def design_bytes(self):
        """Bytes of the folds' propensity designs [x, 1] in float64."""
        return sum(8 * x.shape[0] * (x.shape[1] + 1)
                   for x, _ in (f.fit_rows for f in self.folds))

    def start(self, n_target):
        """Draw the targets and their truth, and the arms at them."""
        target_ds, self.truth = generate(
            self.dgp, n_target, seed=np.random.default_rng(self._s_target))
        self.x_target = target_ds.covariates
        self.arms = self.fold.arms(self.x_target, scale="relevance")

    def draw_tau(self, gamma):
        """One MSM-consistent potential-outcome draw per target unit."""
        y1, _ = sample_target_outcomes(self.truth, 1, gamma, self.truth_rng)
        if not self.dgp.two_arm:
            return y1
        y0, _ = sample_target_outcomes(self.truth, 0, gamma, self.truth_rng)
        return y1 - y0


def _ite_interval(state: _TrialState, gammas, alpha, method):
    """(lower, upper) arrays over the gamma grid and the targets, one row
    per gamma.  A per-arm method gives the interval for Y(1), or the
    difference of the two arms' intervals when the outcome has two arms;
    bonferroni always takes the difference."""
    if method == "nested":
        rows = [nested_ite_predict(model, state.x_target)
                for model in state.nested.model(gammas, alpha)]
        return tuple(np.stack(side) for side in zip(*rows))
    solver, score = _ARM_METHODS[method]
    if method == "bonferroni":
        alpha = alpha / 2.0
    arm1 = state.arms[1].intervals(gammas, alpha, solver, score)
    if method != "bonferroni" and not state.dgp.two_arm:
        return arm1[:2]
    arm0 = state.arms[0].intervals(gammas, alpha, solver, score)
    return bonferroni_ite(arm1, arm0)


# Trials of a sweep share one propensity ascent while their stacked designs
# stay within this many bytes, about 6,000 rows at p = 20.  A small fit's
# cost is interpreter dispatch, which a batch shares, but past the cache the
# products slow down.  ms per fit of B sets of n rows, p = 20, one BLAS
# thread, two runs on a 2-core Xeon with 2 MiB of L2 per core:
#   n = 250:  4.5 (B = 1), 2.2 (4), 1.7-2.3 (8), 1.4-1.5 (16), 1.4 (24)
#   n = 1000: 7.7-8.1 (1), 5.7 (4), 5.6-6.2 (8), 9.0-9.3 (16)
#   n = 1500: 10.5-10.7 (1), 8.8-10.2 (4), 10.8-11.3 (8), 14.6-14.7 (16)
_ASCENT_BYTES = 2 ** 20


def _fit_propensities(folds):
    """Set every fold's propensity from one `fit_propensities` call.  If
    any fold's rows fail the fit's checks, none is set: each fold then
    fits, and refuses, on first use, so the sweep raises the error its
    trials raise one at a time."""
    try:
        models = fit_propensities(*zip(*(fold.fit_rows for fold in folds)))
    except ValueError:
        return
    for fold, model in zip(folds, models):
        fold.propensity = model


def _run_batch(cfg, batch, keep_targets):
    """All (method, gamma) records of a batch of trial states, in trial
    order.  Every fold's propensity comes from one ascent; each trial
    then runs, and leaves the batch once its records are built."""
    _fit_propensities([fold for state in batch for fold in state.folds])
    records = []
    while batch:
        records.extend(_trial_records(cfg, batch.pop(0), keep_targets))
    return records


def _trial_records(cfg, state, keep_targets):
    """One trial's records: each method's intervals are solved for the
    whole gamma grid at once, then the records walk the grid in order,
    one outcome draw per gamma."""
    state.start(cfg.n_target)
    intervals = {method: _ite_interval(state, cfg.gammas, cfg.alpha, method)
                 for method in cfg.methods}
    records = []
    for g, gamma in enumerate(cfg.gammas):
        tau = state.draw_tau(gamma)
        for method in cfg.methods:
            lower, upper = (side[g] for side in intervals[method])
            cov, width, n_unb = _coverage_and_width(lower, upper, tau)
            records.append(TrialRecord(
                method=method, gamma=gamma, trial=state.trial,
                seed=state.seed, coverage=cov, mean_width=width,
                n_unbounded=n_unb, n_target=cfg.n_target,
                lower=lower if keep_targets else None,
                upper=upper if keep_targets else None,
                tau=tau if keep_targets else None))
    return records


def run_trial(cfg: ExperimentConfig, trial: int, keep_targets=False):
    """All (method, gamma) records for one trial: a sweep's batch of one."""
    return _run_batch(cfg, [_TrialState(cfg, trial)], keep_targets)


def run_sweep(cfg: ExperimentConfig, keep_targets=False):
    """Run all trials; optionally write tidy CSV + manifest outputs.

    Trials run in batches whose propensity designs stack to at most
    `_ASCENT_BYTES` (one trial at least), so a batch's propensity models
    come from one ascent, and the sweep holds the training sets of one
    batch at a time.  The records equal those of `run_trial` per trial."""
    records = []
    trials = iter(range(cfg.n_trials))
    for trial in trials:
        batch = [_TrialState(cfg, trial)]
        # empty fit sets (n_train = 1) have no bytes; their folds refuse
        size = _ASCENT_BYTES // max(batch[0].design_bytes(), 1)
        batch += [_TrialState(cfg, t)
                  for t in itertools.islice(trials, max(size, 1) - 1)]
        records.extend(_run_batch(cfg, batch, keep_targets))
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
        "seeds": [cfg.base_seed + i for i in range(cfg.n_trials)],
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
    factors = np.round(np.linspace(0.0, 0.3, 31), 4)
    cov = np.mean(dev <= (1.0 - factors[:, None]) * half, axis=1)
    kept = factors[cov >= 1.0 - alpha].tolist()
    return (list(zip(factors.tolist(), cov.tolist())),
            kept[-1] if kept else None, n_excluded)


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
    from scipy.special import ndtr

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
        per_target = 2.0 * ndtr(thr / sig_target) - 1.0
        coverages[i] = float(per_target.mean())
    return coverages


def beta_coverage_check(coverages, n_cal, alpha):
    """Kolmogorov-Smirnov test of per-trial coverages against
    Beta(n_cal + 1 - floor((n_cal+1) alpha), floor((n_cal+1) alpha)).

    Returns (statistic, p_value, passed), passed at a p-value of at least
    1 %; requires >= 50 trials, each with an independent calibration draw.
    """
    from scipy import stats

    coverages = np.asarray(coverages, dtype=float)
    if coverages.size < 50:
        raise ValueError("need at least 50 independent trials")
    b = int(np.floor((n_cal + 1) * alpha))
    a = n_cal + 1 - b
    stat, pvalue = stats.kstest(coverages, stats.beta(a, b).cdf)
    return float(stat), float(pvalue), bool(pvalue >= 0.01)

