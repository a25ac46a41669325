"""Distribution-free predictive intervals for individual treatment
effects under bounded unmeasured confounding.

The package builds worst-case weighted conformal intervals over a
marginal sensitivity model: `conformal` holds the unconfounded baseline,
`csa` the greedy worst-case quantile maximization, `cssa` the sharpened
variant with covariate-balancing constraints, `ite` the effect-interval
constructions, `oracle` synthetic ground truth, `pipeline` the per-arm
fits and batch intervals shared by the command line and `harness`, the
experiment driver.
"""

__version__ = "0.1.0"

from .conformal import (
    PredictiveInterval,
    WeightedDiscreteDist,
    score_abs_residual,
    score_cqr,
    weighted_quantile,
)
from .csa import csa_interval, csa_threshold, greedy_max_quantile
from .cssa import cssa_interval, cssa_threshold, solve_fractional
from .dataset import (
    ObservationalDataset,
    arm_indices,
    emit_csv,
    ingest_csv,
    split,
)
from .harness import (
    ExperimentConfig,
    beta_coverage_check,
    run_sweep,
    shrinkage_sharpness,
)
from .ite import bonferroni_ite, nested_ite_fit, nested_ite_predict
from .msm import (
    SensitivitySpec,
    calibrate_gamma,
    gamma_summary,
    min_miscoverage,
    weight_bounds_cross_arm,
    weight_bounds_same_arm,
)
from .oracle import SyntheticDGP, generate, sample_counterfactual, tilt_two_sided
from .pipeline import FittedArm, Fold
from .predictors import (
    KNNMean,
    KNNQuantile,
    LogisticPropensity,
    NeighborSearch,
    fit_mean,
    fit_propensity,
    marginal_treatment_prob,
)
