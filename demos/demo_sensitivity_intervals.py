"""
Worst-case predictive intervals under unmeasured confounding
============================================================

Walks through the core pipeline on synthetic data: generate an
observational dataset, split it, fit the nuisance models, and compute
predictive intervals for the treated potential outcome that stay valid
for every confounding mechanism up to strength gamma.
"""

import numpy as np

from confsens.csa import csa_interval
from confsens.cssa import cssa_interval
from confsens.dataset import arm_indices, split
from confsens.msm import SensitivitySpec, min_miscoverage
from confsens.oracle import SyntheticDGP, generate
from confsens.predictors import (
    fit_mean,
    fit_propensity,
    marginal_treatment_prob,
)

# ------------------------------------------------------------------
# Draw an observational dataset.  Treatment assignment depends on the
# first covariate (propensity between 0.25 and 0.5), and only the first
# two covariates drive the treated-arm outcome.
# ------------------------------------------------------------------
dgp = SyntheticDGP(covariate_dim=10)
ds, truth = generate(dgp, 2000, seed=7)
print(f"dataset: n={ds.n}, p={ds.covariate_dim}, "
      f"treated fraction={ds.treatment.mean():.3f}")

# Split into a preliminary fold (model fitting) and a calibration fold.
prelim_idx, cal_idx = split(ds, seed=0)
prelim = ds.subset(prelim_idx)
cal = ds.subset(cal_idx)

# Fit the nuisances on the preliminary fold only.
t = 1
pre_idx = arm_indices(prelim, t)
cal_idx = arm_indices(cal, t)
mu_hat = fit_mean(prelim.covariates[pre_idx], prelim.outcome[pre_idx],
                  scale="relevance")
propensity = fit_propensity(prelim.covariates, prelim.treatment)
p_t = marginal_treatment_prob(prelim.treatment, t)
cal_x = cal.covariates[cal_idx]
cal_y = cal.outcome[cal_idx]
print(f"calibration arm size: {cal_x.shape[0]}")

# ------------------------------------------------------------------
# Intervals widen as the assumed confounding strength grows.  gamma = 1
# is the unconfounded baseline; larger gamma buys robustness with
# length.
# ------------------------------------------------------------------
x0 = np.full(ds.covariate_dim, 0.5)
print("\nworst-case intervals for Y(1) at the center point:")
for gamma in (1.0, 1.5, 2.0, 3.0, 4.0):
    spec = SensitivitySpec(gamma=gamma, alpha=0.2, t=t)
    c = csa_interval(mu_hat, propensity, cal_x, cal_y, x0, spec, p_t)
    print(f"  gamma={gamma:<4g} [{c.lower:7.3f}, {c.upper:7.3f}] "
          f"width={c.upper - c.lower:.3f}")

# The sharpened variant adds a covariate-balance constraint on the
# candidate weights, which can only shrink the interval.
print("\nsharpened (balance-constrained) intervals:")
for gamma in (1.5, 2.0, 3.0):
    spec = SensitivitySpec(gamma=gamma, alpha=0.2, t=t)
    c = cssa_interval(mu_hat, propensity, cal_x, cal_y, x0, spec, p_t,
                      cal.covariates, cal.treatment)
    print(f"  gamma={gamma:<4g} [{c.lower:7.3f}, {c.upper:7.3f}] "
          f"width={c.upper - c.lower:.3f}")

# ------------------------------------------------------------------
# Feasibility diagnostic: below the minimal miscoverage alpha* no
# finite-length interval exists at all, so check it before choosing
# alpha.
# ------------------------------------------------------------------
e_cal = propensity.predict(cal_x)
e_t = float(propensity.predict(x0.reshape(1, -1))[0])
print("\nminimal achievable miscoverage alpha*:")
for gamma in (1.0, 2.0, 4.0, 8.0):
    a_star = min_miscoverage(e_cal, e_t, gamma, t, p_t)
    print(f"  gamma={gamma:<4g} alpha*={a_star:.5f}")
