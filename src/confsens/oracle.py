"""Ground-truth machinery for validation.

Synthetic data-generating processes with known propensities and outcome
laws, plus tilted rejection sampling that draws counterfactual outcomes
from a concrete law inside the sensitivity class (density ratio to the
observed law bounded by [1/gamma, gamma]).  Truth records are kept in a
separate object that estimation code never sees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ObservationalDataset, write_csv
from .msm import check_gamma

__all__ = [
    "SyntheticDGP",
    "TruthRecord",
    "TiltSpec",
    "generate",
    "tilt_two_sided",
    "sample_counterfactual",
    "sample_counterfactual_batch",
    "sample_target_outcomes",
    "emit_truth_csv",
]


def _logistic_bump(x):
    return 2.0 / (1.0 + np.exp(-5.0 * (x - 0.5)))


@dataclass(frozen=True)
class SyntheticDGP:
    """Uniform covariates, smooth treated-arm mean surface, and a
    propensity driven by the first covariate through a Beta(2, 4) CDF
    (range [0.25, 0.5], so overlap holds with floor 0.25)."""

    covariate_dim: int = 20
    heteroscedastic: bool = False
    two_arm: bool = False  # nonzero control-arm mean surface

    def __post_init__(self):
        # the mean surfaces read covariates 1 and 2, the control arm's also 3
        need = 3 if self.two_arm else 2
        if self.covariate_dim < need:
            raise ValueError(f"covariate_dim must be >= {need}"
                             f"{' with two_arm' if self.two_arm else ''}, "
                             f"got {self.covariate_dim}")

    def propensity(self, x):
        from scipy.special import betainc

        x = np.atleast_2d(x)
        return 0.25 * (1.0 + betainc(2, 4, 1.0 - x[:, 0]))

    def mean_treated(self, x):
        x = np.atleast_2d(x)
        return _logistic_bump(x[:, 0]) * _logistic_bump(x[:, 1])

    def mean_control(self, x):
        x = np.atleast_2d(x)
        if not self.two_arm:
            return np.zeros(x.shape[0])
        return (self.mean_treated(x)
                + 10.0 * np.sin(x[:, 2]) / (1.0 + np.exp(-5.0 * x[:, 2])))


@dataclass(frozen=True)
class TruthRecord:
    """Sealed per-unit ground truth; only the harness scorer may read it."""

    e: np.ndarray
    mu1: np.ndarray
    mu0: np.ndarray
    sigma: np.ndarray


def generate(dgp: SyntheticDGP, n, seed):
    """Draw n observational units plus their sealed truth record."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, dgp.covariate_dim))
    sigma = (rng.uniform(0.5, 1.5, size=n) if dgp.heteroscedastic
             else np.ones(n))
    e = dgp.propensity(x)
    t = (rng.uniform(size=n) < e).astype(int)
    mu1 = dgp.mean_treated(x)
    mu0 = dgp.mean_control(x)
    y1 = mu1 + sigma * rng.standard_normal(n)
    y0 = (mu0 + sigma * rng.standard_normal(n) if dgp.two_arm
          else np.zeros(n))
    y = np.where(t == 1, y1, y0)
    ds = ObservationalDataset(x, t, y)
    return ds, TruthRecord(e=e, mu1=mu1, mu0=mu0, sigma=sigma)


@dataclass(frozen=True)
class TiltSpec:
    """Two-sided quantile tilt for one covariate value.

    The tilting function is 1/gamma between the cut points and gamma
    outside; with cuts at the 1/(2(gamma+1)) and 1 - 1/(2(gamma+1))
    proposal quantiles the normalizer is exactly 1, so the tilted density
    ratio to the proposal stays within [1/gamma, gamma].
    """

    gamma: float
    q_l: float
    q_r: float

    def eta(self, y):
        y = np.asarray(y, dtype=float)
        inside = (y >= self.q_l) & (y <= self.q_r)
        return np.where(inside, 1.0 / self.gamma, self.gamma)

    def accept_prob(self, y):
        return self.eta(y) / self.gamma


def tilt_two_sided(gamma, mean, sigma) -> TiltSpec:
    """Build the adversarial two-sided tilt for one target point, with
    cut points from the normal proposal N(mean, sigma^2)."""
    from scipy.special import ndtri

    check_gamma(gamma)
    z = ndtri(1.0 / (2.0 * (gamma + 1.0)))
    q_l, q_r = mean + sigma * z, mean - sigma * z
    return TiltSpec(gamma=float(gamma), q_l=float(q_l), q_r=float(q_r))


def sample_counterfactual(tilt: TiltSpec, proposal_sampler, rng,
                          max_proposals=1_000_000) -> float:
    """One draw from the tilted counterfactual law by rejection sampling.

    `proposal_sampler(rng, size)` draws from the observed conditional law;
    expected proposals per accepted draw are at most gamma.
    """
    used = 0
    batch = 64
    while used < max_proposals:
        y = np.asarray(proposal_sampler(rng, batch), dtype=float)
        u = rng.uniform(size=batch)
        hit = np.flatnonzero(u < tilt.accept_prob(y))
        used += batch
        if hit.size:
            return float(y[hit[0]])
    raise RuntimeError("rejection sampling failed; tilt invariants violated")


def sample_counterfactual_batch(gamma, mean, sigma, rng) -> np.ndarray:
    """Vectorized tilted draws for many target points at once.

    Normal proposals with analytic cut points; each entry follows the
    adversarial two-sided tilt at its own (mean, sigma).  Rejection
    sampling runs for a fixed number of rounds; entries still unaccepted
    after them are drawn by inverse CDF from the same tilted law, so any
    gamma that `check_gamma` accepts succeeds.
    """
    from scipy.special import ndtri

    check_gamma(gamma)
    mean = np.asarray(mean, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    n = mean.shape[0]
    if gamma == 1.0:
        return mean + sigma * rng.standard_normal(n)
    tau = 1.0 / (2.0 * (gamma + 1.0))  # proposal mass of each tail
    z = ndtri(tau)  # z < 0
    out = np.empty(n)
    todo = np.arange(n)
    p_inside = 1.0 / gamma ** 2
    for _ in range(200):  # acceptance >= 1/gamma per round
        draw = mean[todo] + sigma[todo] * rng.standard_normal(todo.size)
        zscore = (draw - mean[todo]) / sigma[todo]
        inside = (zscore >= z) & (zscore <= -z)
        accept = np.where(inside, p_inside, 1.0) > rng.uniform(size=todo.size)
        out[todo[accept]] = draw[accept]
        todo = todo[~accept]
        if todo.size == 0:
            return out
    # The tilted law is symmetric: its lower half puts mass gamma * tau on
    # the proposal's lower tail (density x gamma) and the rest on the lower
    # centre (density / gamma).  Fold a uniform onto that half, invert its
    # CDF to a proposal quantile and flip the sign for the upper half.
    u = rng.uniform(size=todo.size)
    w = np.minimum(u, 1.0 - u)
    tail = w < gamma * tau
    q = np.where(tail, w / gamma, tau + gamma * (w - gamma * tau))
    zs = np.where(u < 0.5, 1.0, -1.0) * ndtri(q)
    out[todo] = mean[todo] + sigma[todo] * zs
    return out


def sample_target_outcomes(truth: TruthRecord, arm, gamma, rng):
    """Vectorized draws of Y(arm) for all target units under the
    adversarial tilt at `gamma` (factual draws for units landing in the
    arm, tilted counterfactual draws otherwise).  Returns (y, t_drawn)."""
    n = truth.e.shape[0]
    t = (rng.uniform(size=n) < truth.e).astype(int)
    mu = truth.mu1 if arm == 1 else truth.mu0
    factual = t == arm
    y = np.empty(n)
    y[factual] = mu[factual] + truth.sigma[factual] * rng.standard_normal(
        int(factual.sum()))
    cf = ~factual
    if cf.any():
        y[cf] = sample_counterfactual_batch(gamma, mu[cf], truth.sigma[cf],
                                            rng)
    return y, t


def emit_truth_csv(truth: TruthRecord, path) -> None:
    write_csv(path, ["e", "mu1", "mu0", "sigma"],
              ([format(v, ".17g") for v in row] for row in
               zip(truth.e, truth.mu1, truth.mu0, truth.sigma)))
