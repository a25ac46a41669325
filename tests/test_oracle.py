import numpy as np
import pytest
from scipy import special, stats

from confsens.oracle import (
    SyntheticDGP,
    TiltSpec,
    emit_truth_csv,
    generate,
    sample_counterfactual,
    sample_counterfactual_batch,
    sample_target_outcomes,
    tilt_two_sided,
)


class TestDGP:
    def test_mean_surface_hand_values(self):
        dgp = SyntheticDGP()
        x = np.full((1, 20), 0.5)
        # the logistic bump equals 1 at its midpoint, so the product is 1
        assert dgp.mean_treated(x)[0] == pytest.approx(1.0)
        assert dgp.mean_control(x)[0] == 0.0

    def test_propensity_range_and_endpoints(self):
        dgp = SyntheticDGP()
        x = np.zeros((1, 20))
        assert dgp.propensity(x)[0] == pytest.approx(0.5)  # Beta cdf(1) = 1
        x[0, 0] = 1.0
        assert dgp.propensity(x)[0] == pytest.approx(0.25)  # Beta cdf(0) = 0
        rng = np.random.default_rng(0)
        e = dgp.propensity(rng.uniform(size=(500, 20)))
        assert np.all(e >= 0.25) and np.all(e <= 0.5)

    def test_betainc_is_the_beta_cdf_bit_for_bit(self):
        # the propensity calls scipy.special so that import loads no stats
        u = np.concatenate([np.linspace(0.0, 1.0, 100_001), [1e-300],
                            np.random.default_rng(1).uniform(size=100_000)])
        assert np.array_equal(special.betainc(2, 4, u),
                              stats.beta.cdf(u, 2, 4))

    def test_two_arm_control_surface(self):
        dgp = SyntheticDGP(two_arm=True)
        x = np.full((1, 20), 0.5)
        extra = 10.0 * np.sin(0.5) / (1.0 + np.exp(-2.5))
        assert dgp.mean_control(x)[0] == pytest.approx(1.0 + extra)


    @pytest.mark.parametrize("dim, two_arm", [(1, False), (0, False),
                                               (2, True)])
    def test_too_few_covariates_rejected(self, dim, two_arm):
        # the mean surfaces read covariates 1 and 2, the control arm's 3
        with pytest.raises(ValueError, match="covariate_dim must be >="):
            SyntheticDGP(covariate_dim=dim, two_arm=two_arm)
        SyntheticDGP(covariate_dim=3 if two_arm else 2, two_arm=two_arm)


class TestGenerate:
    def test_shapes_and_determinism(self):
        dgp = SyntheticDGP(covariate_dim=6)
        ds1, tr1 = generate(dgp, 50, seed=3)
        ds2, tr2 = generate(dgp, 50, seed=3)
        assert ds1.covariates.shape == (50, 6)
        assert np.array_equal(ds1.outcome, ds2.outcome)
        assert np.array_equal(tr1.e, tr2.e)

    def test_control_outcome_zero_single_arm(self):
        ds, _ = generate(SyntheticDGP(covariate_dim=4), 200, seed=1)
        assert np.all(ds.outcome[ds.treatment == 0] == 0.0)

    def test_homoscedastic_sigma_one(self):
        _, tr = generate(SyntheticDGP(covariate_dim=4), 30, seed=2)
        assert np.all(tr.sigma == 1.0)

    def test_heteroscedastic_sigma_range(self):
        _, tr = generate(SyntheticDGP(covariate_dim=4, heteroscedastic=True),
                         300, seed=2)
        assert np.all((tr.sigma >= 0.5) & (tr.sigma <= 1.5))
        assert tr.sigma.std() > 0.1

    def test_treatment_rate_matches_propensity(self):
        ds, tr = generate(SyntheticDGP(covariate_dim=4), 20000, seed=4)
        assert ds.treatment.mean() == pytest.approx(tr.e.mean(), abs=0.02)

    def test_n_positive(self):
        with pytest.raises(ValueError):
            generate(SyntheticDGP(), 0, seed=0)


class TestTilt:
    def test_normalizer_is_one_analytic(self):
        # integral of eta over the proposal: (1/g) * p_in + g * p_out = 1
        for gamma in (1.5, 2.0, 4.0):
            tilt = tilt_two_sided(gamma, mean=0.0, sigma=1.0)
            tau = 1.0 / (2.0 * (gamma + 1.0))
            p_in = 1.0 - 2.0 * tau
            mass = (1.0 / gamma) * p_in + gamma * (2.0 * tau)
            assert mass == pytest.approx(1.0)
            # so eta / gamma is the acceptance probability, 1 outside the
            # cut points and 1 / gamma ** 2 between them
            inside, outside = tilt.accept_prob([0.0, tilt.q_r + 1.0])
            assert outside == 1.0 and inside == pytest.approx(gamma ** -2)

    def test_cut_points_symmetric(self):
        tilt = tilt_two_sided(2.0, mean=3.0, sigma=2.0)
        assert tilt.q_l + tilt.q_r == pytest.approx(6.0)
        z = stats.norm.ppf(1.0 / 6.0)
        assert tilt.q_l == pytest.approx(3.0 + 2.0 * z)

    def test_ndtri_is_the_normal_ppf_bit_for_bit(self):
        gamma = np.concatenate([[1.0], np.geomspace(1.0 + 1e-6, 1e7, 200_000)])
        tau = 1.0 / (2.0 * (gamma + 1.0))
        assert np.array_equal(special.ndtri(tau), stats.norm.ppf(tau))

    def test_eta_values(self):
        tilt = TiltSpec(gamma=2.0, q_l=-1.0, q_r=1.0)
        assert tilt.eta(0.0) == 0.5
        assert tilt.eta(5.0) == 2.0
        assert tilt.accept_prob(0.0) == pytest.approx(0.25)
        assert tilt.accept_prob(5.0) == pytest.approx(1.0)

    def test_gamma_below_one_error(self):
        with pytest.raises(ValueError):
            tilt_two_sided(0.5, mean=0.0, sigma=1.0)


def _tilted_cdf(gamma):
    """CDF of the two-sided tilt of N(0, 1): density x gamma beyond the
    cut points, each tail of proposal mass tau, and / gamma between."""
    tau = 1.0 / (2.0 * (gamma + 1.0))
    z_cut = stats.norm.ppf(tau)

    def cdf(z):
        return np.where(
            z < z_cut, gamma * stats.norm.cdf(z),
            np.where(z <= -z_cut,
                     gamma * tau + (stats.norm.cdf(z) - tau) / gamma,
                     1.0 - gamma * stats.norm.sf(z)))
    return cdf


class TestRejectionSampling:
    def test_gamma_one_identity_law(self):
        rng = np.random.default_rng(6)
        draws = sample_counterfactual_batch(1.0, np.zeros(50_000),
                                            np.ones(50_000), rng)
        assert stats.kstest(draws, "norm").pvalue > 0.01

    def test_tail_mass_matches_tilt(self):
        # under the tilt each tail carries gamma * tau of the mass
        gamma = 2.0
        tau = 1.0 / (2.0 * (gamma + 1.0))
        rng = np.random.default_rng(7)
        draws = sample_counterfactual_batch(gamma, np.zeros(120_000),
                                            np.ones(120_000), rng)
        z = stats.norm.ppf(tau)
        left = np.mean(draws < z)
        assert left == pytest.approx(gamma * tau, abs=0.01)
        right = np.mean(draws > -z)
        assert right == pytest.approx(gamma * tau, abs=0.01)

    def test_density_ratio_contained(self):
        # histogram density ratio to the proposal stays within [1/g, g]
        gamma = 4.0
        rng = np.random.default_rng(8)
        draws = sample_counterfactual_batch(gamma, np.zeros(200_000),
                                            np.ones(200_000), rng)
        edges = np.linspace(-3, 3, 25)
        counts, _ = np.histogram(draws, edges)
        prop = np.diff(stats.norm.cdf(edges))
        ratio = counts / counts.sum() / prop
        pad = 0.15  # sampling noise allowance
        assert np.all(ratio >= 1.0 / gamma - pad)
        assert np.all(ratio <= gamma + pad)

    def test_scalar_route_matches_batch_law(self):
        gamma = 2.0
        tilt = tilt_two_sided(gamma, mean=1.0, sigma=0.5)
        rng = np.random.default_rng(9)
        scalar = np.array([
            sample_counterfactual(
                tilt, lambda r, k: 1.0 + 0.5 * r.standard_normal(k), rng)
            for _ in range(8000)])
        rng2 = np.random.default_rng(10)
        batch = sample_counterfactual_batch(gamma, np.full(8000, 1.0),
                                            np.full(8000, 0.5), rng2)
        assert stats.ks_2samp(scalar, batch).pvalue > 0.01

    def test_exhaustion_raises(self):
        # every proposal lands between the cuts, where the acceptance
        # probability is 1 / gamma ** 2
        tilt = TiltSpec(gamma=1e8, q_l=-1.0, q_r=1.0)
        rng = np.random.default_rng(11)
        with pytest.raises(RuntimeError):
            sample_counterfactual(tilt, lambda r, k: np.zeros(k), rng)

    @pytest.mark.parametrize("gamma", [50.0, 1e6])
    def test_draws_past_the_round_budget_follow_the_tilt(self, gamma):
        # rounds accept about 1/gamma of the draws, so at 1e6 nearly all
        # and at 50 about 2 % are left to the inverse-CDF draw
        rng = np.random.default_rng(11)
        draws = sample_counterfactual_batch(gamma, np.zeros(100_000),
                                            np.ones(100_000), rng)
        assert np.all(np.isfinite(draws))
        assert stats.kstest(draws, _tilted_cdf(gamma)).pvalue > 0.01

    def test_per_entry_means_respected(self):
        rng = np.random.default_rng(12)
        means = np.array([-5.0, 0.0, 5.0]).repeat(20_000)
        draws = sample_counterfactual_batch(2.0, means, np.ones(means.size),
                                            rng)
        for m in (-5.0, 0.0, 5.0):
            sel = draws[means == m]
            assert np.abs(sel.mean() - m) < 0.05


class TestTruthDraws:
    def test_target_outcomes_shapes(self):
        dgp = SyntheticDGP(covariate_dim=4, two_arm=True)
        _, truth = generate(dgp, 500, seed=14)
        rng = np.random.default_rng(14)
        y, t = sample_target_outcomes(truth, 1, 2.0, rng)
        assert y.shape == (500,) and t.shape == (500,)
        assert set(np.unique(t)) <= {0, 1}

    def test_target_outcomes_gamma_one_marginal(self):
        dgp = SyntheticDGP(covariate_dim=4)
        _, truth = generate(dgp, 30_000, seed=15)
        rng = np.random.default_rng(15)
        y, _ = sample_target_outcomes(truth, 1, 1.0, rng)
        assert y.mean() == pytest.approx(truth.mu1.mean(), abs=0.03)


def test_truth_csv_roundtrip(tmp_path):
    _, truth = generate(SyntheticDGP(covariate_dim=3), 20, seed=16)
    path = tmp_path / "truth.csv"
    emit_truth_csv(truth, path)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], truth.e)
    assert np.array_equal(back[:, 1], truth.mu1)
    assert np.array_equal(back[:, 3], truth.sigma)
