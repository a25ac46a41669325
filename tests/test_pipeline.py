import pytest

from confsens.oracle import SyntheticDGP, generate
from confsens.pipeline import fit_arms


def test_intervals_refuse_unknown_method():
    ds, _ = generate(SyntheticDGP(covariate_dim=2), 60, seed=0)
    arm = fit_arms(ds, 0, ds.covariates[:3])[1]
    with pytest.raises(ValueError, match="unknown method 'oracle'"):
        arm.intervals(2.0, 0.2, "oracle")
