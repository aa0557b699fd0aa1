import math

import numpy as np
import pytest

from sensoropt import (
    PARAMETER_NAMES,
    Marginal,
    default_prior,
    lognormal_underlying,
    sample_prior,
    validate_config,
)

CONFIG = {"n_dof": 4, "budget": 2, "n_steps": 100, "dt": 0.01, "n_samples": 50, "seed": 1}


class TestDefaultPrior:
    def test_frequency_location(self):
        assert default_prior().omega0.mean == 2 * math.pi
        assert default_prior().omega.mean == 2 * math.pi

    def test_amplitude_spread_is_forty_percent_gravity(self):
        assert default_prior().a0.std == pytest.approx(0.4 * 9.81)
        assert default_prior().a0.mean == 0.0

    def test_damping_marginals(self):
        prior = default_prior()
        assert prior.alpha.mean == 0.1 and prior.alpha.std == 0.01
        assert prior.beta.mean == 1e-4 and prior.beta.std == 1e-5

    def test_roundtrip_through_dict(self):
        # the prior's dict form is the ``prior`` section of a config echo
        prior = default_prior()
        echo = validate_config(dict(CONFIG)).to_dict()["prior"]
        assert validate_config(dict(CONFIG, prior=echo)).prior == prior

    def test_from_dict_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match=r"prior: unknown keys \['zeta'\]"):
            validate_config(dict(CONFIG, prior={"zeta": {"dist": "normal", "mean": 0, "std": 1}}))


class TestMarginal:
    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            Marginal("uniform", 0.0, 1.0)

    def test_nonpositive_spread(self):
        with pytest.raises(ValueError):
            Marginal("normal", 0.0, 0.0)

    @pytest.mark.parametrize("dist, mean, std", [
        ("normal", 0.0, math.nan), ("normal", math.nan, 1.0), ("lognormal", math.nan, 0.5),
    ])
    def test_nan_rejected(self, dist, mean, std):
        with pytest.raises(ValueError):
            Marginal(dist, mean, std)

    def test_lognormal_needs_positive_location(self):
        with pytest.raises(ValueError):
            Marginal("lognormal", -1.0, 0.5)

    def test_implied_moments_lognormal(self):
        m = Marginal("lognormal", 2.0, 0.5)
        mean, std = m.implied_moments()
        assert mean == pytest.approx(2.0 * math.exp(0.125))
        assert std == pytest.approx(mean * math.sqrt(math.expm1(0.25)))


class TestLognormalUnderlying:
    def test_degenerate_point_mass(self):
        mu, sigma = lognormal_underlying(1.0, 1e-12)
        assert mu == pytest.approx(0.0, abs=1e-20)
        assert sigma == pytest.approx(0.0, abs=1e-10)

    def test_closed_form_values(self):
        # evaluated independently at 30 digits
        mu, sigma = lognormal_underlying(2 * math.pi, 0.25)
        assert sigma == pytest.approx(0.039773001443376578, rel=1e-12)
        assert mu == pytest.approx(1.837086120587438066, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lognormal_underlying(-1.0, 0.2)
        with pytest.raises(ValueError):
            lognormal_underlying(1.0, 0.0)
        with pytest.raises(ValueError):
            lognormal_underlying(math.nan, 0.2)

    def test_moment_roundtrip_by_sampling(self):
        mean, std = 3.7, 0.6
        mu, sigma = lognormal_underlying(mean, std)
        rng = np.random.Generator(np.random.PCG64(123))
        draws = rng.lognormal(mu, sigma, size=1_000_000)
        assert np.mean(draws) == pytest.approx(mean, rel=0.01)
        assert np.std(draws) == pytest.approx(std, rel=0.01)


class TestSamplePrior:
    def test_determinism_bit_identical(self):
        prior = default_prior()
        a = sample_prior(prior, 500, seed=99)
        b = sample_prior(prior, 500, seed=99)
        assert np.array_equal(a.values, b.values)

    def test_single_sample(self):
        s = sample_prior(default_prior(), 1, seed=0)
        assert s.n_samples == 1 and len(s) == 1
        assert s.values.shape == (1, 5)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            sample_prior(default_prior(), 0, seed=0)

    def test_location_recovery(self):
        # the sample mean of omega0 must sit within 3 standard errors of
        # the marginal's implied mean
        prior = default_prior()
        s = sample_prior(prior, 1000, seed=5)
        mean, std = prior.omega0.implied_moments()
        se = std / math.sqrt(1000)
        assert abs(np.mean(s.values[:, 0]) - mean) < 3 * se

    def test_moment_recovery_all_marginals(self):
        prior = default_prior()
        n = 100_000
        s = sample_prior(prior, n, seed=17)
        for j, name in enumerate(PARAMETER_NAMES):
            marginal = getattr(prior, name)
            mean, std = marginal.implied_moments()
            col = s.values[:, j]
            se_mean = std / math.sqrt(n)
            assert abs(np.mean(col) - mean) < 4 * se_mean, name
            # normal-approximation standard error of the sample std
            se_std = std / math.sqrt(2 * n)
            tol = 6 * se_std if marginal.dist == "lognormal" else 4 * se_std
            assert abs(np.std(col, ddof=1) - std) < tol, name

    def test_independence_cross_correlations(self):
        s = sample_prior(default_prior(), 100_000, seed=29)
        corr = np.corrcoef(s.values, rowvar=False)
        off = corr - np.diag(np.diag(corr))
        assert np.max(np.abs(off)) < 0.02

    def test_amplitude_floor(self):
        s = sample_prior(default_prior(), 200_000, seed=31)
        assert np.min(np.abs(s.values[:, 4])) >= 1e-6

    def test_values_are_read_only(self):
        s = sample_prior(default_prior(), 3, seed=43)
        with pytest.raises(ValueError):
            s.values[0, 0] = 1.0
