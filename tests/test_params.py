"""Unit tests for SyncParams validation and derived quantities."""

import pytest

from repro.core.params import SyncParams
from repro.errors import ConfigurationError


class TestValidation:
    def test_epsilon_bounds(self):
        with pytest.raises(ConfigurationError):
            SyncParams(0.0, 1.0, 0.5, 1.0, 1.0, 0.5, 5.0)
        with pytest.raises(ConfigurationError):
            SyncParams(1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 5.0)

    def test_epsilon_hat_must_dominate(self):
        with pytest.raises(ConfigurationError):
            SyncParams(0.1, 1.0, 0.05, 1.0, 1.0, 0.5, 5.0)

    def test_delay_hat_must_dominate(self):
        with pytest.raises(ConfigurationError):
            SyncParams(0.1, 1.0, 0.1, 0.5, 1.0, 0.5, 5.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            SyncParams(0.1, -1.0, 0.1, 1.0, 1.0, 0.5, 5.0)

    def test_positive_h0_mu_kappa_required(self):
        with pytest.raises(ConfigurationError):
            SyncParams(0.1, 1.0, 0.1, 1.0, 0.0, 0.5, 5.0)
        with pytest.raises(ConfigurationError):
            SyncParams(0.1, 1.0, 0.1, 1.0, 1.0, 0.0, 5.0)
        with pytest.raises(ConfigurationError):
            SyncParams(0.1, 1.0, 0.1, 1.0, 1.0, 0.5, 0.0)


class TestRecommended:
    def test_defaults_are_compliant(self):
        params = SyncParams.recommended(epsilon=0.01, delay_bound=1.0)
        assert params.is_compliant()
        assert params.sigma >= 2

    def test_mu_scales_with_sigma_target(self):
        p2 = SyncParams.recommended(epsilon=0.01, delay_bound=1.0, sigma_target=2)
        p4 = SyncParams.recommended(epsilon=0.01, delay_bound=1.0, sigma_target=4)
        assert p4.mu == pytest.approx(2 * p2.mu)
        assert p4.sigma >= 4

    def test_sigma_target_below_two_rejected(self):
        with pytest.raises(ConfigurationError):
            SyncParams.recommended(epsilon=0.01, delay_bound=1.0, sigma_target=1)

    def test_h0_default_is_delay_over_mu(self):
        params = SyncParams.recommended(epsilon=0.05, delay_bound=2.0)
        assert params.h0 == pytest.approx(2.0 / params.mu)

    def test_zero_delay_needs_explicit_h0(self):
        with pytest.raises(ConfigurationError):
            SyncParams.recommended(epsilon=0.05, delay_bound=0.0)
        params = SyncParams.recommended(epsilon=0.05, delay_bound=0.0, h0=1.0)
        assert params.h0 == 1.0

    def test_kappa_meets_inequality_4(self):
        params = SyncParams.recommended(epsilon=0.05, delay_bound=1.0)
        assert params.kappa >= params.kappa_minimum

    def test_inaccurate_knowledge_enlarges_kappa(self):
        exact = SyncParams.recommended(epsilon=0.05, delay_bound=1.0)
        loose = SyncParams.recommended(
            epsilon=0.05, delay_bound=1.0, epsilon_hat=0.1, delay_bound_hat=2.0
        )
        assert loose.kappa > exact.kappa

    def test_too_small_mu_rejected_via_sigma(self):
        with pytest.raises(ConfigurationError):
            SyncParams.recommended(epsilon=0.1, delay_bound=1.0, mu=0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [{"epsilon": 0.0}, {"epsilon": 1.0}, {"epsilon": -0.1},
         {"epsilon": 0.05, "epsilon_hat": 1.0}, {"epsilon": 0.05, "mu": 0.0}],
        ids=["zero", "one", "negative", "hat-one", "zero-mu"],
    )
    def test_degenerate_inputs_rejected_before_deriving(self, kwargs):
        # μ = 7σε̂/(1 − ε̂) and H0 = T̂/μ would divide by zero first.
        with pytest.raises(ConfigurationError):
            SyncParams.recommended(delay_bound=1.0, **kwargs)


class TestDerived:
    def test_h_bar(self, params):
        expected = (2 * params.epsilon + params.mu) * params.h0
        assert params.h_bar_0 == pytest.approx(expected)

    def test_alpha_beta(self, params):
        assert params.alpha == pytest.approx(1 - params.epsilon)
        assert params.beta == pytest.approx((1 + params.epsilon) * (1 + params.mu))

    def test_sigma_formula(self):
        # mu = 7 * 3 * eps/(1-eps) exactly -> sigma = 3.
        eps = 0.02
        mu = 7 * 3 * eps / (1 - eps)
        params = SyncParams.recommended(epsilon=eps, delay_bound=1.0, mu=mu)
        assert params.sigma == 3

    def test_sigma_infeasible_raises(self):
        params = SyncParams(0.1, 1.0, 0.1, 1.0, 1.0, 0.5, 50.0)
        with pytest.raises(ConfigurationError):
            _ = params.sigma
        assert not params.is_compliant()

    def test_with_overrides(self, params):
        changed = params.with_overrides(kappa=params.kappa * 2)
        assert changed.kappa == pytest.approx(2 * params.kappa)
        assert changed.mu == params.mu

    def test_non_compliant_kappa_detected(self, params):
        broken = params.with_overrides(kappa=params.kappa_minimum / 10)
        assert not broken.is_compliant()
