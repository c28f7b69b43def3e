import math

import numpy as np
import pytest

from trialcraft.errors import ConfigError, DimensionMismatch, EstimationError
from trialcraft.estimators import estimate_unadjusted
from trialcraft.glm import expit
from trialcraft.plans import plan_estimator, plan_from_dict
from trialcraft.simulation import (
    DgpSpec,
    compute_metrics,
    generate_dataset,
    mean_function,
    run_monte_carlo,
    theta_oracle,
    true_theta,
)


def unadjusted_estimator(dataset, seed):
    return estimate_unadjusted(dataset)


class TestDgpSpec:
    def test_null_effect_means_agree_everywhere(self, rng):
        spec = DgpSpec("nul", n=100, p=3, pi=0.5, mechanism="null_effect")
        x = rng.standard_normal((100, 3))
        np.testing.assert_array_equal(mean_function(spec, x, 1), mean_function(spec, x, 0))
        assert true_theta(spec) == 0.0

    def test_linear_continuous_theta_is_effect_size(self):
        spec = DgpSpec("lin", n=50, p=2, pi=0.5, mechanism="linear", effect_size=1.25)
        assert true_theta(spec) == 1.25

    def test_quadratic_continuous_theta_still_analytic(self):
        # the quadratic terms are mean-zero under standard normal covariates
        spec = DgpSpec("quad", n=50, p=2, pi=0.5, mechanism="quadratic", effect_size=0.4)
        assert true_theta(spec) == 0.4
        mc = theta_oracle(spec, draws=2_000_000, seed=1)
        assert abs(mc - 0.4) < 5e-3

    def test_binary_linear_theta_from_oracle_matches_quadrature(self):
        spec = DgpSpec(
            "binlin", n=50, p=3, pi=0.5, outcome_kind="binary",
            mechanism="linear", effect_size=1.0,
        )
        mc = theta_oracle(spec, draws=4_000_000, seed=3)
        # independent 1-D quadrature: u ~ N(0,1), theta = E expit(1+u) - E expit(u)
        grid = np.linspace(-9, 9, 200_001)
        phi = np.exp(-0.5 * grid**2) / math.sqrt(2 * math.pi)
        quad = float(np.trapezoid((expit(1.0 + grid) - expit(grid)) * phi, grid))
        assert abs(mc - quad) < 2e-3

    def test_binary_nonlinear_requires_pinned_theta(self):
        spec = DgpSpec(
            "binquad", n=50, p=2, pi=0.5, outcome_kind="binary", mechanism="quadratic",
            effect_size=0.5,
        )
        with pytest.raises(ConfigError):
            true_theta(spec)
        pinned = DgpSpec(
            "binquad", n=50, p=2, pi=0.5, outcome_kind="binary", mechanism="quadratic",
            effect_size=0.5, true_theta=0.1,
        )
        assert true_theta(pinned) == 0.1

    def test_validation(self):
        with pytest.raises(ConfigError):
            DgpSpec("bad", n=50, p=1, pi=0.5, mechanism="quadratic")
        with pytest.raises(ConfigError):
            DgpSpec("bad", n=50, p=2, pi=0.99)
        with pytest.raises(ConfigError):
            DgpSpec("bad", n=50, p=2, pi=0.5, mechanism="null_effect", true_theta=1.0)


class TestGenerateDataset:
    def test_deterministic_given_seed(self):
        spec = DgpSpec("lin", n=40, p=2, pi=0.5, mechanism="linear", effect_size=0.3)
        a = generate_dataset(spec, 7)
        b = generate_dataset(spec, 7)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.z, b.z)
        np.testing.assert_array_equal(a.x, b.x)

    def test_binary_outcomes_are_binary(self):
        spec = DgpSpec(
            "bin", n=200, p=2, pi=0.4, outcome_kind="binary", mechanism="linear",
            effect_size=0.5,
        )
        d = generate_dataset(spec, 11)
        assert set(np.unique(d.y)) <= {0.0, 1.0}
        assert d.column_names == ("x1", "x2")


class TestComputeMetrics:
    def test_exact_estimates_give_zero_bias_full_coverage(self):
        m = compute_metrics(np.full(10, 2.0), np.full(10, 0.5), 2.0)
        assert m["bias"] == 0.0
        assert m["coverage_95"] == 1.0

    def test_huge_se_gives_full_coverage_no_rejection(self):
        m = compute_metrics(np.array([1.0, -1.0, 0.5]), np.full(3, 1e6), 0.0)
        assert m["coverage_95"] == 1.0
        assert m["rejection_rate"] == 0.0

    def test_five_replicate_hand_computation(self):
        est = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        ses = np.array([0.5, 0.5, 0.5, 10.0, 0.5])
        theta = 3.0
        m = compute_metrics(est, ses, theta)
        assert m["bias"] == pytest.approx(0.0)
        assert m["empirical_sd"] == pytest.approx(math.sqrt(2.5))
        assert m["mc_se_of_bias"] == pytest.approx(math.sqrt(2.5 / 5))
        assert m["mean_estimated_se"] == pytest.approx(2.4)
        # CIs: 1 +- 0.98, ..., covers theta=3 for replicates 3 and 4 only
        assert m["coverage_95"] == pytest.approx(2 / 5)
        # rejects zero unless the interval covers 0: replicate 4 covers 0
        assert m["rejection_rate"] == pytest.approx(4 / 5)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compute_metrics(np.ones(3), np.ones(4), 0.0)


class TestRunMonteCarlo:
    SPEC = DgpSpec("lin", n=60, p=2, pi=0.5, mechanism="linear", effect_size=0.5)

    def test_unadjusted_coverage_near_nominal(self):
        rep = run_monte_carlo(self.SPEC, unadjusted_estimator, 800, master_seed=9)
        se_bin = math.sqrt(0.95 * 0.05 / 800)
        assert abs(rep.coverage_95 - 0.95) <= 3 * se_bin

    def test_paired_relative_efficiency(self):
        plan = plan_from_dict({"estimator": "standardization", "family": "gaussian"})
        rep = run_monte_carlo(
            self.SPEC, plan_estimator(plan), 300, master_seed=13, paired_unadjusted=True
        )
        assert rep.relative_efficiency_vs_unadjusted > 1.2

    def test_failures_tolerated_then_fatal(self):
        calls = {"n": 0}

        def flaky(dataset, seed):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise EstimationError("boom")
            return estimate_unadjusted(dataset)

        with pytest.raises(EstimationError):
            run_monte_carlo(self.SPEC, flaky, 120, master_seed=1)

        def rarely_flaky(dataset, seed):
            calls["n"] += 1
            if calls["n"] == 3:
                raise EstimationError("boom")
            return estimate_unadjusted(dataset)

        calls["n"] = 0
        rep = run_monte_carlo(self.SPEC, rarely_flaky, 120, master_seed=1)
        assert rep.n_failed == 1
        assert rep.failed_indices == (2,)

    def test_seed_streams_distinct(self):
        rep = run_monte_carlo(self.SPEC, unadjusted_estimator, 150, master_seed=2)
        assert len(set(rep.replicate_seeds)) == 150
