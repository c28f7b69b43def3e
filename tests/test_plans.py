import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import simulate_trial
from trialcraft import estimators
from trialcraft.data import TrialDataset
from trialcraft.errors import ConfigError, TrialcraftError
from trialcraft.glm import GlmFamily
from trialcraft.plans import (
    ESTIMATORS,
    execute_plan,
    plan_from_dict,
    plan_hash,
    plan_to_dict,
    simulation_spec_from_dict,
    validate_plan,
)
from trialcraft.simulation import DgpSpec, generate_dataset

ALL_ESTIMATOR_PLANS = {
    "unadjusted": {"estimator": "unadjusted"},
    "standardization": {"estimator": "standardization", "family": "gaussian"},
    "data_adaptive": {
        "estimator": "data_adaptive", "family": "gaussian",
        "selection": {"method": "stepwise_aic"},
    },
    "tmle": {"estimator": "tmle", "family": "gaussian",
             "selection": {"method": "none"}},
    "crossfit_aipw": {
        "estimator": "crossfit_aipw", "family": "gaussian",
        "pi": {"mode": "estimated_per_fold"},
        "folds": {"k": 3, "seed": 2, "stratified": True},
        "learner": {"name": "constant", "params": {}},
    },
    "cvtmle": {
        "estimator": "cvtmle", "family": "gaussian",
        "folds": {"k": 3, "seed": 2, "stratified": True},
        "learner": {"name": "ridge", "params": {}},
    },
    "strong_null": {"estimator": "strong_null", "family": "gaussian",
                    "learner": {"name": "knn", "params": {"k": 5}}},
    "crossfit_aipw_parametric_ps": {
        "estimator": "crossfit_aipw_parametric_ps", "family": "gaussian",
        "pi": {"mode": "parametric", "ps_columns": ["x1"]},
        "folds": {"k": 3, "seed": 2, "stratified": True},
        "learner": {"name": "constant", "params": {}},
    },
}


class TestDispatch:
    def test_plans_cover_every_estimator(self):
        assert set(ALL_ESTIMATOR_PLANS) == set(ESTIMATORS)

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_each_row_reads_what_its_function_takes(self, name):
        rules = ESTIMATORS[name]
        dataset, *keywords = inspect.signature(getattr(estimators, rules.function)).parameters
        assert dataset == "d" and sorted(rules.reads) == sorted(keywords)

    @pytest.mark.parametrize("name", list(ALL_ESTIMATOR_PLANS))
    def test_every_estimator_runs(self, name, rng):
        plan = plan_from_dict(ALL_ESTIMATOR_PLANS[name])
        d = simulate_trial(rng, n=80)
        result = execute_plan(d, plan)
        assert np.isfinite(result.theta_hat)
        assert result.se >= 0

    def test_contrast_applied(self, rng):
        d = simulate_trial(rng, n=100, family=__import__("trialcraft").GlmFamily.BINOMIAL)
        plan = plan_from_dict({
            "estimator": "standardization", "family": "binomial",
            "contrast": "log_odds_ratio",
        })
        r = execute_plan(d, plan)
        assert r.method.endswith("log_odds_ratio")

    def test_per_replicate_seed_changes_folds(self, rng):
        d = simulate_trial(rng, n=60)
        plan = plan_from_dict(ALL_ESTIMATOR_PLANS["crossfit_aipw"])
        a = execute_plan(d, plan, seed=1)
        b = execute_plan(d, plan, seed=2)
        c = execute_plan(d, plan, seed=1)
        assert a.theta_hat == c.theta_hat
        assert a.theta_hat != b.theta_hat  # different fold split

    def test_plan_seed_used_when_no_override(self, rng):
        d = simulate_trial(rng, n=60)
        plan = plan_from_dict(ALL_ESTIMATOR_PLANS["crossfit_aipw"])
        a = execute_plan(d, plan)
        b = execute_plan(d, plan)
        assert a.theta_hat == b.theta_hat


class TestAffineOutcome:
    """theta and SE follow the outcome under y -> a y + b (Gaussian), for
    every estimator through execute_plan, each plan setting only the fields
    its ESTIMATORS row reads. Selection is `none`: lasso_cv's CV
    curve can tie, and rounding of the moved outcome can break the tie the
    other way; stepwise_aic's Gaussian AIC depends on the outcome's units
    (the xfail in test_selection)."""

    DGP = DgpSpec("affine", n=80, p=2, pi=0.5, mechanism="quadratic", effect_size=0.5)

    @settings(max_examples=100)
    @given(
        st.sampled_from(sorted(ESTIMATORS)),
        st.sampled_from(["wrong_model", "knn", "constant", "ridge"]),
        st.floats(0.01, 100) | st.floats(-100, -0.01),
        st.floats(-100, 100),
        st.integers(0, 2**32 - 1),
    )
    def test_theta_and_se_follow_the_outcome(self, estimator, learner, a, b, seed):
        fields = {
            "learner": learner, "selection": {"method": "none"}, "folds": {"k": 3, "seed": 1},
            **({"pi": {"mode": "parametric", "ps_columns": ["x1"]}}
               if estimator == "crossfit_aipw_parametric_ps" else {}),
        }
        reads = ESTIMATORS[estimator].reads
        plan = plan_from_dict({"estimator": estimator, "family": "gaussian",
                               **{k: v for k, v in fields.items() if k in reads}})
        d = generate_dataset(self.DGP, seed)
        r = execute_plan(d, plan)
        moved = execute_plan(TrialDataset(a * d.y + b, d.z, d.x, d.column_names), plan)
        tol = 1e-9 * (abs(a) + abs(b)) * max(1.0, float(np.abs(d.y).max()))
        assert math.isclose(moved.theta_hat, a * r.theta_hat, rel_tol=1e-9, abs_tol=tol)
        assert math.isclose(moved.se, abs(a) * r.se, rel_tol=1e-9, abs_tol=tol)


class TestArmRelabelling:
    """Swapping the arms (z -> 1 - z) negates theta and keeps the SE, for
    the cross-fit estimators (crossfit_aipw, cvtmle and
    crossfit_aipw_parametric_ps) through execute_plan. Left out: stratified folds, whose
    assignment depends on z; `ridge` and `post_lasso`, whose internal CV
    seeds come from (seed, fold, arm), so a swapped arm's learner draws other
    CV folds. With known pi = 0.5 the swap is exact. A per-fold pi is exact
    only to rounding: arm 0 enters through 1 - mean(z), and after the swap
    through mean(z') = mean(1 - z), which can differ from it in the last bit."""

    @settings(max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(40, 160),
        st.sampled_from(["knn", "constant", "wrong_model"]),
        st.sampled_from([{"mode": "known", "value": 0.5}, {"mode": "estimated_per_fold"}]),
    )
    def test_swapped_arms_negate_theta(self, seed, n, learner, pi):
        plan = plan_from_dict({
            "estimator": "crossfit_aipw", "family": "gaussian", "learner": learner, "pi": pi,
            "folds": {"k": 5, "seed": seed, "stratified": False},
        })
        d = simulate_trial(np.random.default_rng(seed), n=n)
        swapped = TrialDataset(d.y, 1.0 - d.z, d.x, d.column_names)
        try:
            r = execute_plan(d, plan)
        except TrialcraftError as exc:
            with pytest.raises(type(exc)):
                execute_plan(swapped, plan)
            return
        s = execute_plan(swapped, plan)
        if pi["mode"] == "known":
            assert (s.theta_hat, s.se) == (-r.theta_hat, r.se)
        else:
            scale = max(1.0, float(np.abs(d.y).max()))
            assert math.isclose(s.theta_hat, -r.theta_hat, rel_tol=1e-12, abs_tol=1e-12 * scale)
            assert math.isclose(s.se, r.se, rel_tol=1e-12)


    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(40, 227),
        st.sampled_from(["knn", "constant", "wrong_model"]),
        st.sampled_from([("cvtmle", None), ("cvtmle", {"mode": "known", "value": 0.5}),
                         ("cvtmle", {"mode": "estimated_overall"}),
                         ("crossfit_aipw_parametric_ps", {"mode": "parametric", "ps_columns": []}),
                         ("crossfit_aipw_parametric_ps",
                          {"mode": "parametric", "ps_columns": ["x1", "x3"]})]),
        st.sampled_from(["gaussian", "binomial"]),
    )
    def test_cvtmle_and_parametric_ps_negate_theta_and_keep_se(self, seed, n, learner, case,
                                                                family):
        """The same swap for cvtmle (pi unset, known 0.5 or estimated
        overall) and for cross-fit AIPW with a logistic propensity model on
        no columns or on two. Measured envelope over these 5 plans x 3
        learners x 2 families at p = 5, n from 40 to 227 and 60 seeds (1,764
        runs): cvtmle gave |theta + theta'| = 0 and |se - se'| <= 4.3e-16
        relative to se; the propensity model, refitted on 1 - z, gave
        |theta + theta'| <= 6.7e-16 relative to max(1, |theta|) and
        |se - se'| <= 9.1e-16 relative to se. The tolerances leave about 20
        times that."""
        estimator, pi = case
        plan = plan_from_dict({
            "estimator": estimator, "family": family, "learner": learner,
            "folds": {"k": 5, "seed": seed, "stratified": False}, **({"pi": pi} if pi else {}),
        })
        d = simulate_trial(np.random.default_rng(seed), n=n, p=5, family=GlmFamily(family))
        swapped = TrialDataset(d.y, 1.0 - d.z, d.x, d.column_names)
        try:
            r = execute_plan(d, plan)
        except TrialcraftError as exc:
            with pytest.raises(type(exc)):
                execute_plan(swapped, plan)
            return
        s = execute_plan(swapped, plan)
        assert abs(s.theta_hat + r.theta_hat) <= 2e-14 * max(1.0, abs(r.theta_hat))
        assert math.isclose(s.se, r.se, rel_tol=2e-14)


class TestArmRelabellingAllEstimators:
    """Swapping the arms (z -> 1 - z) negates theta and keeps the SE, through
    execute_plan in both families, for every estimator whose folds and CV
    seeds are not keyed by arm: unadjusted, standardization, data_adaptive
    and tmle with selection `none` or `stepwise_aic`, and strong_null (GLM
    and knn), with pi unset, known 0.5 or estimated overall. Each plan sets
    only the fields its ESTIMATORS row reads. Measured envelope over these
    12 plans x 3 pis x 2 families at p = 5, n from 40 to 227 and 12 seeds
    (576 runs): |theta + theta'| <= 1.1e-16 relative to max(1, |theta|)
    and |se - se'| <= 4.1e-16 relative to se; the tolerances leave about
    50 times that."""

    CASES = [("unadjusted", None, None), ("standardization", None, None),
             *((name, method, None) for name in ("data_adaptive", "tmle")
               for method in ("none", "stepwise_aic")),
             ("strong_null", None, None), ("strong_null", None, "knn")]

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(CASES),
        st.sampled_from([None, {"mode": "known", "value": 0.5}, {"mode": "estimated_overall"}]),
        st.sampled_from(["gaussian", "binomial"]),
        st.integers(0, 2**32 - 1),
        st.integers(40, 227),
    )
    def test_swapped_arms_negate_theta_and_keep_se(self, case, pi, family, seed, n):
        estimator, method, learner = case
        fields = {"selection": method and {"method": method}, "learner": learner, "pi": pi}
        reads = ESTIMATORS[estimator].reads
        plan = plan_from_dict({"estimator": estimator, "family": family,
                               **{k: v for k, v in fields.items() if k in reads and v}})
        d = simulate_trial(np.random.default_rng(seed), n=n, p=5, family=GlmFamily(family))
        swapped = TrialDataset(d.y, 1.0 - d.z, d.x, d.column_names)
        try:
            r = execute_plan(d, plan)
        except TrialcraftError as exc:
            with pytest.raises(type(exc)):
                execute_plan(swapped, plan)
            return
        s = execute_plan(swapped, plan)
        assert abs(s.theta_hat + r.theta_hat) <= 5e-15 * max(1.0, abs(r.theta_hat))
        assert math.isclose(s.se, r.se, rel_tol=2e-14)


class TestRowOrder:
    """Permuting the rows leaves theta and the SE unchanged to rounding, for
    every estimator whose result does not depend on row positions, through
    execute_plan in both families. Left out: the cross-fit estimators, whose
    folds are drawn by row position, and lasso_cv, whose CV folds are too.
    Measured envelope of these plans at p = 5: 3.3e-16 in theta and 2.8e-17
    in the SE at n = 250 over 10 seeds, and 5.6e-16 and 5.6e-17 at n from 40
    to 250 over 40 seeds; the tolerances leave about 20 times that."""

    PLANS = [
        {"estimator": "unadjusted"},
        {"estimator": "standardization"},
        *({"estimator": name, "selection": {"method": method}}
          for name in ("data_adaptive", "tmle") for method in ("none", "stepwise_aic")),
        {"estimator": "strong_null"},
        {"estimator": "strong_null", "learner": "knn"},
    ]

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(PLANS),
        st.sampled_from(["gaussian", "binomial"]),
        st.integers(0, 2**32 - 1),
        st.integers(40, 250),
    )
    def test_permuted_rows_keep_theta_and_se(self, raw, family, seed, n):
        plan = plan_from_dict({**raw, "family": family})
        rng = np.random.default_rng(seed)
        d = simulate_trial(rng, n=n, p=5, family=GlmFamily(family))
        order = rng.permutation(n)
        permuted = TrialDataset(d.y[order], d.z[order], d.x[order], d.column_names)
        try:
            r = execute_plan(d, plan)
        except TrialcraftError as exc:
            with pytest.raises(type(exc)):
                execute_plan(permuted, plan)
            return
        s = execute_plan(permuted, plan)
        assert math.isclose(s.theta_hat, r.theta_hat, rel_tol=1e-13, abs_tol=1e-14)
        assert math.isclose(s.se, r.se, rel_tol=1e-13, abs_tol=1e-14)


class TestParsing:
    def test_round_trip(self):
        for raw in ALL_ESTIMATOR_PLANS.values():
            plan = plan_from_dict(raw)
            again = plan_from_dict(plan_to_dict(plan))
            assert plan_to_dict(again) == plan_to_dict(plan)
            assert plan_hash(again) == plan_hash(plan)

    @pytest.mark.parametrize("key", ["extra", "learner_params"])
    def test_unknown_top_level_key(self, key):
        # a learner's params are set only inside "learner"
        with pytest.raises(ConfigError, match="unknown keys"):
            plan_from_dict({"estimator": "unadjusted", key: {}})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="plan.selection"):
            plan_from_dict({"estimator": "data_adaptive",
                            "selection": {"method": "lasso_cv", "foo": 2}})

    def test_bad_estimator(self):
        with pytest.raises(ConfigError, match="plan.estimator"):
            plan_from_dict({"estimator": "magic"})

    def test_learner_required_for_crossfit(self):
        with pytest.raises(ConfigError, match="plan.learner"):
            plan_from_dict({"estimator": "crossfit_aipw"})

    def test_pi_mode_estimator_compatibility(self):
        with pytest.raises(ConfigError, match="plan.pi.mode"):
            plan_from_dict({"estimator": "unadjusted",
                            "pi": {"mode": "estimated_per_fold"}})
        with pytest.raises(ConfigError, match="plan.pi.mode"):
            plan_from_dict({
                "estimator": "crossfit_aipw",
                "learner": {"name": "knn", "params": {}},
                "pi": {"mode": "estimated_overall"},
            })

    @pytest.mark.parametrize("pi", [
        {"mode": "estimated_overall", "value": 0.3},
        {"mode": "parametric", "ps_columns": ["x1"], "value": 0.5},
        {"mode": "known", "value": 0.5, "ps_columns": ["x1"]},
        {"mode": "estimated_overall", "ps_columns": ["x1"]},
    ])
    def test_pi_fields_belong_to_their_mode(self, pi):
        with pytest.raises(ConfigError, match="plan.pi: pi mode .* takes no"):
            plan_from_dict({"estimator": "data_adaptive", "pi": pi})

    def test_parametric_ps_estimator_needs_pi(self):
        with pytest.raises(ConfigError, match="plan.pi"):
            plan_from_dict({"estimator": "crossfit_aipw_parametric_ps", "learner": "knn"})

    def test_eem_restricted(self):
        with pytest.raises(ConfigError, match="eem"):
            plan_from_dict({"estimator": "crossfit_aipw", "eem": True,
                            "learner": {"name": "knn", "params": {}}})

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError, match="schema_version"):
            plan_from_dict({"estimator": "unadjusted", "schema_version": "99"})

    def test_validate_plan_warnings(self):
        plan = plan_from_dict({
            "estimator": "crossfit_aipw",
            "learner": {"name": "knn", "params": {}},
            "folds": {"k": 4, "seed": 0, "stratified": False},
        })
        assert any("stratified" in w for w in validate_plan(plan))


class TestSimulationSpec:
    BASE = {
        "dgp": {"name": "t", "n": 50, "p": 2, "pi": 0.5,
                "outcome_kind": "continuous", "mechanism": "linear",
                "effect_size": 0.3, "noise_sd": 1.0},
        "plan": {"estimator": "unadjusted"},
        "replicates": 100,
        "master_seed": 1,
    }

    def test_parses(self):
        dgp, plan, run = simulation_spec_from_dict(self.BASE)
        assert dgp.n == 50 and plan.estimator == "unadjusted"
        assert run["replicates"] == 100

    def test_unknown_dgp_key(self):
        bad = dict(self.BASE, dgp=dict(self.BASE["dgp"], nu=3))
        with pytest.raises(ConfigError, match="spec.dgp"):
            simulation_spec_from_dict(bad)

    def test_replicate_floor(self):
        with pytest.raises(ConfigError, match="replicates"):
            simulation_spec_from_dict(dict(self.BASE, replicates=5))

    def test_ratio_contrast_needs_a_pinned_or_null_truth(self):
        binary = dict(self.BASE["dgp"], outcome_kind="binary")
        plan = {"estimator": "unadjusted", "family": "binomial", "contrast": "log_odds_ratio"}
        with pytest.raises(ConfigError, match="plan.contrast"):
            simulation_spec_from_dict(dict(self.BASE, dgp=binary, plan=plan))
        for dgp in (dict(binary, true_theta=0.6), dict(binary, mechanism="null_effect", effect_size=0.0)):
            parsed, _, _ = simulation_spec_from_dict(dict(self.BASE, dgp=dgp, plan=plan))
            assert parsed.mechanism == dgp["mechanism"]
        rd = dict(plan, contrast="risk_difference")
        simulation_spec_from_dict(dict(self.BASE, dgp=binary, plan=rd))
