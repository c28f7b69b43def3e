"""Binary-outcome paths end to end: risk-difference estimation against
pinned true effects, the clever-covariate update on the logit scale,
and ratio contrasts through the CLI."""
import json
import math

import numpy as np
import pytest

from conftest import simulate_trial
from trialcraft.cli import main as cli_main
from trialcraft.data import TrialDataset, make_folds
from trialcraft.estimators import (
    PiSpec,
    estimate_crossfit_aipw,
    estimate_standardization,
    estimate_tmle,
    estimate_unadjusted,
    propensity_scores,
)
from trialcraft.glm import GlmFamily
from trialcraft.plans import plan_estimator, plan_from_dict
from trialcraft.selection import SelectionConfig
from trialcraft.simulation import DgpSpec, run_monte_carlo, true_theta

# plug-in Monte Carlo values, 1e7 draws each, so their own MC error is ~1e-4
BINARY_LINEAR_THETA = 0.19673  # linear mechanism, effect_size 1.0, p = 3
BINARY_PS_THETA = 0.13766      # ps_informative mechanism, effect_size 0.8, p = 2


def test_pinned_thetas_match_oracle_reruns():
    lin = DgpSpec("bl", n=400, p=3, pi=0.5, outcome_kind="binary",
                  mechanism="linear", effect_size=1.0)
    ps = DgpSpec("bp", n=400, p=2, pi=0.5, outcome_kind="binary",
                 mechanism="ps_informative", effect_size=0.8)
    assert abs(true_theta(lin) - BINARY_LINEAR_THETA) < 1e-4
    assert abs(true_theta(ps) - BINARY_PS_THETA) < 1e-4


def test_binary_standardization_coverage_and_bias():
    spec = DgpSpec("bl", n=400, p=3, pi=0.5, outcome_kind="binary",
                   mechanism="linear", effect_size=1.0,
                   true_theta=BINARY_LINEAR_THETA)
    plan = plan_from_dict({"estimator": "standardization", "family": "binomial"})
    rep = run_monte_carlo(spec, plan_estimator(plan), replicates=800, master_seed=77)
    assert abs(rep.bias) <= 3 * rep.mc_se_of_bias + 2e-4  # oracle pin error margin
    se_bin = math.sqrt(0.95 * 0.05 / 800)
    assert abs(rep.coverage_95 - 0.95) <= 3.5 * se_bin


def test_binary_crossfit_knn_known_pi_unbiased():
    spec = DgpSpec("bp", n=120, p=2, pi=0.5, outcome_kind="binary",
                   mechanism="ps_informative", effect_size=0.8,
                   true_theta=BINARY_PS_THETA)
    plan = plan_from_dict({
        "estimator": "crossfit_aipw", "family": "binomial",
        "pi": {"mode": "known", "value": 0.5},
        "folds": {"k": 2, "seed": 0, "stratified": False},
        "learner": {"name": "knn", "params": {}},
    })
    rep = run_monte_carlo(spec, plan_estimator(plan), replicates=1_500, master_seed=78)
    assert abs(rep.bias) <= 3 * rep.mc_se_of_bias + 2e-4


def test_tmle_parametric_clever_covariate_binomial(rng):
    d = simulate_trial(rng, n=200, family=GlmFamily.BINOMIAL)
    r = estimate_tmle(d, family=GlmFamily.BINOMIAL, selection=SelectionConfig(method="none"),
                      pi=PiSpec.parametric(("x1",)), seed=3)
    p_hat, _ = propensity_scores(d, ("x1",))
    # the weighted score the clever covariate enforces, per arm
    s1 = np.sum((d.z == 1) * (d.y - r.diagnostics["pred1"]) / p_hat)
    s0 = np.sum((d.z == 0) * (d.y - r.diagnostics["pred0"]) / (1 - p_hat))
    assert abs(s1) <= 1e-7 * d.n
    assert abs(s0) <= 1e-7 * d.n
    assert np.all((0 < r.diagnostics["pred1"]) & (r.diagnostics["pred1"] < 1))


def test_unadjusted_known_pi_changes_se_not_theta(rng):
    d = simulate_trial(rng, n=101)  # odd n: the arm share is not exactly 0.5
    a = estimate_unadjusted(d)
    b = estimate_unadjusted(d, PiSpec.known(0.5))
    assert a.theta_hat == b.theta_hat
    assert a.se != b.se


def test_cli_binary_dgp_truth_by_quadrature_unless_pinned(tmp_path):
    spec = {
        "dgp": {"name": "b", "n": 80, "p": 3, "pi": 0.5,
                "outcome_kind": "binary", "mechanism": "linear",
                "effect_size": 1.0, "noise_sd": 1.0},
        "plan": {"estimator": "standardization", "family": "binomial"},
        "replicates": 120,
        "master_seed": 4,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = str(tmp_path / "out.json")
    assert cli_main(["simulate", "--spec", str(path), "--out", out]) == 0
    report = json.loads(open(out).read())["report"]
    assert report["true_theta"] == true_theta(DgpSpec(**spec["dgp"]))

    spec["dgp"]["true_theta"] = BINARY_LINEAR_THETA
    path.write_text(json.dumps(spec))
    assert cli_main(["simulate", "--spec", str(path), "--out", out]) == 0
    report = json.loads(open(out).read())["report"]
    assert report["true_theta"] == BINARY_LINEAR_THETA


def test_cli_odds_ratio_contrast(tmp_path, rng):
    d = simulate_trial(rng, n=120, family=GlmFamily.BINOMIAL, effect=0.8)
    lines = ["y,z,x1,x2,x3"]
    for i in range(d.n):
        lines.append(f"{d.y[i]:.0f},{d.z[i]:.0f},{d.x[i,0]},{d.x[i,1]},{d.x[i,2]}")
    data = tmp_path / "trial.csv"
    data.write_text("\n".join(lines) + "\n")
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "estimator": "standardization", "family": "binomial",
        "data": {"outcome": "y", "arm": "z", "covariates": ["x1", "x2", "x3"]},
        "contrast": "log_odds_ratio",
    }))
    out = str(tmp_path / "r.json")
    assert cli_main(["analyze", "--data", str(data), "--plan", str(plan), "--out", out]) == 0
    est = json.loads(open(out).read())["estimate"]
    assert est["method"] == "standardization:log_odds_ratio"
    r = estimate_standardization(
        TrialDataset(d.y, d.z, d.x, d.column_names), family=GlmFamily.BINOMIAL
    )
    expected = math.log(r.mu1_hat / (1 - r.mu1_hat)) - math.log(r.mu0_hat / (1 - r.mu0_hat))
    assert est["theta_hat"] == pytest.approx(expected, abs=1e-10)


def test_fuzz_every_estimator_obeys_result_contract():
    """Random-configuration sweep: finite outputs, ordered CIs, exact
    theta = mu1 - mu0, centered influence vectors."""
    from trialcraft.plans import execute_plan
    import trialcraft.plans as plans

    raw_plans = [
        {"estimator": "unadjusted"},
        {"estimator": "standardization"},
        {"estimator": "data_adaptive", "selection": {"method": "stepwise_aic"}},
        {"estimator": "data_adaptive", "eem": True},
        {"estimator": "tmle"},
        {"estimator": "tmle", "pi": {"mode": "parametric", "ps_columns": ["x1"]}},
        {"estimator": "data_adaptive",
         "pi": {"mode": "parametric", "ps_columns": ["x1"]}},
        {"estimator": "crossfit_aipw",
         "folds": {"k": 3, "seed": 0, "stratified": True},
         "learner": {"name": "ridge", "params": {}}},
        {"estimator": "cvtmle",
         "folds": {"k": 3, "seed": 0, "stratified": True},
         "learner": {"name": "knn", "params": {}}},
        {"estimator": "strong_null", "learner": {"name": "knn", "params": {}}},
        {"estimator": "crossfit_aipw_parametric_ps",
         "pi": {"mode": "parametric", "ps_columns": ["x1", "x2"]},
         "folds": {"k": 3, "seed": 0, "stratified": True},
         "learner": {"name": "constant", "params": {}}},
    ]
    for trial in range(30):
        rng = np.random.default_rng(40_000 + trial)
        family = GlmFamily.GAUSSIAN if trial % 2 == 0 else GlmFamily.BINOMIAL
        n = int(rng.integers(50, 140))
        d = simulate_trial(rng, n=n, p=int(rng.integers(2, 4)), family=family)
        raw = dict(raw_plans[trial % len(raw_plans)])
        raw["family"] = family.value
        plan = plans.plan_from_dict(raw)
        r = execute_plan(d, plan, seed=trial)
        assert np.isfinite(r.theta_hat) and np.isfinite(r.se)
        assert r.theta_hat == r.mu1_hat - r.mu0_hat
        assert r.ci_low <= r.theta_hat <= r.ci_high
        assert abs(r.if_mu1.mean()) <= 1e-9
        assert abs(r.if_mu0.mean()) <= 1e-9
        if family is GlmFamily.BINOMIAL and r.method in ("standardization", "tmle"):
            assert d.y.min() <= r.mu1_hat <= d.y.max()
