"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The Monte Carlo criteria
use their full stated replication counts; the whole module is sized to
finish well inside 30 minutes on a laptop (111-164 s in four runs on a
2-vCPU VM).
"""
import json
import time

import numpy as np
import pytest

from conftest import kkt_violation, lasso_fit, simulate_trial
from test_glm import golden_section, grid_mle_2param
from trialcraft.cli import main as cli_main
from trialcraft.data import make_folds
from trialcraft.estimators import (
    estimate_data_adaptive,
    estimate_standardization,
    estimate_tmle,
    tmle_update,
)
from trialcraft.glm import GlmFamily, expit, fit_ml, predict
from trialcraft.plans import plan_estimator, plan_from_dict
from trialcraft.selection import SelectionConfig, lasso_lambda_max
from trialcraft.simulation import DgpSpec, run_monte_carlo
from trialcraft.variance import aipw, se_from_values


def gate(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_trial(seed, family):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, 160))
    p = int(rng.integers(1, 5))
    return simulate_trial(rng, n=n, p=p, family=family)


def test_c01_prediction_unbiasedness():
    worst = 0.0
    for i in range(200):
        family = GlmFamily.GAUSSIAN if i % 2 == 0 else GlmFamily.BINOMIAL
        d = random_trial(10_000 + i, family)
        for arm in (1, 0):
            rows = d.z == arm
            fit = fit_ml(d.x[rows], d.y[rows], family)
            resid_sum = abs(float(np.sum(d.y[rows] - predict(fit, d.x[rows]))))
            worst = max(worst, resid_sum / d.n)
    gate("C1 prediction unbiasedness", worst <= 1e-8,
         f"max |per-arm residual sum|/n = {worst:.2e} (tol 1e-8), 200 datasets")


def test_c02_estimator_identity():
    worst = 0.0
    for i in range(100):
        family = GlmFamily.GAUSSIAN if i % 2 == 0 else GlmFamily.BINOMIAL
        d = random_trial(20_000 + i, family)
        pi_hat = d.n_treated / d.n
        selection = SelectionConfig(method="lasso_cv" if i % 4 < 2 else "stepwise_aic")
        results = [
            estimate_standardization(d, family=family),
            estimate_data_adaptive(d, family=family, selection=selection, seed=i),
            estimate_tmle(d, family=family, selection=selection, seed=i),
        ]
        for r in results:
            pred1, pred0 = r.diagnostics["pred1"], r.diagnostics["pred0"]
            aipw = float(
                np.mean(d.z / pi_hat * (d.y - pred1) + pred1)
                - np.mean((1 - d.z) / (1 - pi_hat) * (d.y - pred0) + pred0)
            )
            worst = max(worst, abs(r.theta_hat - aipw))
    gate("C2 estimator identity", worst <= 1e-10,
         f"max |theta - AIPW form| = {worst:.2e} (tol 1e-10), 100 datasets")


C3_DGP = DgpSpec("c3", n=50, p=3, pi=0.5, outcome_kind="continuous",
                 mechanism="linear", effect_size=0.7, noise_sd=1.0)


@pytest.mark.parametrize("learner,master_seed", [("wrong_model", 311), ("knn", 312)])
def test_c03_finite_sample_unbiasedness(learner, master_seed):
    plan = plan_from_dict({
        "estimator": "crossfit_aipw", "family": "gaussian",
        "pi": {"mode": "known", "value": 0.5},
        "folds": {"k": 2, "seed": 0, "stratified": False},
        "learner": {"name": learner, "params": {}},
    })
    t0 = time.time()
    rep = run_monte_carlo(C3_DGP, plan_estimator(plan), replicates=20_000,
                          master_seed=master_seed)
    bound = 3 * rep.mc_se_of_bias
    gate(f"C3 finite-sample unbiasedness ({learner})", abs(rep.bias) <= bound,
         f"|bias| = {abs(rep.bias):.5f} <= 3*MC-SE = {bound:.5f}, R=20000, "
         f"n=50, known pi, {time.time() - t0:.0f}s, failed={rep.n_failed}")


C4_DGP = DgpSpec("c4", n=500, p=3, pi=0.5, outcome_kind="continuous",
                 mechanism="quadratic", effect_size=0.5, noise_sd=1.0)

C4_PLANS = {
    "data_adaptive": {
        "estimator": "data_adaptive", "family": "gaussian",
        "selection": {"method": "lasso_cv", "k_cv": 5, "lambda_rule": "1se"},
    },
    "crossfit_aipw": {
        "estimator": "crossfit_aipw", "family": "gaussian",
        "pi": {"mode": "estimated_per_fold"},
        "folds": {"k": 5, "seed": 0, "stratified": True},
        "learner": {"name": "wrong_model", "params": {}},
    },
    "tmle": {
        "estimator": "tmle", "family": "gaussian",
        "selection": {"method": "lasso_cv", "k_cv": 5, "lambda_rule": "1se"},
    },
    "cvtmle": {
        "estimator": "cvtmle", "family": "gaussian",
        "folds": {"k": 5, "seed": 0, "stratified": True},
        "learner": {"name": "wrong_model", "params": {}},
    },
}


@pytest.mark.parametrize("name", list(C4_PLANS))
def test_c04_se_validity_under_misspecification(name):
    plan = plan_from_dict(C4_PLANS[name])
    t0 = time.time()
    rep = run_monte_carlo(C4_DGP, plan_estimator(plan), replicates=5_000,
                          master_seed=400 + list(C4_PLANS).index(name))
    ok = 0.935 <= rep.coverage_95 <= 0.965
    gate(f"C4 misspecified-model coverage ({name})", ok,
         f"coverage = {rep.coverage_95:.4f} in [0.935, 0.965], "
         f"se/sd = {rep.mean_estimated_se / rep.empirical_sd:.3f}, R=5000, "
         f"{time.time() - t0:.0f}s")


def test_c05_strong_null_type_one_error():
    dgp = DgpSpec("c5", n=200, p=3, pi=0.5, outcome_kind="continuous",
                  mechanism="null_effect", noise_sd=1.0)
    plan = plan_from_dict({
        "estimator": "strong_null", "family": "gaussian",
        "learner": {"name": "knn", "params": {}},
    })
    t0 = time.time()
    rep = run_monte_carlo(dgp, plan_estimator(plan), replicates=5_000,
                          master_seed=500)
    ok = 0.04 <= rep.rejection_rate <= 0.06
    gate("C5 strong-null Type I error (pooled kNN, no splitting)", ok,
         f"rejection = {rep.rejection_rate:.4f} in [0.04, 0.06], R=5000, "
         f"{time.time() - t0:.0f}s")


def test_c06_efficiency_gain():
    dgp = DgpSpec("c6", n=500, p=3, pi=0.5, outcome_kind="continuous",
                  mechanism="linear", effect_size=0.4, noise_sd=1.0)  # R^2 = 0.5
    for name, pd in {
        "standardization": {"estimator": "standardization", "family": "gaussian"},
        "data_adaptive": {
            "estimator": "data_adaptive", "family": "gaussian",
            "selection": {"method": "lasso_cv", "k_cv": 5, "lambda_rule": "1se"},
        },
    }.items():
        plan = plan_from_dict(pd)
        rep = run_monte_carlo(dgp, plan_estimator(plan), replicates=2_000,
                              master_seed=600, paired_unadjusted=True)
        re = rep.relative_efficiency_vs_unadjusted
        gate(f"C6 efficiency gain ({name})", re >= 1.5,
             f"relative efficiency vs unadjusted = {re:.3f} >= 1.5 (theory ~2.0), R=2000")


def test_c07_eem_efficiency_guarantee():
    dgp = DgpSpec("c7", n=1_000, p=3, pi=0.5, outcome_kind="continuous",
                  mechanism="quadratic", effect_size=0.3, noise_sd=1.0)
    plan = plan_from_dict({
        "estimator": "data_adaptive", "family": "gaussian", "eem": True,
        "selection": {"method": "lasso_cv", "k_cv": 5, "lambda_rule": "1se"},
    })
    rep = run_monte_carlo(dgp, plan_estimator(plan), replicates=2_000,
                          master_seed=700, paired_unadjusted=True)
    ratio = 1.0 / rep.relative_efficiency_vs_unadjusted
    gate("C7 EEM efficiency guarantee", ratio <= 1.02,
         f"var(EEM)/var(unadjusted) = {ratio:.3f} <= 1.02 under misspecification, R=2000")


def test_c08_lasso_kkt_certificates():
    worst = 0.0
    for family in GlmFamily:
        for i in range(100):
            rng = np.random.default_rng(80_000 + i)
            n = int(rng.integers(30, 150))
            p = int(rng.integers(2, 10))
            x = rng.standard_normal((n, p))
            eta = x @ rng.normal(scale=1.0, size=p) * 0.7
            if family is GlmFamily.BINOMIAL:
                y = (rng.uniform(size=n) < expit(eta)).astype(float)
            else:
                y = eta + rng.standard_normal(n)
            weights = rng.uniform(0.5, 2.0, size=n) if i % 3 == 0 else None
            lam_max = lasso_lambda_max(x, y, family, weights)
            if lam_max <= 0:
                continue
            lam = float(rng.uniform(0.05, 0.9)) * lam_max
            coef = lasso_fit(x, y, family, lam, weights)
            worst = max(worst, kkt_violation(x, y, family, lam, coef, weights))
    gate("C8 lasso KKT certificates", worst <= 1e-6,
         f"max KKT violation = {worst:.2e} (tol 1e-6), 100 problems per family")


PINNED_LOGISTIC = [
    # (x or None, y): intercept-only and two-parameter logistic datasets
    (None, [0, 1, 1]),
    (None, [0, 0, 1, 1, 1, 1]),
    (None, [1, 0, 0, 0, 1]),
    (None, [0, 1] * 6),
    (None, [1, 1, 1, 0]),
    (None, [0, 0, 0, 1]),
    ([0, 0, 0, 0, 1, 1, 1], [1, 1, 0, 0, 1, 1, 0]),
    ([0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 1, 1]),
    ([-1, -1, 0, 0, 1, 1], [0, 1, 0, 1, 1, 0]),
    ([0.5, 1.5, 2.5, 3.5, 4.5], [0, 0, 1, 0, 1]),
    ([2, 4, 4, 6, 8, 8], [0, 0, 1, 1, 0, 1]),
    ([0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 0, 0, 1, 0, 1, 1]),
    ([-2, -1, 0, 1, 2], [1, 0, 1, 0, 1]),
    ([1, 1, 2, 2, 3, 3, 4, 4], [0, 1, 1, 0, 1, 0, 1, 1]),
    ([0, 0.3, 0.6, 0.9, 1.2, 1.5], [1, 0, 1, 1, 0, 1]),
    ([5, 5, 6, 7, 8, 9], [0, 1, 1, 0, 0, 1]),
    ([-3, -2, -1, 1, 2, 3], [0, 1, 1, 0, 1, 1]),
    ([0, 2, 4, 6], [1, 0, 1, 0]),
    ([1, 3, 5, 7, 9, 11], [0, 0, 1, 1, 1, 0]),
    ([-1, -1, 0, 0, 1, 1], [0, 1, 1, 0, 0, 1]),
]


def test_c09_glm_oracle_equivalence():
    worst = 0.0
    assert len(PINNED_LOGISTIC) == 20
    for xs, ys in PINNED_LOGISTIC:
        y = np.asarray(ys, dtype=float)
        if xs is None:
            fit = fit_ml(np.empty((y.size, 0)), y, GlmFamily.BINOMIAL)

            def nll(b0, y=y):
                p = np.clip(expit(np.full(y.size, b0)), 1e-12, 1 - 1e-12)
                return -float(np.sum(y * np.log(p) + (1 - y) * np.log1p(-p)))

            oracle = np.array([golden_section(nll, -8.0, 8.0)])
        else:
            x = np.asarray(xs, dtype=float).reshape(-1, 1)
            fit = fit_ml(x, y, GlmFamily.BINOMIAL)
            oracle = grid_mle_2param(x[:, 0], y, lo=-8.0, hi=8.0, passes=8)
        worst = max(worst, float(np.max(np.abs(fit.coefficients - oracle))))
    gate("C9 GLM oracle equivalence", worst <= 1e-6,
         f"max |IRLS - grid/golden-section MLE| = {worst:.2e} (tol 1e-6), 20 pinned datasets")


def test_c10_tmle_score_zero():
    worst_score = 0.0
    worst_eps = 0.0
    for i in range(100):
        family = GlmFamily.GAUSSIAN if i % 2 == 0 else GlmFamily.BINOMIAL
        d = random_trial(90_000 + i, family)
        r = estimate_tmle(d, family=family, selection=SelectionConfig(method="stepwise_aic"),
                          seed=i)
        for arm in (1, 0):
            score = abs(float(np.sum((d.z == arm) * (d.y - r.diagnostics[f"pred{arm}"]))))
            worst_score = max(worst_score, score / d.n)
        rows = d.z == 1
        fit = fit_ml(d.x[rows], d.y[rows], family)
        eps = tmle_update(predict(fit, d.x[rows]), d.y[rows], family)
        worst_eps = max(worst_eps, abs(eps))
    ok = worst_score <= 1e-8 and worst_eps <= 1e-8
    gate("C10 TMLE post-update score zero", ok,
         f"max score/n = {worst_score:.2e} (tol 1e-8), "
         f"max |eps| at ML init = {worst_eps:.2e} (tol 1e-8), 100 datasets")


def test_c11_parametric_ps_calibration():
    dgp = DgpSpec("c11", n=500, p=3, pi=0.5, outcome_kind="continuous",
                  mechanism="ps_informative", effect_size=0.4, noise_sd=1.0)
    plan = plan_from_dict({
        "estimator": "crossfit_aipw_parametric_ps", "family": "gaussian",
        "pi": {"mode": "parametric", "ps_columns": ["x1"]},
        "folds": {"k": 5, "seed": 0, "stratified": True},
        "learner": {"name": "constant", "params": {}},
    })
    t0 = time.time()
    rep = run_monte_carlo(dgp, plan_estimator(plan), replicates=5_000,
                          master_seed=1100)
    se_ratio = rep.mean_estimated_se / rep.empirical_sd
    ok = 0.935 <= rep.coverage_95 <= 0.965 and 0.95 <= se_ratio <= 1.05
    gate("C11 parametric-PS calibration", ok,
         f"coverage = {rep.coverage_95:.4f} in [0.935, 0.965], "
         f"mean(se)/SD = {se_ratio:.3f} in [0.95, 1.05], R=5000, {time.time() - t0:.0f}s")

    # intercept-only reduction on pinned data
    rng = np.random.default_rng(42)
    d = simulate_trial(rng, n=120)
    folds = make_folds(d.n, 4, d.z, seed=7, stratified=False)
    pred1 = rng.standard_normal(d.n)
    pred0 = rng.standard_normal(d.n)
    p_hat = np.empty(d.n)
    for k in range(1, 5):
        idx = folds.fold_indices(k)
        p_hat[idx] = d.z[idx].mean()
    _, _, v1_p, v0_p = aipw(d.y, d.z, pred1, pred0, p_hat, folds, np.ones((d.n, 1)))
    se_p = se_from_values(v1_p - v0_p)
    _, _, v1_c, v0_c = aipw(d.y, d.z, pred1, pred0, folds=folds)
    se_c = se_from_values(v1_c - v0_c)
    gate("C11 intercept-only PS reduction", abs(se_p - se_c) <= 1e-8,
         f"|se(parametric, intercept-only) - se(per-fold pi)| = {abs(se_p - se_c):.2e} (tol 1e-8)")


SIM_SPEC = {
    "dgp": {"name": "det", "n": 60, "p": 2, "pi": 0.5,
            "outcome_kind": "continuous", "mechanism": "linear",
            "effect_size": 0.5, "noise_sd": 1.0},
    "plan": {
        "estimator": "crossfit_aipw", "family": "gaussian",
        "pi": {"mode": "estimated_per_fold"},
        "folds": {"k": 3, "seed": 1, "stratified": True},
        "learner": {"name": "knn", "params": {}},
    },
    "replicates": 200,
    "master_seed": 1200,
}

ANALYZE_CSV = (
    "y,z,x1,x2\n"
    + "\n".join(
        f"{0.3 * i % 2.7:.3f},{i % 2},{(0.7 * i) % 3.1:.3f},{(1.3 * i) % 2.3:.3f}"
        for i in range(24)
    )
    + "\n"
)


def test_c12_cli_determinism(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SIM_SPEC))
    outputs = []
    for run in ("a", "b", "c"):
        out = tmp_path / f"sim_{run}.json"
        code = cli_main(["simulate", "--spec", str(spec_path), "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    sim_ok = outputs[0] == outputs[1] == outputs[2]

    data_path = tmp_path / "trial.csv"
    data_path.write_text(ANALYZE_CSV)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "estimator": "data_adaptive", "family": "gaussian", "seed": 5,
        "data": {"outcome": "y", "arm": "z", "covariates": ["x1", "x2"]},
        "selection": {"method": "lasso_cv", "k_cv": 3, "lambda_rule": "1se"},
    }))
    reports = []
    for run in ("a", "b"):
        out = tmp_path / f"an_{run}.json"
        assert cli_main(["analyze", "--data", str(data_path), "--plan", str(plan_path),
                         "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    analyze_ok = reports[0] == reports[1]
    gate("C12 CLI determinism", sim_ok and analyze_ok,
         f"simulate byte-identical across runs: {sim_ok}; "
         f"analyze byte-identical: {analyze_ok}")
