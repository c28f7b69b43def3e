"""Workload make-up as plain data: data-generating processes, plans,
replicates per plan and round, and the shape of the analyze_wide CSV.

This module imports nothing from trialcraft or numpy, so the set-up probe
can load it before it starts timing the import of trialcraft.
"""
from __future__ import annotations

from dataclasses import dataclass

# The acceptance-gate configurations (tests/test_acceptance.py) and the
# binary linear DGP used by tests/test_binary_end_to_end.py, at n=500.
C3 = {"name": "c3", "n": 50, "p": 3, "pi": 0.5, "outcome_kind": "continuous",
      "mechanism": "linear", "effect_size": 0.7, "noise_sd": 1.0}
C4 = {"name": "c4", "n": 500, "p": 3, "pi": 0.5, "outcome_kind": "continuous",
      "mechanism": "quadratic", "effect_size": 0.5, "noise_sd": 1.0}
C5 = {"name": "c5", "n": 200, "p": 3, "pi": 0.5, "outcome_kind": "continuous",
      "mechanism": "null_effect", "effect_size": 0.0, "noise_sd": 1.0}
C11 = {"name": "c11", "n": 500, "p": 3, "pi": 0.5, "outcome_kind": "continuous",
       "mechanism": "ps_informative", "effect_size": 0.4, "noise_sd": 1.0}
BINARY = {"name": "binary_linear", "n": 500, "p": 3, "pi": 0.5, "outcome_kind": "binary",
          "mechanism": "linear", "effect_size": 1.0, "noise_sd": 1.0}

LASSO = {"method": "lasso_cv", "k_cv": 5, "lambda_rule": "1se"}
FOLDS = {"k": 5, "seed": 0, "stratified": True}


def _crossfit(learner: str, family: str = "gaussian", **extra) -> dict:
    plan = {"estimator": "crossfit_aipw", "family": family, "folds": FOLDS,
            "pi": {"mode": "estimated_per_fold"},
            "learner": {"name": learner, "params": {}}}
    plan.update(extra)
    return plan


@dataclass(frozen=True)
class McPlan:
    """One plan of an mc_* workload: `replicates` Monte Carlo replicates of
    `plan` on `dgp` per round, in one call of run_monte_carlo."""

    label: str
    dgp: dict
    plan: dict
    replicates: int
    paired_unadjusted: bool = False


MC_WORKLOADS = {
    # about 90% of the time in the small-p Gaussian lasso path
    "mc_lasso": (
        McPlan("data_adaptive", C4, {"estimator": "data_adaptive", "family": "gaussian",
                                     "selection": LASSO}, 4, paired_unadjusted=True),
        McPlan("tmle", C4, {"estimator": "tmle", "family": "gaussian", "selection": LASSO}, 4),
        McPlan("crossfit_post_lasso", C4, _crossfit("post_lasso"), 2),
    ),
    # cheap replicates, no lasso: learners, variance, folds, data generation
    # and per-replicate harness overhead
    "mc_crossfit": (
        McPlan("crossfit_knn", C4, _crossfit("knn"), 10),
        McPlan("crossfit_wrong_model", C4, _crossfit("wrong_model"), 10),
        McPlan("cvtmle_wrong_model", C4, {"estimator": "cvtmle", "family": "gaussian",
                                          "folds": FOLDS,
                                          "learner": {"name": "wrong_model", "params": {}}}, 10),
        McPlan("parametric_ps_constant", C11, {
            "estimator": "crossfit_aipw_parametric_ps", "family": "gaussian", "folds": FOLDS,
            "pi": {"mode": "parametric", "ps_columns": ["x1"]},
            "learner": {"name": "constant", "params": {}}}, 10),
        McPlan("strong_null_knn", C5, {"estimator": "strong_null", "family": "gaussian",
                                        "learner": {"name": "knn", "params": {}}}, 10),
        # C3 with knn: with wrong_model, about one replicate in a thousand
        # fails (a training arm of a 25-row fold has fewer rows than
        # coefficients), and run_monte_carlo then fails the whole call
        McPlan("crossfit_known_pi_n50", C3, _crossfit(
            "knn", pi={"mode": "known", "value": 0.5},
            folds={"k": 2, "seed": 0, "stratified": False}), 10),
        McPlan("crossfit_ridge", C4, _crossfit("ridge"), 2),
    ),
    # the binomial paths of selection and glm
    "mc_binary": (
        McPlan("data_adaptive_log_or", BINARY, {"estimator": "data_adaptive", "family": "binomial",
                                                "selection": LASSO,
                                                "contrast": "log_odds_ratio"}, 2),
        McPlan("tmle_stepwise", BINARY, {"estimator": "tmle", "family": "binomial",
                                         "selection": {"method": "stepwise_aic"}}, 8),
        McPlan("crossfit_wrong_model", BINARY, _crossfit("wrong_model", family="binomial"), 8),
    ),
}

# analyze_wide: a trial CSV of ROWS participants and COVARIATES standard
# normal covariates, each cell missing (completely at random) with
# probability MISSING_SHARE; FILES distinct files per run, each analyzed once
# per round.
ROWS = 3000
COVARIATES = 20
MISSING_SHARE = 0.05
FILES = 2
EFFECT = 1.0
COVARIATE_NAMES = tuple(f"c{j + 1:02d}" for j in range(COVARIATES))
INTERACTIONS = (("c01", "c02"), ("c03", "c04"), ("c05", "c06"), ("c07", "c08"))
# y = EFFECT * z + sum(coef * term) + N(0, 1); these terms must be selected
# in both arms
PROGNOSTIC = {"c01": 1.0, "c02": 0.8, "c03": -0.6, "c01^2": 0.5}


def analyze_plan(seed: int) -> dict:
    """The analyze_wide plan: lasso_cv over the degree-2 expansion of the
    20 covariates plus four interactions (44 candidates)."""
    return {
        "estimator": "data_adaptive",
        "family": "gaussian",
        "seed": seed,
        "data": {"outcome": "y", "arm": "z", "covariates": list(COVARIATE_NAMES)},
        "expansion": {"base_columns": list(COVARIATE_NAMES), "polynomial_degree": 2,
                      "interactions": [list(pair) for pair in INTERACTIONS]},
        "selection": LASSO,
    }


# Rounds a run makes at least, whatever --seconds says, so that the
# statistical checks have enough replicates (100 paired data_adaptive
# replicates on mc_lasso, 100 strong-null replicates on mc_crossfit).
MIN_ROUNDS = {"mc_lasso": 25, "mc_crossfit": 10, "mc_binary": 8, "analyze_wide": 2}

WORKLOADS = ("mc_lasso", "mc_crossfit", "mc_binary", "analyze_wide")
