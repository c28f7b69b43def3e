"""Pinned reports: every estimator configuration and the CLI reports must
reproduce the recorded digits and bytes exactly.

`golden_reports.json` holds, for each case, float.hex of theta_hat, se,
mu1_hat, mu0_hat, ci_low and ci_high plus a SHA-256 of the influence
vectors, and the SHA-256 of the `analyze` and `simulate` report bytes for
the C12 and CLI fixtures. A change that is meant to alter numbers
re-records the file with

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from test_acceptance import ANALYZE_CSV, SIM_SPEC
from test_cli import FOUR_ROW_CSV, UNADJUSTED_PLAN
from trialcraft.cli import main as cli_main
from trialcraft.errors import TrialcraftError
from trialcraft.plans import execute_plan, plan_from_dict
from trialcraft.simulation import DgpSpec, generate_dataset

GOLDEN = Path(__file__).with_name("golden_reports.json")

DATASETS = {
    "gaussian": (DgpSpec("golden_gaussian", n=160, p=3, pi=0.5, mechanism="quadratic",
                         effect_size=0.5), (2024, 1)),
    "ps_informative": (DgpSpec("golden_ps", n=160, p=3, pi=0.5, mechanism="ps_informative",
                               effect_size=0.4), (2024, 2)),
    "binary": (DgpSpec("golden_binary", n=240, p=3, pi=0.5, outcome_kind="binary",
                       effect_size=0.5), (2024, 3)),
}

KNOWN = {"mode": "known", "value": 0.5}
PI_MODES = {
    "unadjusted": (None, KNOWN, {"mode": "estimated_overall"}),
    "standardization": (None, KNOWN),
    "data_adaptive": (None, KNOWN, {"mode": "parametric", "ps_columns": ["x1"]}),
    "tmle": (None, KNOWN, {"mode": "parametric", "ps_columns": ["x1"]}),
    "crossfit_aipw": (None, KNOWN, {"mode": "estimated_per_fold"}),
    "cvtmle": (None, KNOWN, {"mode": "estimated_overall"}),
    "strong_null": (None, KNOWN, {"mode": "estimated_overall"}),
    "crossfit_aipw_parametric_ps": ({"mode": "parametric", "ps_columns": ["x1"]},
                                    {"mode": "parametric", "ps_columns": []}),
}
BASE = {
    "data_adaptive": {"seed": 7, "selection": {"method": "lasso_cv", "k_cv": 3}},
    "tmle": {"seed": 7, "selection": {"method": "lasso_cv", "k_cv": 3}},
    "crossfit_aipw": {"seed": 7, "learner": "wrong_model", "folds": {"k": 3, "seed": 11}},
    "cvtmle": {"seed": 7, "learner": "wrong_model", "folds": {"k": 3, "seed": 11}},
    "crossfit_aipw_parametric_ps": {"seed": 7, "learner": "wrong_model",
                                    "folds": {"k": 3, "seed": 11}},
}
VARIANTS = {
    "standardization": [{"small_sample_correction": True},
                        {"expansion": {"polynomial_degree": 2}}],
    "data_adaptive": [{"eem": True}, {"small_sample_correction": True},
                      {"selection": {"method": "stepwise_aic"}},
                      {"selection": {"method": "none"}}],
    "tmle": [{"eem": True}, {"small_sample_correction": True},
             {"selection": {"method": "stepwise_aic"}}],
    "crossfit_aipw": [{"learner": "knn"}, {"learner": "constant"}, {"learner": "ridge"},
                      {"learner": "post_lasso"},
                      {"folds": {"k": 4, "seed": 2, "stratified": False}}],
    "cvtmle": [{"learner": "knn"}, {"learner": "post_lasso"}],
    "strong_null": [{"learner": "knn"}],
}
CONTRAST_ESTIMATORS = ("unadjusted", "standardization", "tmle", "crossfit_aipw", "cvtmle")


def estimate_cases():
    """(label, dataset name, plan dict) for every configuration pinned."""
    cases = []
    for family, names in (("gaussian", ("gaussian", "ps_informative")), ("binomial", ("binary",))):
        for estimator, modes in PI_MODES.items():
            plans = []
            for pi in modes:
                plan = {"estimator": estimator, "family": family, **BASE.get(estimator, {})}
                if pi is not None:
                    plan["pi"] = pi
                plans.append(plan)
            for variant in VARIANTS.get(estimator, ()):
                plans.append({"estimator": estimator, "family": family,
                              **BASE.get(estimator, {}), **variant})
            if family == "binomial" and estimator in CONTRAST_ESTIMATORS:
                for contrast in ("log_risk_ratio", "log_odds_ratio"):
                    plans.append({"estimator": estimator, "family": family,
                                  **BASE.get(estimator, {}), "contrast": contrast})
            for name in names:
                for plan in plans:
                    cases.append((f"{name} {json.dumps(plan, sort_keys=True)}", name, plan))
    return cases


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=float).tobytes()).hexdigest()


def record_estimates() -> dict:
    datasets = {name: generate_dataset(spec, np.random.SeedSequence(key))
                for name, (spec, key) in DATASETS.items()}
    out = {}
    for label, name, plan in estimate_cases():
        try:
            r = execute_plan(datasets[name], plan_from_dict(plan))
        except TrialcraftError as exc:
            out[label] = {"error": type(exc).__name__}
            continue
        out[label] = {
            key: float(getattr(r, key)).hex()
            for key in ("theta_hat", "se", "mu1_hat", "mu0_hat", "ci_low", "ci_high")
        }
        out[label]["if_mu1"] = _digest(r.if_mu1)
        out[label]["if_mu0"] = _digest(r.if_mu0)
    return out


REPORTS = {
    "c12_analyze": ("analyze", ANALYZE_CSV, {
        "estimator": "data_adaptive", "family": "gaussian", "seed": 5,
        "data": {"outcome": "y", "arm": "z", "covariates": ["x1", "x2"]},
        "selection": {"method": "lasso_cv", "k_cv": 3, "lambda_rule": "1se"},
    }),
    "c12_analyze_parametric_ps": ("analyze", ANALYZE_CSV, {
        "estimator": "crossfit_aipw_parametric_ps", "family": "gaussian", "seed": 5,
        "data": {"outcome": "y", "arm": "z", "covariates": ["x1", "x2"]},
        "learner": "wrong_model", "folds": {"k": 3, "seed": 11},
        "pi": {"mode": "parametric", "ps_columns": ["x1"]},
    }),
    "c12_simulate": ("simulate", None, SIM_SPEC),
    "cli_four_row_unadjusted": ("analyze", FOUR_ROW_CSV, UNADJUSTED_PLAN),
    "cli_four_row_crossfit": ("analyze", FOUR_ROW_CSV, {
        "estimator": "crossfit_aipw", "family": "gaussian",
        "data": {"outcome": "y", "arm": "z", "covariates": ["a", "b"]},
        "folds": {"k": 2, "seed": 3, "stratified": True},
        "learner": {"name": "constant", "params": {}},
        "pi": {"mode": "known", "value": 0.5},
    }),
}


def record_reports(workdir: Path) -> dict:
    out = {}
    for label, (command, csv_text, config) in REPORTS.items():
        config_path = workdir / f"{label}.json"
        config_path.write_text(json.dumps(config))
        report = workdir / f"{label}_report.json"
        if command == "analyze":
            data_path = workdir / f"{label}.csv"
            data_path.write_text(csv_text)
            argv = ["analyze", "--data", str(data_path), "--plan", str(config_path)]
        else:
            argv = ["simulate", "--spec", str(config_path)]
        assert cli_main([*argv, "--out", str(report)]) == 0, label
        out[label] = hashlib.sha256(report.read_bytes()).hexdigest()
    return out


def _mismatches(actual: dict, expected: dict) -> list[str]:
    assert sorted(actual) == sorted(expected), "pinned case list changed"
    return [label for label in expected if actual[label] != expected[label]]


def test_estimates_match_pinned_digits():
    expected = json.loads(GOLDEN.read_text())["estimates"]
    bad = _mismatches(record_estimates(), expected)
    assert not bad, f"{len(bad)} of {len(expected)} cases changed: {bad[:5]}"


def test_reports_match_pinned_bytes(tmp_path):
    expected = json.loads(GOLDEN.read_text())["reports"]
    bad = _mismatches(record_reports(tmp_path), expected)
    assert not bad, f"report bytes changed: {bad}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {"estimates": record_estimates(), "reports": record_reports(Path(tmp))}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden['estimates'])} estimates and {len(golden['reports'])} "
          f"reports to {GOLDEN}", file=sys.stderr)
