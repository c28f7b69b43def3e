import copy
import enum
import json
import math
import os
import types
import typing
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from trialcraft.cli import _write_json, main
from trialcraft.data import FoldPlan, TrialDataset, make_folds
from trialcraft.errors import AtLeast, AtMost, ConfigError
from trialcraft.estimators import (
    PiSpec,
    estimate_crossfit_aipw,
    estimate_unadjusted,
    transform_contrast,
)
from trialcraft.glm import GlmFamily
from trialcraft.learners import LEARNERS, KnnLearner, get_learner
from trialcraft.plans import AnalysisPlan, SimulationRun, plan_from_dict
from trialcraft.selection import SelectionConfig, lasso_cv
from trialcraft.simulation import DgpSpec, generate_dataset

FOUR_ROW_CSV = "y,z,a,b\n1,1,0.5,1\n3,1,1.5,0\n0,0,2.5,1\n2,0,3.5,\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_plan(tmp_path, obj, name="plan.json"):
    return write(tmp_path, name, json.dumps(obj))


UNADJUSTED_PLAN = {
    "estimator": "unadjusted",
    "family": "gaussian",
    "data": {"outcome": "y", "arm": "z", "covariates": ["a", "b"]},
}


def binomial_trial(tmp_path, outcome):
    """A 200-row CSV with two covariates and alternating arms, whose outcome
    in row i is `outcome(i)`."""
    x = np.random.default_rng(3).standard_normal((200, 2))
    rows = "".join(f"{outcome(i)},{i % 2},{a:.4f},{b:.4f}\n" for i, (a, b) in enumerate(x))
    return write(tmp_path, "trial.csv", "y,z,a,b\n" + rows)


BINOMIAL_PLANS = [
    pytest.param({"estimator": "standardization"}, id="standardization"),
    pytest.param({"estimator": "data_adaptive"}, id="data_adaptive"),
    pytest.param({"estimator": "crossfit_aipw", "learner": "knn"}, id="crossfit_aipw-knn"),
]


class TestAnalyze:
    def test_four_row_fixture(self, tmp_path, capsys):
        data = write(tmp_path, "trial.csv", FOUR_ROW_CSV)
        plan = write_plan(tmp_path, UNADJUSTED_PLAN)
        out = str(tmp_path / "report.json")
        assert main(["analyze", "--data", data, "--plan", plan, "--out", out]) == 0
        report = json.loads(open(out).read())
        assert report["estimate"]["theta_hat"] == 1.0
        assert report["schema_version"] == "1"
        assert report["n"] == 4 and report["n_treated"] == 2

    def test_byte_identical_reports(self, tmp_path):
        data = write(tmp_path, "trial.csv", FOUR_ROW_CSV)
        plan = write_plan(tmp_path, {
            "estimator": "crossfit_aipw",
            "family": "gaussian",
            "data": {"outcome": "y", "arm": "z", "covariates": ["a", "b"]},
            "folds": {"k": 2, "seed": 3, "stratified": True},
            "learner": {"name": "constant", "params": {}},
            "pi": {"mode": "known", "value": 0.5},
        })
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["analyze", "--data", data, "--plan", plan, "--out", out1]) == 0
        assert main(["analyze", "--data", data, "--plan", plan, "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    @pytest.mark.parametrize("fields, named", [
        ({"seed": -3}, "plan.seed"),
        ({"folds": {"k": 2, "seed": -1}}, "plan.folds.seed"),
    ])
    def test_negative_seed_exit_2(self, tmp_path, capsys, fields, named):
        # a seed numpy cannot take is a config error, before any estimate runs
        data = write(tmp_path, "trial.csv", FOUR_ROW_CSV)
        plan = write_plan(tmp_path, {
            "estimator": "crossfit_aipw", "data": UNADJUSTED_PLAN["data"],
            "learner": "constant", "pi": {"mode": "known", "value": 0.5}, **fields})
        out = tmp_path / "report.json"
        assert main(["validate", "--plan", plan]) == 2
        assert main(["analyze", "--data", data, "--plan", plan, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count(f"{named}: expected int >= 0, got -") == 2

    def test_round_trip_echoed_plan(self, tmp_path):
        data = write(tmp_path, "trial.csv", FOUR_ROW_CSV)
        plan = write_plan(tmp_path, UNADJUSTED_PLAN)
        out1 = str(tmp_path / "r1.json")
        main(["analyze", "--data", data, "--plan", plan, "--out", out1])
        echoed = json.loads(open(out1).read())["plan"]
        plan2 = write_plan(tmp_path, echoed, name="echo.json")
        out2 = str(tmp_path / "r2.json")
        assert main(["analyze", "--data", data, "--plan", plan2, "--out", out2]) == 0
        a = json.loads(open(out1).read())["estimate"]
        b = json.loads(open(out2).read())["estimate"]
        assert a == b

    def test_missing_covariates_are_imputed(self, tmp_path):
        # one missing b cell per arm, so the indicator varies within arms
        csv_text = (
            "y,z,a,b\n"
            "1,1,0.5,\n3,1,1.5,0\n2,1,2.0,1\n4,1,0.8,1\n2,1,1.1,0\n"
            "0,0,2.5,1\n2,0,3.5,NA\n1,0,1.0,0\n3,0,0.3,1\n1,0,2.2,0\n"
        )
        data = write(tmp_path, "trial.csv", csv_text)
        plan = write_plan(tmp_path, {
            "estimator": "standardization",
            "family": "gaussian",
            "data": {"outcome": "y", "arm": "z", "covariates": ["a", "b"]},
        })
        out = str(tmp_path / "report.json")
        assert main(["analyze", "--data", data, "--plan", plan, "--out", out]) == 0
        report = json.loads(open(out).read())
        assert "b_missing" in report["estimate"]["diagnostics"]["columns"]

    def test_indicator_name_already_a_column_exit_3(self, tmp_path, capsys):
        # a's indicator would be a second column named a_missing, and a
        # refit by name would use the covariate in its place
        x = np.random.default_rng(4).standard_normal((40, 2))
        cells = [[f"{v:.3f}" for v in row] for row in x]
        cells[3][0] = cells[20][0] = ""
        rows = "".join(f"{i % 3},{i % 2},{a},{b}\n" for i, (a, b) in enumerate(cells))
        plan = {"estimator": "data_adaptive", "selection": {"method": "none"}}
        for header, code in (("a,a_missing", 3), ("a,other", 0)):
            data = write(tmp_path, "trial.csv", f"y,z,{header}\n" + rows)
            covariates = header.split(",")
            path = write_plan(tmp_path, {
                **plan, "data": {"outcome": "y", "arm": "z", "covariates": covariates}})
            out = tmp_path / f"{code}.json"
            assert main(["analyze", "--data", data, "--plan", path, "--out", str(out)]) == code
            assert out.exists() == (code == 0)
        assert ("data error: missingness indicator 'a_missing' is already a column"
                in capsys.readouterr().err)

    def test_data_error_exit_3(self, tmp_path, capsys):
        data = write(tmp_path, "trial.csv", "y,z,a\n1,2,0\n2,0,1\n")
        plan = write_plan(tmp_path, {
            "estimator": "unadjusted",
            "data": {"outcome": "y", "arm": "z", "covariates": ["a"]},
        })
        code = main(["analyze", "--data", data, "--plan", plan, "--out", str(tmp_path / "o.json")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_non_utf8_file_exit_3(self, tmp_path, capsys):
        data = tmp_path / "trial.csv"
        data.write_bytes(FOUR_ROW_CSV.replace("3.5", "3.5\xff").encode("latin-1"))
        plan = write_plan(tmp_path, UNADJUSTED_PLAN)
        code = main(["analyze", "--data", str(data), "--plan", plan, "--out", str(tmp_path / "o.json")])
        assert code == 3
        assert f"data error: {data}: the file is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])  # the fast and the per-cell reader
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, newline):
        # spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark
        text = FOUR_ROW_CSV.replace("\n", newline).encode("utf-8")
        plan = write_plan(tmp_path, UNADJUSTED_PLAN)
        reports = []
        for name, raw in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            data, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            data.write_bytes(raw)
            assert main(["analyze", "--data", str(data), "--plan", plan, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_outcome_as_covariate_exit_3(self, tmp_path, capsys):
        data = write(tmp_path, "trial.csv", "y,z,a,a\n1,1,0,0\n2,0,1,1\n3,1,2,2\n4,0,3,3\n")
        plan = write_plan(tmp_path, {
            "estimator": "standardization",
            "data": {"outcome": "y", "arm": "z", "covariates": ["y", "a"]},
        })
        code = main(["analyze", "--data", data, "--plan", plan, "--out", str(tmp_path / "o.json")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", BINOMIAL_PLANS)
    def test_binomial_outcome_outside_0_1_exit_3(self, tmp_path, capsys, fields):
        # outcomes 0 and 2 in both arms: refused before any estimator runs,
        # not clipped into [0, 1] by a learner or raised from a fit
        data = binomial_trial(tmp_path, lambda i: 2 * (i // 2 % 2))
        plan = write_plan(tmp_path, {
            **fields, "family": "binomial",
            "data": {"outcome": "y", "arm": "z", "covariates": ["a", "b"]},
        })
        out = tmp_path / "o.json"
        assert main(["analyze", "--data", data, "--plan", plan, "--out", str(out)]) == 3
        assert ("data error: outcome column 'y': binomial outcomes must lie in [0, 1]"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("fields", BINOMIAL_PLANS)
    def test_fractional_binomial_outcome_exit_0(self, tmp_path, fields):
        data = binomial_trial(tmp_path, lambda i: (i * 37 % 101 + 1) / 103)
        plan = write_plan(tmp_path, {
            **fields, "family": "binomial",
            "data": {"outcome": "y", "arm": "z", "covariates": ["a", "b"]},
        })
        out = str(tmp_path / "o.json")
        assert main(["analyze", "--data", data, "--plan", plan, "--out", out]) == 0

    def test_estimation_error_exit_4(self, tmp_path, capsys):
        # perfectly separating covariate: logistic ML does not exist
        rows = "\n".join(f"{z},{z},{z}" for z in (0, 0, 0, 1, 1, 1))
        data = write(tmp_path, "trial.csv", "y,z,a\n" + rows + "\n")
        plan = write_plan(tmp_path, {
            "estimator": "standardization",
            "family": "binomial",
            "data": {"outcome": "y", "arm": "z", "covariates": ["a"]},
        })
        code = main(["analyze", "--data", data, "--plan", plan, "--out", str(tmp_path / "o.json")])
        assert code == 4
        assert "estimation error" in capsys.readouterr().err

    def test_binary_covariate_squared_is_not_selected_twice(self, tmp_path):
        # sex^2 is an exact copy of sex; the lasso must not pick both for the refit
        for seed in range(5):
            rng = np.random.default_rng(seed)
            sex = rng.integers(0, 2, 400)
            age = rng.normal(50, 10, 400).round(1)
            z = rng.permutation(np.repeat([0, 1], 200))
            y = 0.5 * z + 0.8 * sex + 0.05 * age + rng.standard_normal(400)
            rows = "\n".join(f"{a:.6f},{b},{c},{d:g}" for a, b, c, d in zip(y, z, sex, age))
            data = write(tmp_path, "trial.csv", "y,z,sex,age\n" + rows + "\n")
            plan = write_plan(tmp_path, {
                "estimator": "data_adaptive",
                "family": "gaussian",
                "data": {"outcome": "y", "arm": "z", "covariates": ["sex", "age"]},
                "expansion": {"polynomial_degree": 2},
            })
            out = str(tmp_path / "o.json")
            assert main(["analyze", "--data", data, "--plan", plan, "--out", out]) == 0, seed

    def test_max_terms_with_lasso_cv_exit_2(self, tmp_path, capsys):
        # lasso_cv has no cap: with "max_terms": 1 it selected the same
        # columns as without, so a plan that sets it is refused
        d = generate_dataset(DgpSpec("cap", n=400, p=8, pi=0.5, mechanism="linear"), 3)
        names = list(d.column_names)
        rows = "".join(",".join(repr(float(v)) for v in row) + "\n"
                       for row in np.column_stack([d.y, d.z, d.x]))
        data = write(tmp_path, "trial.csv", ",".join(["y", "z", *names]) + "\n" + rows)
        raw = {"estimator": "data_adaptive",
               "data": {"outcome": "y", "arm": "z", "covariates": names},
               "selection": {"method": "lasso_cv", "lambda_rule": "min"}}
        out = str(tmp_path / "o.json")
        assert main(["analyze", "--data", data, "--plan", write_plan(tmp_path, raw),
                     "--out", out]) == 0
        assert len(json.loads(open(out).read())["estimate"]["diagnostics"]["selected_1"]) > 1
        capped = dict(raw, selection=dict(raw["selection"], max_terms=1))
        assert main(["analyze", "--data", data, "--plan", write_plan(tmp_path, capped),
                     "--out", out]) == 2
        assert ("plan.selection: max_terms: method 'lasso_cv' does not read it"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("expansion, repeated", [
        ({"polynomial_degree": 2}, "a^2"),
        ({"interactions": [["a", "b"], ["a", "b"]]}, "a:b"),
    ], ids=["power-named-like-a-covariate", "repeated-interaction"])
    def test_expanded_name_twice_exit_3(self, tmp_path, capsys, expansion, repeated):
        # covariates a and a^2 at degree 2 expand to a, a^2, a^2, a^2^2
        x = np.random.default_rng(4).standard_normal((60, 2))
        rows = "".join(f"{a + b:.4f},{i % 2},{a:.4f},{a * a:.4f},{b:.4f}\n"
                       for i, (a, b) in enumerate(x))
        data = write(tmp_path, "trial.csv", "y,z,a,a^2,b\n" + rows)
        plan = write_plan(tmp_path, {
            "estimator": "data_adaptive", "selection": {"method": "none"},
            "data": {"outcome": "y", "arm": "z", "covariates": ["a", "a^2", "b"]},
            "expansion": expansion,
        })
        code = main(["analyze", "--data", data, "--plan", plan, "--out", str(tmp_path / "o.json")])
        assert code == 3
        assert f"expanded column {repeated!r} is named twice" in capsys.readouterr().err

    def test_unknown_plan_key_exit_2(self, tmp_path, capsys):
        data = write(tmp_path, "trial.csv", FOUR_ROW_CSV)
        plan = write_plan(tmp_path, dict(UNADJUSTED_PLAN, bogus=1))
        code = main(["analyze", "--data", data, "--plan", plan, "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "bogus" in capsys.readouterr().err


class TestValidate:
    def test_valid_plan_exit_0(self, tmp_path, capsys):
        plan = write_plan(tmp_path, UNADJUSTED_PLAN)
        assert main(["validate", "--plan", plan]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True

    def test_k_one_names_the_field(self, tmp_path, capsys):
        plan = write_plan(tmp_path, {
            "estimator": "crossfit_aipw",
            "learner": {"name": "knn", "params": {}},
            "folds": {"k": 1, "seed": 0, "stratified": True},
        })
        assert main(["validate", "--plan", plan]) == 2
        assert "folds.k" in capsys.readouterr().err

    @pytest.mark.parametrize("name,params", [
        ("knn", {"bogus": 1}),
        ("knn", {"k": "abc"}),
        ("knn", {"name": "ridge"}),
        ("ridge", {"lambda_grid": "abc"}),
        ("ridge", {"lambda_grid": 5}),
        ("post_lasso", {"k_cv": 2.5}),
        ("ridge", {"k_cv": None}),
        ("knn", {"k": 0}),
        ("post_lasso", {"k_cv": 1}),
        ("post_lasso", {"lambda_rule": "max"}),
        ("ridge", {"k_cv": 1}),
        ("ridge", {"lambda_grid": []}),
        ("ridge", {"lambda_grid": [-1.0]}),
        ("knn", {"k": True}),
        ("knn", {"k": 2.0}),
        ("ridge", {"lambda_grid": ["0.1"]}),
    ])
    def test_bad_learner_params_exit_2(self, tmp_path, capsys, name, params):
        plan = write_plan(tmp_path, {
            "estimator": "crossfit_aipw",
            "learner": {"name": name, "params": params},
        })
        assert main(["validate", "--plan", plan]) == 2
        assert "plan.learner.params" in capsys.readouterr().err

    def test_null_learner_param_is_the_fields_default(self, tmp_path, capsys):
        # knn's k is `int | None`: null is None, the default ceil(sqrt(n_train))
        plan = write_plan(tmp_path, {
            "estimator": "crossfit_aipw",
            "learner": {"name": "knn", "params": {"k": None}},
        })
        assert main(["validate", "--plan", plan]) == 0

    @pytest.mark.parametrize("fields, named", [
        ({"folds": {"k": "abc"}}, "plan.folds.k"),
        ({"folds": {"seed": [1]}}, "plan.folds.seed"),
        ({"seed": "x"}, "plan.seed"),
        ({"seed": float("inf")}, "plan.seed"),
        ({"selection": {"k_cv": None}}, "plan.selection.k_cv"),
        ({"expansion": {"polynomial_degree": "two"}}, "polynomial_degree"),
        ({"pi": {"mode": "known", "value": "half"}}, "plan.pi.value"),
        ({"selection": {"max_terms": "abc"}}, "plan.selection.max_terms"),
        ({"selection": {"max_terms": -1}}, "plan.selection.max_terms"),
        ({"folds": {"k": 2.7}}, "plan.folds.k"),
        ({"folds": {"k": "3"}}, "plan.folds.k"),
        ({"seed": True}, "plan.seed"),
        ({"selection": {"k_cv": True}}, "plan.selection.k_cv"),
    ])
    def test_bad_number_exit_2(self, tmp_path, capsys, fields, named):
        plan = write_plan(tmp_path, {"estimator": "crossfit_aipw", "learner": "knn", **fields})
        assert main(["validate", "--plan", plan]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("fields, named", [
        ({"folds": 5}, "plan.folds"),
        ({"expansion": None}, "plan.expansion"),
    ])
    def test_section_not_an_object_exit_2(self, tmp_path, capsys, fields, named):
        plan = write_plan(tmp_path, {"estimator": "crossfit_aipw", "learner": "knn", **fields})
        assert main(["validate", "--plan", plan]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("fields, named", [
        ({"eem": "false", "estimator": "data_adaptive"}, "plan.eem"),
        ({"small_sample_correction": "false"}, "plan.small_sample_correction"),
        ({"folds": {"stratified": "false"}}, "plan.folds.stratified"),
        ({"folds": {"stratified": 0}}, "plan.folds.stratified"),
    ])
    def test_flag_must_be_json_boolean(self, tmp_path, capsys, fields, named):
        plan = write_plan(tmp_path, {"estimator": "crossfit_aipw", "learner": "knn", **fields})
        assert main(["validate", "--plan", plan]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("fields, named", [
        ({"data": {"outcome": "y", "arm": "z", "covariates": "ab"}}, "plan.data.covariates"),
        ({"data": {"outcome": "y", "arm": "z", "covariates": ["a", 1]}}, "plan.data.covariates"),
        ({"expansion": {"base_columns": "ab"}}, "plan.expansion.base_columns"),
        ({"expansion": {"forced_columns": "a"}}, "plan.expansion.forced_columns"),
        ({"estimator": "data_adaptive", "pi": {"mode": "parametric", "ps_columns": "a"}},
         "plan.pi.ps_columns"),
    ])
    def test_name_list_must_be_json_list(self, tmp_path, capsys, fields, named):
        plan = write_plan(tmp_path, {"estimator": "crossfit_aipw", "learner": "knn", **fields})
        assert main(["validate", "--plan", plan]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("fields, named", [
        ({"learner": {"name": "knn", "params": 5}}, "plan.learner.params"),
        ({"learner": {"name": "knn", "params": ["k", 3]}}, "plan.learner.params"),
        ({"expansion": {"interactions": [["a", "b", "c"]]}}, "plan.expansion.interactions"),
        ({"expansion": {"interactions": [["a", 1]]}}, "plan.expansion.interactions"),
        ({"expansion": {"interactions": "ab"}}, "plan.expansion.interactions"),
        ({"expansion": {"interactions": 5}}, "plan.expansion.interactions"),
        ({"pi": {"mode": "known", "value": "0.5"}}, "plan.pi.value"),
        ({"data": {"outcome": 5, "arm": "z", "covariates": ["a"]}}, "plan.data.outcome"),
        ({"selection": {"method": 5}}, "plan.selection.method"),
        ({"family": 5}, "plan.family"),
        ({"learner": {"name": ["knn"]}}, "plan.learner.name"),
    ])
    def test_malformed_field_exit_2(self, tmp_path, capsys, fields, named):
        plan = write_plan(tmp_path, {"estimator": "crossfit_aipw", "learner": "knn", **fields})
        assert main(["validate", "--plan", plan]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("spelling, family", [
        ("gaussian", GlmFamily.GAUSSIAN), ("gaussian_identity", GlmFamily.GAUSSIAN),
        ("binomial", GlmFamily.BINOMIAL), ("binomial_logit", GlmFamily.BINOMIAL),
    ])
    def test_family_spellings(self, spelling, family):
        # the short names, and the echo's spellings so that an echoed plan reads back
        assert plan_from_dict({"estimator": "unadjusted", "family": spelling}).family is family

    @pytest.mark.parametrize("value", [" Gaussian ", "GAUSSIAN", 1, None, ["gaussian"]])
    def test_family_is_one_of_the_spellings_exactly(self, tmp_path, capsys, value):
        plan = write_plan(tmp_path, dict(UNADJUSTED_PLAN, family=value))
        assert main(["validate", "--plan", plan]) == 2
        assert "config error: plan.family: expected" in capsys.readouterr().err

    def test_positivity_violation(self, tmp_path, capsys):
        plan = write_plan(tmp_path, {
            "estimator": "unadjusted",
            "pi": {"mode": "known", "value": 0.001},
        })
        assert main(["validate", "--plan", plan]) == 2
        assert "plan.pi.value: expected float >= 0.01, got 0.001" in capsys.readouterr().err

    def test_eem_with_parametric_ps_refused(self, tmp_path, capsys):
        plan = write_plan(tmp_path, {
            "estimator": "data_adaptive",
            "eem": True,
            "pi": {"mode": "parametric", "ps_columns": ["a"]},
        })
        assert main(["validate", "--plan", plan]) == 2
        assert "eem" in capsys.readouterr().err.lower()


    @pytest.mark.parametrize("fields, message", [
        ({"estimator": "crossfit_aipw", "learner": "knn",
          "expansion": {"polynomial_degree": 2}},
         "plan.expansion: estimator 'crossfit_aipw' does not read it"),
        ({"estimator": "standardization", "seed": 3},
         "plan.seed: estimator 'standardization' does not read it"),
        ({"estimator": "data_adaptive", "learner": "knn"},
         "plan.learner: estimator 'data_adaptive' does not read it"),
        ({"estimator": "data_adaptive", "selection": {"max_terms": 2}},
         "plan.selection: max_terms: method 'lasso_cv' does not read it"),
        ({"estimator": "tmle", "selection": {"method": "stepwise_aic", "k_cv": 3}},
         "plan.selection: k_cv: method 'stepwise_aic' does not read it"),
        ({"estimator": "data_adaptive", "selection": {"method": "none", "lambda_rule": "min"}},
         "plan.selection: lambda_rule: method 'none' does not read it"),
        ({"estimator": "data_adaptive", "eem": True, "small_sample_correction": True},
         "plan.small_sample_correction: estimator 'data_adaptive' does not read it with eem"),
        ({"estimator": "strong_null", "learner": "knn", "expansion": {"polynomial_degree": 2}},
         "plan.expansion: estimator 'strong_null' does not read it with learner"),
        ({"estimator": "unadjusted", "folds": {"k": 3}},
         "plan.folds: estimator 'unadjusted' does not read it"),
        ({"estimator": "crossfit_aipw", "learner": "knn", "eem": True},
         "plan.eem: estimator 'crossfit_aipw' does not read it"),
    ])
    def test_field_its_estimator_does_not_read_exit_2(self, tmp_path, capsys, fields, message):
        assert main(["validate", "--plan", write_plan(tmp_path, fields)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_unread_field_at_its_default_is_accepted(self, tmp_path):
        # spelling out a default sets nothing, so echoed plans read back
        plan = write_plan(tmp_path, {
            "estimator": "crossfit_aipw", "learner": "knn", "eem": False,
            "expansion": {"polynomial_degree": 1}, "selection": {"method": "lasso_cv"},
        })
        assert main(["validate", "--plan", plan]) == 0


SIM_SPEC = {
    "dgp": {
        "name": "toy", "n": 40, "p": 2, "pi": 0.5,
        "outcome_kind": "continuous", "mechanism": "linear",
        "effect_size": 0.5, "noise_sd": 1.0,
    },
    "plan": {"estimator": "unadjusted", "family": "gaussian"},
    "replicates": 150,
    "master_seed": 99,
}


class TestSimulate:
    def test_no_worker_count_setting(self, tmp_path, capsys):
        # replicates run serially: neither a flag nor a spec key sets a worker count
        spec = write_plan(tmp_path, SIM_SPEC, name="spec.json")
        out = str(tmp_path / "s.json")
        assert main(["simulate", "--spec", spec, "--out", out, "--threads", "2"]) == 2
        keyed = write_plan(tmp_path, dict(SIM_SPEC, threads=2), name="keyed.json")
        assert main(["simulate", "--spec", keyed, "--out", out]) == 2
        assert "threads" in capsys.readouterr().err

    @pytest.mark.parametrize("change, named", [
        ({"dgp": dict(SIM_SPEC["dgp"], n="abc")}, "spec.dgp.n"),
        ({"dgp": dict(SIM_SPEC["dgp"], n=50.5)}, "spec.dgp.n"),
        ({"replicates": "200"}, "spec.replicates"),
        ({"replicates": "many"}, "spec.replicates"),
        ({"master_seed": None}, "spec.master_seed"),
        ({"paired_unadjusted": "false"}, "spec.paired_unadjusted"),
        ({"plan": {"estimator": "crossfit_aipw",
                   "learner": {"name": "knn", "params": {"k": 0}}}}, "plan.learner.params"),
        ({"plan": {"estimator": "crossfit_aipw", "family": "binomial",
                   "learner": {"name": "knn", "params": {}}}}, "plan.family: binomial"),
        # true_theta is a difference of means: a ratio-scale truth must be pinned
        ({"dgp": dict(SIM_SPEC["dgp"], outcome_kind="binary"),
          "plan": {"estimator": "unadjusted", "family": "binomial",
                   "contrast": "log_odds_ratio"}}, "plan.contrast: log_odds_ratio"),
        ({"plan": dict(SIM_SPEC["plan"], contrast="log_risk_ratio")}, "plan.contrast"),
        # a field the DGP does not read must keep its default
        ({"dgp": dict(SIM_SPEC["dgp"], outcome_kind="binary", noise_sd=2.0)},
         "spec.dgp: noise_sd: a binary outcome does not read it"),
        ({"dgp": dict(SIM_SPEC["dgp"], mechanism="null_effect")},
         "spec.dgp: effect_size: mechanism 'null_effect' does not read it"),
    ])
    def test_bad_spec_fails_before_any_replicate(self, tmp_path, capsys, change, named):
        spec = write_plan(tmp_path, dict(SIM_SPEC, **change), name="spec.json")
        assert main(["simulate", "--spec", spec, "--out", str(tmp_path / "s.json")]) == 2
        assert named in capsys.readouterr().err

    def test_field_its_estimator_does_not_read_exit_2(self, tmp_path, capsys):
        spec = write_plan(tmp_path, dict(SIM_SPEC, plan=dict(SIM_SPEC["plan"], seed=4)),
                          name="spec.json")
        out = tmp_path / "s.json"
        assert main(["simulate", "--spec", spec, "--out", str(out)]) == 2
        assert ("config error: plan.seed: estimator 'unadjusted' does not read it"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("change, named", [
        ({"master_seed": -1}, "spec.master_seed"),
        ({"plan": dict(SIM_SPEC["plan"], seed=-3)}, "plan.seed"),
    ])
    def test_negative_seed_exit_2(self, tmp_path, capsys, change, named):
        spec = write_plan(tmp_path, dict(SIM_SPEC, **change), name="spec.json")
        out = tmp_path / "s.json"
        assert main(["simulate", "--spec", spec, "--out", str(out)]) == 2
        assert not out.exists()
        assert f"{named}: expected int >= 0, got -" in capsys.readouterr().err

    @pytest.mark.parametrize("csv_path", [2, True, ["a"]])
    def test_per_replicate_csv_must_be_a_path(self, tmp_path, capsys, csv_path):
        # open(2) or open(True) would write the CSV into stderr or stdout and close it
        spec = write_plan(tmp_path, dict(SIM_SPEC, per_replicate_csv=csv_path), name="spec.json")
        out = tmp_path / "s.json"
        saved = os.dup(1), os.dup(2)
        try:
            code = main(["simulate", "--spec", spec, "--out", str(out)])
            os.fstat(1), os.fstat(2)  # both still open
        finally:
            for fd, copy in zip((1, 2), saved):
                os.dup2(copy, fd)
                os.close(copy)
        assert code == 2 and not out.exists()
        assert "spec.per_replicate_csv" in capsys.readouterr().err

    def test_report_reasonable(self, tmp_path):
        spec = write_plan(tmp_path, SIM_SPEC, name="spec.json")
        out = str(tmp_path / "s.json")
        main(["simulate", "--spec", spec, "--out", out])
        report = json.loads(open(out).read())["report"]
        assert report["replicates"] == 150
        assert abs(report["bias"]) < 5 * report["mc_se_of_bias"] + 1e-12
        assert 0.85 <= report["coverage_95"] <= 1.0

    def test_per_replicate_csv(self, tmp_path):
        spec = dict(SIM_SPEC)
        spec["per_replicate_csv"] = str(tmp_path / "reps.csv")
        path = write_plan(tmp_path, spec, name="spec.json")
        main(["simulate", "--spec", path, "--out", str(tmp_path / "s.json")])
        lines = open(tmp_path / "reps.csv").read().strip().splitlines()
        assert lines[0] == "replicate,seed,estimate,se"
        assert len(lines) == 151

    def test_null_dgp_rejection_near_nominal(self, tmp_path):
        spec = {
            "dgp": {"name": "null", "n": 80, "p": 2, "pi": 0.5,
                    "outcome_kind": "continuous", "mechanism": "null_effect",
                    "effect_size": 0.0, "noise_sd": 1.0},
            "plan": {"estimator": "standardization", "family": "gaussian"},
            "replicates": 400,
            "master_seed": 321,
        }
        path = write_plan(tmp_path, spec, name="spec.json")
        out = str(tmp_path / "s.json")
        assert main(["simulate", "--spec", path, "--out", out]) == 0
        report = json.loads(open(out).read())["report"]
        se_bin = math.sqrt(0.05 * 0.95 / 400)
        assert abs(report["rejection_rate"] - 0.05) <= 3 * se_bin

    def test_malformed_spec_exit_2(self, tmp_path, capsys):
        spec = write_plan(tmp_path, {"dgp": {"n": 40}}, name="spec.json")
        assert main(["simulate", "--spec", spec, "--out", str(tmp_path / "s.json")]) == 2

    def test_too_few_replicates_exit_2(self, tmp_path):
        spec = dict(SIM_SPEC, replicates=10)
        path = write_plan(tmp_path, spec, name="spec.json")
        assert main(["simulate", "--spec", path, "--out", str(tmp_path / "s.json")]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["simulate", "--spec", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "s.json")]) == 2


def outside(annotation):
    """One value outside the domain of each rule `annotation` declares: a
    name no Literal or Enum lists, and a number past each bound. A rule of
    another kind fails here, so a rule the reader does not know cannot pass
    unseen."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin in (typing.Union, types.UnionType) and args[1:] == (type(None),):
        return outside(args[0])
    if origin is typing.Literal or isinstance(annotation, enum.EnumMeta):
        return ["no_such_value"]
    if origin is not typing.Annotated:
        return []
    base, values = args[0], []
    for bound in args[1:]:
        if isinstance(bound, AtLeast):
            values.append(base(bound.low) - 1)
        elif isinstance(bound, AtMost):
            values.append(base(bound.high) + 1)
        else:
            raise AssertionError(f"no value outside {bound!r}")
    return values


def ruled_fields(cls, keys=()):
    """(JSON keys, value outside the field's domain) for every Literal or
    bounded init field of the dataclass `cls` and of its section classes."""
    hints = typing.get_type_hints(cls, include_extras=True)
    for f in fields(cls):
        if not f.init:
            continue
        annotation, args = hints[f.name], typing.get_args(hints[f.name])
        section = args[0] if args[1:] == (type(None),) else annotation  # X | None
        if is_dataclass(section):
            yield from ruled_fields(section, keys + (f.name,))
        for value in outside(annotation):
            yield keys + (f.name,), value


BASE_PLAN = {"estimator": "crossfit_aipw", "learner": {"name": "knn", "params": {}}}


def rule_cases():
    """(command, dotted field, config) for one value outside every declared
    rule: plans go through `validate`, simulate specs through `simulate`."""
    sources = [("validate", "plan", BASE_PLAN, ruled_fields(AnalysisPlan)),
               ("simulate", "spec", SIM_SPEC, ruled_fields(SimulationRun)),
               ("simulate", "spec", SIM_SPEC, ruled_fields(DgpSpec, ("dgp",)))]
    for name, cls in LEARNERS.items():
        plan = dict(BASE_PLAN, learner={"name": name, "params": {}})
        sources.append(("validate", "plan", plan, ruled_fields(cls, ("learner", "params"))))
    cases = []
    for command, root, base, found in sources:
        for keys, value in found:
            config = copy.deepcopy(base)
            node = config
            for key in keys[:-1]:
                node = node.setdefault(key, {})
            node[keys[-1]] = value
            dotted = ".".join((root,) + keys)
            cases.append(pytest.param(command, dotted, config, id=f"{dotted}={value!r}"))
    return cases


RULE_CASES = rule_cases()


class TestDeclaredRules:
    """Every range and enumeration is declared on a dataclass field, and the
    reader enforces each one at `validate` and `simulate`."""

    def test_every_rule_is_found(self):
        found = {case.values[1] for case in RULE_CASES}
        assert {
            "plan.estimator", "plan.family", "plan.contrast", "plan.seed", "plan.learner.name",
            "plan.selection.method", "plan.selection.k_cv", "plan.selection.lambda_rule",
            "plan.selection.max_terms", "plan.folds.k", "plan.folds.seed", "plan.pi.mode",
            "plan.pi.value", "plan.expansion.polynomial_degree", "plan.learner.params.k",
            "plan.learner.params.k_cv", "plan.learner.params.lambda_rule",
            "spec.replicates", "spec.master_seed", "spec.dgp.n", "spec.dgp.p", "spec.dgp.pi",
            "spec.dgp.outcome_kind", "spec.dgp.mechanism",
        } <= found

    @pytest.mark.parametrize("command, dotted, config", RULE_CASES)
    def test_value_outside_the_rule_exits_2(self, tmp_path, capsys, command, dotted, config):
        if command == "validate":
            argv = ["validate", "--plan", write_plan(tmp_path, config)]
        else:
            out = tmp_path / "s.json"
            argv = ["simulate", "--spec", write_plan(tmp_path, config, name="spec.json"),
                    "--out", str(out)]
        assert main(argv) == 2
        assert f"config error: {dotted}: expected" in capsys.readouterr().err
        assert command == "validate" or not out.exists()

    @staticmethod
    def trial():
        rng = np.random.default_rng(5)
        return TrialDataset(rng.standard_normal(30), np.arange(30) % 2,
                            rng.standard_normal((30, 2)), ("a", "b"))

    @pytest.mark.parametrize("build", [
        lambda d: DgpSpec("d", n=50, p=2, pi=0.5, mechanism="cubic"),
        lambda d: DgpSpec("d", n=50, p=2, pi=0.5, outcome_kind="count"),
        lambda d: PiSpec("bogus"),
        lambda d: PiSpec.known(1.0),
        lambda d: SelectionConfig(method="lasso"),
        lambda d: SelectionConfig(max_terms=-1),
        lambda d: KnnLearner(k=0),
        lambda d: get_learner("gradient_forest"),
        lambda d: make_folds(d.n, 1),
        lambda d: lasso_cv(d.x, d.y, GlmFamily.GAUSSIAN, k_cv=1),
        lambda d: lasso_cv(d.x, d.y, GlmFamily.GAUSSIAN, lambda_rule="max"),
        lambda d: estimate_crossfit_aipw(d, get_learner("constant"),
                                         FoldPlan(np.arange(d.n) % 11 + 1, 11, 0)),
        lambda d: transform_contrast(estimate_unadjusted(d), "risk_ratio"),
    ], ids=["dgp-mechanism", "dgp-outcome-kind", "pi-mode", "pi-value", "selection-method",
            "selection-max-terms", "knn-k", "learner-name", "make-folds-k", "lasso-cv-k",
            "lasso-cv-lambda-rule", "crossfit-11-folds", "contrast"])
    def test_built_directly_the_same_rules_hold(self, build):
        with pytest.raises(ConfigError):
            build(self.trial())


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2


class TestWriteJson:
    def test_non_finite_floats_written_as_null(self, tmp_path):
        path = tmp_path / "report.json"
        _write_json(str(path), {"x": math.inf, "y": math.nan, "z": {"w": [-math.inf, 1.5]}})

        def reject(token):
            pytest.fail(f"report holds the non-JSON token {token}")

        parsed = json.loads(path.read_text(), parse_constant=reject)
        assert parsed == {"x": None, "y": None, "z": {"w": [None, 1.5]}}
