"""Analysis plans: the fully serializable description of one estimator run.

A plan pins everything the analysis depends on (estimator, family, feature
expansion, selection method, randomization-probability handling, folds,
learner, seeds, flags), so re-running it on the same file reproduces every
digit. Parsing is strict: unknown keys are rejected, because a plan that
silently ignores a field is not pre-specified.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .data import FeatureExpansion, TrialDataset, derived_seed, make_folds
from .errors import ConfigError
from .estimators import (
    CONTRASTS,
    EstimateResult,
    PiSpec,
    estimate_crossfit_aipw,
    estimate_crossfit_aipw_parametric_ps,
    estimate_cvtmle,
    estimate_data_adaptive,
    estimate_standardization,
    estimate_strong_null,
    estimate_tmle,
    estimate_unadjusted,
    transform_contrast,
)
from .glm import GlmFamily, family_from_string
from .learners import get_learner
from .simulation import DgpSpec

SCHEMA_VERSION = "1"

ESTIMATORS = (
    "unadjusted",
    "standardization",
    "data_adaptive",
    "crossfit_aipw",
    "tmle",
    "cvtmle",
    "strong_null",
    "crossfit_aipw_parametric_ps",
)
SELECTION_METHODS = ("lasso_cv", "stepwise_aic", "none")
NEEDS_FOLDS = ("crossfit_aipw", "cvtmle", "crossfit_aipw_parametric_ps")
NEEDS_LEARNER = ("crossfit_aipw", "cvtmle", "crossfit_aipw_parametric_ps")


def _number(kind, value, where: str):
    """`kind(value)` for kind int or float, or a ConfigError naming the field."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None


def _require_keys(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


@dataclass(frozen=True)
class DataBinding:
    outcome: str
    arm: str
    covariates: tuple[str, ...]


@dataclass(frozen=True)
class FoldConfig:
    k: int = 5
    seed: int = 0
    stratified: bool = True


@dataclass(frozen=True)
class SelectionConfig:
    method: str = "lasso_cv"
    k_cv: int = 5
    lambda_rule: str = "1se"
    max_terms: int | None = None


@dataclass(frozen=True)
class AnalysisPlan:
    estimator: str
    family: GlmFamily = GlmFamily.GAUSSIAN
    data: DataBinding | None = None
    expansion: FeatureExpansion = field(default_factory=FeatureExpansion)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    pi: PiSpec | None = None
    folds: FoldConfig = field(default_factory=FoldConfig)
    learner: str | None = None
    learner_params: dict = field(default_factory=dict)
    seed: int = 0
    eem: bool = False
    small_sample_correction: bool = False
    contrast: str | None = None


def plan_from_dict(obj: dict) -> AnalysisPlan:
    """Parse and validate a plan dictionary (strict keys, named fields)."""
    if not isinstance(obj, dict):
        raise ConfigError("plan must be a JSON object")
    _require_keys(
        obj,
        (
            "schema_version", "estimator", "family", "data", "expansion",
            "selection", "pi", "folds", "learner", "seed", "eem",
            "small_sample_correction", "contrast",
        ),
        "plan",
    )
    version = obj.get("schema_version", SCHEMA_VERSION)
    if str(version) != SCHEMA_VERSION:
        raise ConfigError(f"plan.schema_version: unsupported version {version!r}")

    estimator = obj.get("estimator")
    if estimator not in ESTIMATORS:
        raise ConfigError(
            f"plan.estimator: expected one of {', '.join(ESTIMATORS)}, got {estimator!r}"
        )
    try:
        family = family_from_string(obj.get("family", "gaussian"))
    except ValueError as exc:
        raise ConfigError(f"plan.family: {exc}") from None

    data = None
    if "data" in obj:
        dd = obj["data"]
        _require_keys(dd, ("outcome", "arm", "covariates"), "plan.data")
        for key in ("outcome", "arm", "covariates"):
            if key not in dd:
                raise ConfigError(f"plan.data.{key}: required")
        data = DataBinding(dd["outcome"], dd["arm"], tuple(dd["covariates"]))

    ed = obj.get("expansion", {})
    _require_keys(
        ed, ("base_columns", "interactions", "polynomial_degree", "forced_columns"),
        "plan.expansion",
    )
    try:
        expansion = FeatureExpansion(
            base_columns=tuple(ed["base_columns"]) if ed.get("base_columns") is not None else None,
            interactions=tuple(tuple(pair) for pair in ed.get("interactions", ())),
            polynomial_degree=_number(int, ed.get("polynomial_degree", 1), "polynomial_degree"),
            forced_columns=tuple(ed.get("forced_columns", ())),
        )
    except ConfigError as exc:
        raise ConfigError(f"plan.expansion: {exc}") from None

    sd = obj.get("selection", {})
    _require_keys(sd, ("method", "k_cv", "lambda_rule", "max_terms"), "plan.selection")
    selection = SelectionConfig(
        method=sd.get("method", "lasso_cv"),
        k_cv=_number(int, sd.get("k_cv", 5), "plan.selection.k_cv"),
        lambda_rule=sd.get("lambda_rule", "1se"),
        max_terms=sd.get("max_terms"),
    )
    if selection.method not in SELECTION_METHODS:
        raise ConfigError(
            f"plan.selection.method: expected one of {', '.join(SELECTION_METHODS)}"
        )
    if selection.k_cv < 2:
        raise ConfigError("plan.selection.k_cv: must be at least 2")
    if selection.lambda_rule not in ("1se", "min"):
        raise ConfigError("plan.selection.lambda_rule: must be '1se' or 'min'")

    pi = None
    if "pi" in obj:
        pd = obj["pi"]
        _require_keys(pd, ("mode", "value", "ps_columns"), "plan.pi")
        mode = pd.get("mode")
        try:
            if mode == "known":
                pi = PiSpec.known(_number(float, pd["value"], "value"))
            elif mode == "estimated_overall":
                pi = PiSpec.estimated()
            elif mode == "estimated_per_fold":
                pi = PiSpec.per_fold()
            elif mode == "parametric":
                pi = PiSpec.parametric(tuple(pd.get("ps_columns", ())))
            else:
                raise ConfigError(f"plan.pi.mode: unknown mode {mode!r}")
        except KeyError:
            raise ConfigError("plan.pi.value: required for known pi") from None
        except ConfigError as exc:
            raise ConfigError(f"plan.pi: {exc}") from None

    fd = obj.get("folds", {})
    _require_keys(fd, ("k", "seed", "stratified"), "plan.folds")
    folds = FoldConfig(
        k=_number(int, fd.get("k", 5), "plan.folds.k"),
        seed=_number(int, fd.get("seed", 0), "plan.folds.seed"),
        stratified=bool(fd.get("stratified", True)),
    )
    if estimator in NEEDS_FOLDS and not 2 <= folds.k <= 10:
        raise ConfigError("plan.folds.k: must lie in [2, 10]")

    learner = None
    learner_params: dict = {}
    if "learner" in obj:
        ld = obj["learner"]
        if isinstance(ld, str):
            learner = ld
        else:
            _require_keys(ld, ("name", "params"), "plan.learner")
            learner = ld.get("name")
            learner_params = dict(ld.get("params", {}))
        get_learner(learner, **learner_params)  # fail fast on bad names/params
    if estimator in NEEDS_LEARNER and learner is None:
        raise ConfigError(f"plan.learner: required for estimator {estimator!r}")

    eem = bool(obj.get("eem", False))
    if eem and pi is not None and pi.mode == "parametric":
        raise ConfigError(
            "plan.eem: EEM mode cannot be combined with a parametric propensity"
        )
    if eem and estimator not in ("data_adaptive", "tmle"):
        raise ConfigError("plan.eem: only data_adaptive and tmle support EEM mode")
    if estimator == "crossfit_aipw_parametric_ps":
        if pi is None or pi.mode != "parametric":
            raise ConfigError(
                "plan.pi: crossfit_aipw_parametric_ps requires mode 'parametric'"
            )
    if pi is not None:
        allowed_modes = {
            "unadjusted": ("known", "estimated_overall"),
            "standardization": ("known", "estimated_overall"),
            "strong_null": ("known", "estimated_overall"),
            "cvtmle": ("known", "estimated_overall"),
            "crossfit_aipw": ("known", "estimated_per_fold"),
            "data_adaptive": ("known", "estimated_overall", "parametric"),
            "tmle": ("known", "estimated_overall", "parametric"),
            "crossfit_aipw_parametric_ps": ("parametric",),
        }[estimator]
        if pi.mode not in allowed_modes:
            raise ConfigError(
                f"plan.pi.mode: {pi.mode!r} is not valid for estimator "
                f"{estimator!r} (allowed: {', '.join(allowed_modes)})"
            )

    contrast = obj.get("contrast")
    if contrast is not None and contrast not in CONTRASTS:
        raise ConfigError(f"plan.contrast: expected one of {', '.join(CONTRASTS)}")

    return AnalysisPlan(
        estimator=estimator,
        family=family,
        data=data,
        expansion=expansion,
        selection=selection,
        pi=pi,
        folds=folds,
        learner=learner,
        learner_params=learner_params,
        seed=_number(int, obj.get("seed", 0), "plan.seed"),
        eem=eem,
        small_sample_correction=bool(obj.get("small_sample_correction", False)),
        contrast=contrast,
    )


def plan_to_dict(plan: AnalysisPlan) -> dict:
    """Canonical serializable echo of a plan (round-trips via plan_from_dict)."""
    out: dict = {
        "schema_version": SCHEMA_VERSION,
        "estimator": plan.estimator,
        "family": plan.family.value,
        "expansion": {
            "base_columns": list(plan.expansion.base_columns) if plan.expansion.base_columns is not None else None,
            "interactions": [list(pair) for pair in plan.expansion.interactions],
            "polynomial_degree": plan.expansion.polynomial_degree,
            "forced_columns": list(plan.expansion.forced_columns),
        },
        "selection": {
            "method": plan.selection.method,
            "k_cv": plan.selection.k_cv,
            "lambda_rule": plan.selection.lambda_rule,
            "max_terms": plan.selection.max_terms,
        },
        "folds": {
            "k": plan.folds.k,
            "seed": plan.folds.seed,
            "stratified": plan.folds.stratified,
        },
        "seed": plan.seed,
        "eem": plan.eem,
        "small_sample_correction": plan.small_sample_correction,
    }
    if plan.data is not None:
        out["data"] = {
            "outcome": plan.data.outcome,
            "arm": plan.data.arm,
            "covariates": list(plan.data.covariates),
        }
    if plan.pi is not None:
        pi_dict: dict = {"mode": plan.pi.mode}
        if plan.pi.mode == "known":
            pi_dict["value"] = plan.pi.value
        if plan.pi.mode == "parametric":
            pi_dict["ps_columns"] = list(plan.pi.ps_columns)
        out["pi"] = pi_dict
    if plan.learner is not None:
        out["learner"] = {"name": plan.learner, "params": plan.learner_params}
    if plan.contrast is not None:
        out["contrast"] = plan.contrast
    return out


def plan_hash(plan: AnalysisPlan) -> str:
    payload = json.dumps(plan_to_dict(plan), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def execute_plan(d: TrialDataset, plan: AnalysisPlan, seed: int | None = None) -> EstimateResult:
    """Run the planned estimator on a dataset.

    `seed=None` uses the plan's own seeds (exact reproducibility for
    `analyze`); the Monte Carlo harness passes a per-replicate seed instead,
    which also re-derives the fold seed so fold randomness is integrated
    over replicates.
    """
    if seed is None:
        run_seed = plan.seed
        fold_seed = plan.folds.seed
    else:
        run_seed = seed
        fold_seed = derived_seed(np.random.SeedSequence((seed, 104)))

    kind = plan.estimator
    family = plan.family

    if kind == "unadjusted":
        result = estimate_unadjusted(d, plan.pi)
    elif kind == "standardization":
        result = estimate_standardization(
            d, plan.expansion, family, plan.pi,
            small_sample_correction=plan.small_sample_correction,
        )
    elif kind == "data_adaptive":
        result = estimate_data_adaptive(
            d, plan.expansion, family,
            method=plan.selection.method,
            forced=plan.expansion.forced_columns,
            pi=plan.pi,
            eem=plan.eem,
            seed=run_seed,
            small_sample_correction=plan.small_sample_correction,
            selection_k_cv=plan.selection.k_cv,
            lambda_rule=plan.selection.lambda_rule,
            max_terms=plan.selection.max_terms,
        )
    elif kind == "tmle":
        result = estimate_tmle(
            d, plan.expansion, family,
            method=plan.selection.method,
            forced=plan.expansion.forced_columns,
            pi=plan.pi,
            eem=plan.eem,
            seed=run_seed,
            small_sample_correction=plan.small_sample_correction,
            selection_k_cv=plan.selection.k_cv,
            lambda_rule=plan.selection.lambda_rule,
            max_terms=plan.selection.max_terms,
        )
    elif kind in ("crossfit_aipw", "cvtmle", "crossfit_aipw_parametric_ps"):
        folds = make_folds(
            d.n, plan.folds.k, d.z, seed=fold_seed, stratified=plan.folds.stratified
        )
        learner = get_learner(plan.learner, **plan.learner_params)
        if kind == "crossfit_aipw":
            result = estimate_crossfit_aipw(d, learner, folds, plan.pi, family, seed=run_seed)
        elif kind == "cvtmle":
            result = estimate_cvtmle(d, learner, folds, family, plan.pi, seed=run_seed)
        else:
            result = estimate_crossfit_aipw_parametric_ps(
                d, learner, folds, plan.pi.ps_columns, family, seed=run_seed
            )
    elif kind == "strong_null":
        model = get_learner(plan.learner, **plan.learner_params) if plan.learner else plan.expansion
        result = estimate_strong_null(d, model, family, plan.pi, seed=run_seed)
    else:  # pragma: no cover - plan_from_dict already rejects
        raise ConfigError(f"unknown estimator {kind!r}")

    if plan.contrast is not None:
        result = transform_contrast(result, plan.contrast)
    return result


def plan_estimator(plan: AnalysisPlan):
    """Adapter for run_monte_carlo: (dataset, seed) -> EstimateResult."""

    def estimate(dataset: TrialDataset, seed: int) -> EstimateResult:
        return execute_plan(dataset, plan, seed=seed)

    return estimate


def validate_plan(plan: AnalysisPlan) -> list[str]:
    """Cross-field consistency checks beyond parsing; returns warnings."""
    warnings: list[str] = []
    if plan.pi is not None and plan.pi.mode == "known":
        if not 0.05 <= plan.pi.value <= 0.95:
            warnings.append(
                f"known pi={plan.pi.value} is close to the positivity boundary"
            )
    if plan.estimator in NEEDS_FOLDS and not plan.folds.stratified:
        warnings.append(
            "unstratified folds can produce single-arm training folds at small n"
        )
    if plan.estimator == "strong_null" and plan.contrast not in (None, "risk_difference"):
        warnings.append("strong_null is a test; ratio contrasts are unusual")
    return warnings


# --- simulation specs -------------------------------------------------------

def simulation_spec_from_dict(obj: dict):
    """Parse a simulate config: DGP + plan + run parameters.
    Returns (DgpSpec, AnalysisPlan, dict of run parameters)."""
    if not isinstance(obj, dict):
        raise ConfigError("simulation spec must be a JSON object")
    _require_keys(
        obj,
        ("schema_version", "dgp", "plan", "replicates", "master_seed",
         "paired_unadjusted", "per_replicate_csv"),
        "spec",
    )
    version = obj.get("schema_version", SCHEMA_VERSION)
    if str(version) != SCHEMA_VERSION:
        raise ConfigError(f"spec.schema_version: unsupported version {version!r}")
    if "dgp" not in obj:
        raise ConfigError("spec.dgp: required")
    dd = obj["dgp"]
    _require_keys(
        dd,
        ("name", "n", "p", "pi", "outcome_kind", "mechanism", "effect_size",
         "noise_sd", "true_theta"),
        "spec.dgp",
    )
    try:
        dgp = DgpSpec(
            name=dd.get("name", "dgp"),
            n=_number(int, dd["n"], "n"),
            p=_number(int, dd["p"], "p"),
            pi=_number(float, dd["pi"], "pi"),
            outcome_kind=dd.get("outcome_kind", "continuous"),
            mechanism=dd.get("mechanism", "linear"),
            effect_size=_number(float, dd.get("effect_size", 0.0), "effect_size"),
            noise_sd=_number(float, dd.get("noise_sd", 1.0), "noise_sd"),
            true_theta=(_number(float, dd["true_theta"], "true_theta")
                        if dd.get("true_theta") is not None else None),
        )
    except KeyError as exc:
        raise ConfigError(f"spec.dgp.{exc.args[0]}: required") from None
    except ConfigError as exc:
        raise ConfigError(f"spec.dgp: {exc}") from None

    if "plan" not in obj:
        raise ConfigError("spec.plan: required")
    plan = plan_from_dict(obj["plan"])

    replicates = _number(int, obj.get("replicates", 0), "spec.replicates")
    if replicates < 100:
        raise ConfigError("spec.replicates: must be at least 100")
    run = {
        "replicates": replicates,
        "master_seed": _number(int, obj.get("master_seed", 0), "spec.master_seed"),
        "paired_unadjusted": bool(obj.get("paired_unadjusted", False)),
        "per_replicate_csv": obj.get("per_replicate_csv"),
    }
    return dgp, plan, run


def dgp_to_dict(dgp: DgpSpec) -> dict:
    return {
        "name": dgp.name,
        "n": dgp.n,
        "p": dgp.p,
        "pi": dgp.pi,
        "outcome_kind": dgp.outcome_kind,
        "mechanism": dgp.mechanism,
        "effect_size": dgp.effect_size,
        "noise_sd": dgp.noise_sd,
        "true_theta": dgp.true_theta,
    }
