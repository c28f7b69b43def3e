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
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

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


class EstimatorRules(NamedTuple):
    """What a plan for one estimator may set. `pi_modes` lists the allowed
    pi modes, None for a plan without pi (the estimator's own estimate);
    `crossfit` estimators train a learner on folds; `eem` allows EEM mode."""

    pi_modes: tuple[str | None, ...]
    crossfit: bool = False
    eem: bool = False


OVERALL_PI = (None, "known", "estimated_overall")
ESTIMATORS = {
    "unadjusted": EstimatorRules(OVERALL_PI),
    "standardization": EstimatorRules(OVERALL_PI),
    "data_adaptive": EstimatorRules((*OVERALL_PI, "parametric"), eem=True),
    "crossfit_aipw": EstimatorRules((None, "known", "estimated_per_fold"), crossfit=True),
    "tmle": EstimatorRules((*OVERALL_PI, "parametric"), eem=True),
    "cvtmle": EstimatorRules(OVERALL_PI, crossfit=True),
    "strong_null": EstimatorRules(OVERALL_PI),
    "crossfit_aipw_parametric_ps": EstimatorRules(("parametric",), crossfit=True),
}
SELECTION_METHODS = ("lasso_cv", "stepwise_aic", "none")


def _number(kind, value, where: str):
    """`kind(value)` for kind int or float, or a ConfigError naming the field."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None


def _flag(value, where: str) -> bool:
    """A JSON boolean, or a ConfigError naming the field: `bool("false")` is true."""
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true or false, got {value!r}")
    return value


def _names(value, where: str) -> tuple[str, ...]:
    """A JSON list of column names, or a ConfigError naming the field:
    `tuple("ab")` would bind the columns a and b."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{where}: expected a list of column names, got {value!r}")
    return tuple(value)


def _pairs(value, where: str) -> tuple[tuple[str, ...], ...]:
    """A JSON list of [name, name] pairs, or a ConfigError naming the field."""
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in value
    ):
        raise ConfigError(f"{where}: expected a list of [name, name] pairs, got {value!r}")
    return tuple(_names(pair, where) for pair in value)


def _require_keys(obj: dict, allowed, where: str) -> None:
    """Require a JSON object with no keys outside `allowed`, a list of names
    or a dataclass's fields."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {obj!r}")
    if isinstance(allowed, type):
        allowed = [f.name for f in fields(allowed)]
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
    top = ({f.name for f in fields(AnalysisPlan)} - {"learner_params"}) | {"schema_version"}
    _require_keys(obj, top, "plan")
    version = obj.get("schema_version", SCHEMA_VERSION)
    if str(version) != SCHEMA_VERSION:
        raise ConfigError(f"plan.schema_version: unsupported version {version!r}")

    estimator = obj.get("estimator")
    if not isinstance(estimator, str) or estimator not in ESTIMATORS:
        raise ConfigError(
            f"plan.estimator: expected one of {', '.join(ESTIMATORS)}, got {estimator!r}"
        )
    rules = ESTIMATORS[estimator]
    try:
        family = family_from_string(obj.get("family", "gaussian"))
    except ValueError as exc:
        raise ConfigError(f"plan.family: {exc}") from None

    data = None
    if "data" in obj:
        dd = obj["data"]
        _require_keys(dd, DataBinding, "plan.data")
        for key in ("outcome", "arm", "covariates"):
            if key not in dd:
                raise ConfigError(f"plan.data.{key}: required")
        covariates = _names(dd["covariates"], "plan.data.covariates")
        data = DataBinding(dd["outcome"], dd["arm"], covariates)

    ed = obj.get("expansion", {})
    _require_keys(ed, FeatureExpansion, "plan.expansion")
    try:
        base = ed.get("base_columns")
        expansion = FeatureExpansion(
            base_columns=None if base is None else _names(base, "base_columns"),
            interactions=_pairs(ed.get("interactions", []), "interactions"),
            polynomial_degree=_number(int, ed.get("polynomial_degree", 1), "polynomial_degree"),
            forced_columns=_names(ed.get("forced_columns", []), "forced_columns"),
        )
    except ConfigError as exc:
        raise ConfigError(f"plan.expansion: {exc}") from None

    sd = obj.get("selection", {})
    _require_keys(sd, SelectionConfig, "plan.selection")
    max_terms = sd.get("max_terms")
    selection = SelectionConfig(
        method=sd.get("method", "lasso_cv"),
        k_cv=_number(int, sd.get("k_cv", 5), "plan.selection.k_cv"),
        lambda_rule=sd.get("lambda_rule", "1se"),
        max_terms=None if max_terms is None else _number(int, max_terms, "plan.selection.max_terms"),
    )
    if selection.method not in SELECTION_METHODS:
        raise ConfigError(
            f"plan.selection.method: expected one of {', '.join(SELECTION_METHODS)}"
        )
    if selection.k_cv < 2:
        raise ConfigError("plan.selection.k_cv: must be at least 2")
    if selection.lambda_rule not in ("1se", "min"):
        raise ConfigError("plan.selection.lambda_rule: must be '1se' or 'min'")
    if selection.max_terms is not None and selection.max_terms < 0:
        raise ConfigError("plan.selection.max_terms: must be at least 0")

    pi = None
    if "pi" in obj:
        pd = obj["pi"]
        _require_keys(pd, PiSpec, "plan.pi")
        try:
            value = pd.get("value")
            pi = PiSpec(
                pd.get("mode"),
                value=None if value is None else _number(float, value, "value"),
                ps_columns=_names(pd.get("ps_columns", []), "ps_columns"),
            )
        except ConfigError as exc:
            raise ConfigError(f"plan.pi: {exc}") from None

    fd = obj.get("folds", {})
    _require_keys(fd, FoldConfig, "plan.folds")
    folds = FoldConfig(
        k=_number(int, fd.get("k", 5), "plan.folds.k"),
        seed=_number(int, fd.get("seed", 0), "plan.folds.seed"),
        stratified=_flag(fd.get("stratified", True), "plan.folds.stratified"),
    )
    if rules.crossfit and not 2 <= folds.k <= 10:
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
            params = ld.get("params", {})
            if not isinstance(params, dict):
                raise ConfigError(f"plan.learner.params: expected a JSON object, got {params!r}")
            learner_params = dict(params)
        get_learner(learner, **learner_params)  # fail fast on bad names/params
    if rules.crossfit and learner is None:
        raise ConfigError(f"plan.learner: required for estimator {estimator!r}")

    eem = _flag(obj.get("eem", False), "plan.eem")
    if eem and pi is not None and pi.mode == "parametric":
        raise ConfigError(
            "plan.eem: EEM mode cannot be combined with a parametric propensity"
        )
    if eem and not rules.eem:
        supported = " and ".join(name for name, r in ESTIMATORS.items() if r.eem)
        raise ConfigError(f"plan.eem: only {supported} support EEM mode")
    mode = None if pi is None else pi.mode
    if mode not in rules.pi_modes:
        allowed = ", ".join(m for m in rules.pi_modes if m is not None)
        raise ConfigError(
            f"plan.pi.mode: {mode!r} is not valid for estimator "
            f"{estimator!r} (allowed: {allowed})"
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
        small_sample_correction=_flag(
            obj.get("small_sample_correction", False), "plan.small_sample_correction"
        ),
        contrast=contrast,
    )


def plan_to_dict(plan: AnalysisPlan) -> dict:
    """Canonical serializable echo of a plan (round-trips via plan_from_dict).
    Unset optional parts are left out, and `pi` keeps only its mode's field."""
    out = {"schema_version": SCHEMA_VERSION, **asdict(plan), "family": plan.family.value}
    params = out.pop("learner_params")
    if plan.learner is not None:
        out["learner"] = {"name": plan.learner, "params": params}
    if plan.pi is not None:
        if plan.pi.mode != "known":
            del out["pi"]["value"]
        if plan.pi.mode != "parametric":
            del out["pi"]["ps_columns"]
    return {key: value for key, value in out.items() if value is not None}


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
    elif kind in ("data_adaptive", "tmle"):
        estimate = estimate_data_adaptive if kind == "data_adaptive" else estimate_tmle
        result = estimate(
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
    elif ESTIMATORS[kind].crossfit:
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
    else:
        model = get_learner(plan.learner, **plan.learner_params) if plan.learner else plan.expansion
        result = estimate_strong_null(d, model, family, plan.pi, seed=run_seed)

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
    if ESTIMATORS[plan.estimator].crossfit and not plan.folds.stratified:
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
    _require_keys(dd, DgpSpec, "spec.dgp")
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
        "paired_unadjusted": _flag(obj.get("paired_unadjusted", False), "spec.paired_unadjusted"),
        "per_replicate_csv": obj.get("per_replicate_csv"),
    }
    return dgp, plan, run

