"""Analysis plans: the fully serializable description of one estimator run.

A plan pins everything the analysis depends on (estimator, family, feature
expansion, selection method, randomization-probability handling, folds,
learner, seeds, flags), so re-running it on the same file reproduces every
digit. Parsing is strict, because a plan that silently ignores or converts
a field is not pre-specified: unknown keys are rejected, and every section
is read into its dataclass by `errors._section`, each field by its
annotation (an int field takes a JSON integer, never 2.7, "3" or true).
The dataclasses are the one statement of each field's name, type, default
and allowed values (a `Literal` or an Enum, or bounds in `Annotated`);
`plan_from_dict` adds only the JSON spelling of `learner` and the ESTIMATORS
rules, which tie fields to each other. An ESTIMATORS row is the one
statement of what its estimator reads: `execute_plan` calls the row's
function with those plan fields, and a plan that sets any other field
(bar `family`, `data` and `contrast`) away from its default is refused.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Annotated, Literal, NamedTuple

import numpy as np

from . import estimators
from .data import FeatureExpansion, TrialDataset, derived_seed, make_folds
from .errors import AtLeast, ConfigError, DataError, _section, _set_fields
from .estimators import Contrast, CrossFitFolds, EstimateResult, PiSpec, transform_contrast
from .glm import GlmFamily
from .learners import LearnerName, get_learner
from .selection import SelectionConfig
from .simulation import DgpSpec

SCHEMA_VERSION = "1"


class EstimatorRules(NamedTuple):
    """What a plan for one estimator may set: the `reads` of the function
    `estimators.<function>`, which takes them by keyword after the dataset
    (one that reads `folds` also needs a learner); `pi_modes`, None for no
    pi (the estimator's own estimate); and an `exclusive` pair of read
    fields, the second of which it does not read once the first is set."""

    function: str
    reads: tuple[str, ...]
    pi_modes: tuple[str | None, ...]
    exclusive: tuple[str, str] | None = None


OVERALL_PI = (None, "known", "estimated_overall")
SELECTING = ("expansion", "family", "selection", "pi", "eem", "seed", "small_sample_correction")
CROSSFIT = ("learner", "folds", "pi", "family", "seed")
ESTIMATORS = {
    "unadjusted": EstimatorRules("estimate_unadjusted", ("pi",), OVERALL_PI),
    "standardization": EstimatorRules("estimate_standardization", (
        "expansion", "family", "pi", "small_sample_correction"), OVERALL_PI),
    "data_adaptive": EstimatorRules("estimate_data_adaptive", SELECTING, (
        *OVERALL_PI, "parametric"), ("eem", "small_sample_correction")),
    "crossfit_aipw": EstimatorRules("estimate_crossfit_aipw", CROSSFIT, (
        None, "known", "estimated_per_fold")),
    "tmle": EstimatorRules("estimate_tmle", SELECTING, (*OVERALL_PI, "parametric")),
    "cvtmle": EstimatorRules("estimate_cvtmle", CROSSFIT, OVERALL_PI),
    "strong_null": EstimatorRules("estimate_strong_null", (
        "learner", "family", "pi", "seed", "expansion"), OVERALL_PI, ("learner", "expansion")),
    "crossfit_aipw_parametric_ps": EstimatorRules("estimate_crossfit_aipw", CROSSFIT,
                                                  ("parametric",)),
}


def _top(obj, where: str) -> dict:
    """A copy of a plan or spec object without its schema_version, which must
    be this one."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {obj!r}")
    top = dict(obj)
    version = top.pop("schema_version", SCHEMA_VERSION)
    if str(version) != SCHEMA_VERSION:
        raise ConfigError(f"{where}.schema_version: unsupported version {version!r}")
    return top


# numpy's SeedSequence takes only non-negative integers
Seed = Annotated[int, AtLeast(0)]


@dataclass(frozen=True)
class DataBinding:
    outcome: str
    arm: str
    covariates: tuple[str, ...]


@dataclass(frozen=True)
class FoldConfig:
    k: CrossFitFolds = 5
    seed: Seed = 0
    stratified: bool = True


@dataclass(frozen=True)
class LearnerChoice:
    """A plan's learner: a name in learners.LEARNERS and its fields' values.
    A plan may give the name alone."""

    name: LearnerName
    params: dict = field(default_factory=dict)

    def build(self):
        return get_learner(self.name, **self.params)


@dataclass(frozen=True)
class AnalysisPlan:
    estimator: Literal[tuple(ESTIMATORS)]
    family: GlmFamily = GlmFamily.GAUSSIAN
    data: DataBinding | None = None
    expansion: FeatureExpansion = field(default_factory=FeatureExpansion)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    pi: PiSpec | None = None
    folds: FoldConfig = field(default_factory=FoldConfig)
    learner: LearnerChoice | None = None
    seed: Seed = 0
    eem: bool = False
    small_sample_correction: bool = False
    contrast: Contrast | None = None


def plan_from_dict(obj: dict) -> AnalysisPlan:
    """Parse and validate a plan dictionary. The sections and fields are read
    by their annotations in AnalysisPlan (see errors._section); `learner`
    may be given by its name alone, and the estimator's rules are checked on
    the parsed plan."""
    top = _top(obj, "plan")
    if not isinstance(top.get("learner", {}), dict):
        top["learner"] = {"name": top["learner"]}
    plan = _section(top, AnalysisPlan, "plan")
    if plan.learner is not None:
        plan.learner.build()  # fail fast on bad params

    rules = ESTIMATORS[plan.estimator]
    set_fields = _set_fields(plan)
    refusal = f"estimator {plan.estimator!r} does not read it"
    for name in set_fields:
        if name not in (*rules.reads, "estimator", "family", "data", "contrast"):
            raise ConfigError(f"plan.{name}: {refusal}")
    if rules.exclusive and set(rules.exclusive) <= set(set_fields):
        raise ConfigError(f"plan.{rules.exclusive[1]}: {refusal} with {rules.exclusive[0]}")
    if "folds" in rules.reads and plan.learner is None:
        raise ConfigError(f"plan.learner: required for estimator {plan.estimator!r}")

    mode = None if plan.pi is None else plan.pi.mode
    if plan.eem and mode == "parametric":
        raise ConfigError(
            "plan.eem: EEM mode cannot be combined with a parametric propensity"
        )
    if mode not in rules.pi_modes:
        allowed = ", ".join(m for m in rules.pi_modes if m is not None)
        raise ConfigError(
            f"plan.pi.mode: {mode!r} is not valid for estimator "
            f"{plan.estimator!r} (allowed: {allowed})"
        )
    return plan


def plan_to_dict(plan: AnalysisPlan) -> dict:
    """Canonical serializable echo of a plan (round-trips via plan_from_dict).
    Unset optional parts are left out, and `pi` keeps only its mode's field."""
    out = {"schema_version": SCHEMA_VERSION, **asdict(plan), "family": plan.family.value}
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
    if plan.family is GlmFamily.BINOMIAL and not np.all((d.y >= 0) & (d.y <= 1)):
        name = "the outcome" if plan.data is None else f"outcome column {plan.data.outcome!r}"
        raise DataError(f"{name}: binomial outcomes must lie in [0, 1]")

    rules = ESTIMATORS[plan.estimator]
    args = {name: getattr(plan, name) for name in rules.reads}
    if "seed" in args and seed is not None:
        args["seed"] = seed
    if "folds" in args:
        fold_seed = plan.folds.seed if seed is None else derived_seed(
            np.random.SeedSequence((seed, 104)))
        args["folds"] = make_folds(d.n, plan.folds.k, d.z, fold_seed, plan.folds.stratified)
    if args.get("learner") is not None:
        args["learner"] = plan.learner.build()
    # looked up at each call, so that a wrapper set on the module (a tracer) runs
    result = getattr(estimators, rules.function)(d, **args)

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
    if "folds" in ESTIMATORS[plan.estimator].reads and not plan.folds.stratified:
        warnings.append(
            "unstratified folds can produce single-arm training folds at small n"
        )
    if plan.estimator == "strong_null" and plan.contrast not in (None, "risk_difference"):
        warnings.append("strong_null is a test; ratio contrasts are unusual")
    return warnings


# --- simulation specs -------------------------------------------------------

@dataclass(frozen=True)
class SimulationRun:
    """The run parameters of a simulate spec: run_monte_carlo's arguments,
    and the path of the per-replicate CSV."""

    replicates: Annotated[int, AtLeast(100)]
    master_seed: Seed = 0
    paired_unadjusted: bool = False
    per_replicate_csv: str | None = None


def simulation_spec_from_dict(obj: dict):
    """Parse a simulate config: DGP + plan + run parameters.
    Returns (DgpSpec, AnalysisPlan, dict of run parameters)."""
    top = _top(obj, "spec")
    for key in ("dgp", "plan"):
        if key not in top:
            raise ConfigError(f"spec.{key}: required")
    dgp = _section(top.pop("dgp"), DgpSpec, "spec.dgp", name="dgp")
    plan = plan_from_dict(top.pop("plan"))
    if plan.family is GlmFamily.BINOMIAL and dgp.outcome_kind != "binary":
        raise ConfigError(f"plan.family: binomial needs a binary dgp, not {dgp.outcome_kind!r}")
    ratio = plan.contrast not in (None, "risk_difference")  # true_theta is a difference
    if ratio and dgp.true_theta is None and dgp.mechanism != "null_effect":
        raise ConfigError(f"plan.contrast: {plan.contrast} needs a binary dgp that pins true_theta")
    run = _section(top, SimulationRun, "spec")
    return dgp, plan, asdict(run)
