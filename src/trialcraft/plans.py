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
rules, which tie fields to each other.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Annotated, Literal, NamedTuple

import numpy as np

from .data import FeatureExpansion, TrialDataset, derived_seed, make_folds
from .errors import AtLeast, ConfigError, DataError, _section
from .estimators import (
    Contrast,
    CrossFitFolds,
    EstimateResult,
    PiSpec,
    estimate_crossfit_aipw,
    estimate_cvtmle,
    estimate_data_adaptive,
    estimate_standardization,
    estimate_strong_null,
    estimate_tmle,
    estimate_unadjusted,
    transform_contrast,
)
from .glm import GlmFamily
from .learners import LearnerName, get_learner
from .selection import SelectionConfig
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
    if rules.crossfit and plan.learner is None:
        raise ConfigError(f"plan.learner: required for estimator {plan.estimator!r}")

    mode = None if plan.pi is None else plan.pi.mode
    if plan.eem and mode == "parametric":
        raise ConfigError(
            "plan.eem: EEM mode cannot be combined with a parametric propensity"
        )
    if plan.eem and not rules.eem:
        supported = " and ".join(name for name, r in ESTIMATORS.items() if r.eem)
        raise ConfigError(f"plan.eem: only {supported} support EEM mode")
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
    if seed is None:
        run_seed = plan.seed
        fold_seed = plan.folds.seed
    else:
        run_seed = seed
        fold_seed = derived_seed(np.random.SeedSequence((seed, 104)))

    kind = plan.estimator
    family = plan.family
    if family is GlmFamily.BINOMIAL and not np.all((d.y >= 0) & (d.y <= 1)):
        name = "the outcome" if plan.data is None else f"outcome column {plan.data.outcome!r}"
        raise DataError(f"{name}: binomial outcomes must lie in [0, 1]")

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
            d, plan.expansion, family, plan.selection, plan.pi, eem=plan.eem, seed=run_seed,
            small_sample_correction=plan.small_sample_correction,
        )
    elif ESTIMATORS[kind].crossfit:
        folds = make_folds(
            d.n, plan.folds.k, d.z, seed=fold_seed, stratified=plan.folds.stratified
        )
        learner = plan.learner.build()
        if kind == "cvtmle":
            result = estimate_cvtmle(d, learner, folds, family, plan.pi, seed=run_seed)
        else:  # crossfit_aipw, and crossfit_aipw_parametric_ps with its parametric pi
            result = estimate_crossfit_aipw(d, learner, folds, plan.pi, family, seed=run_seed)
    else:
        model = plan.learner.build() if plan.learner else plan.expansion
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
    run = _section(top, SimulationRun, "spec")
    return dgp, plan, asdict(run)
