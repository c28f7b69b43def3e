"""trialcraft: covariate-adjusted marginal treatment effect estimation for
randomized trials, with influence-function standard errors and a Monte
Carlo harness for verifying bias, coverage and efficiency claims."""

from .data import (
    FeatureExpansion,
    FoldPlan,
    TrialDataset,
    expand_features,
    impute_missing,
    ingest_csv,
    make_folds,
)
from .estimators import (
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
from .glm import GlmFamily, GlmFit, fit_least_squares, fit_ml, predict
from .learners import get_learner
from .plans import AnalysisPlan, execute_plan, plan_estimator, plan_from_dict
from .selection import SelectionResult, lasso_cv, post_selection_refit, stepwise_aic
from .simulation import DgpSpec, MonteCarloReport, compute_metrics, generate_dataset, run_monte_carlo

__version__ = "0.1.0"

__all__ = [
    "AnalysisPlan",
    "DgpSpec",
    "EstimateResult",
    "FeatureExpansion",
    "FoldPlan",
    "GlmFamily",
    "GlmFit",
    "MonteCarloReport",
    "PiSpec",
    "SelectionResult",
    "TrialDataset",
    "compute_metrics",
    "estimate_crossfit_aipw",
    "estimate_cvtmle",
    "estimate_data_adaptive",
    "estimate_standardization",
    "estimate_strong_null",
    "estimate_tmle",
    "estimate_unadjusted",
    "execute_plan",
    "expand_features",
    "fit_least_squares",
    "fit_ml",
    "generate_dataset",
    "get_learner",
    "impute_missing",
    "ingest_csv",
    "lasso_cv",
    "make_folds",
    "plan_estimator",
    "plan_from_dict",
    "post_selection_refit",
    "predict",
    "run_monte_carlo",
    "stepwise_aic",
    "transform_contrast",
]
