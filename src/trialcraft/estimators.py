"""Point estimators of the marginal treatment effect theta = E(Y|Z=1) -
E(Y|Z=0), each returning per-participant influence contributions so that
standard errors and contrast transforms are uniform across methods.

The family:

  unadjusted          difference in sample means
  standardization     per-arm canonical ML GLM, predict everyone, average
  data_adaptive       per-arm selection (lasso / stepwise) + ML refit
  tmle                data-adaptive initial fit + one-parameter offset update
  crossfit_aipw       K-fold cross-fitting with arbitrary learners
  cvtmle              cross-fitted initial predictions, pooled update
  strong_null         one pooled covariate-only model, no splitting

A PiSpec says how the randomization probability enters. A parametric pi is
a logistic propensity model on pre-specified columns, fitted by
`_propensities`: over everyone for data_adaptive and tmle
(`propensity_scores`), within each fold for crossfit_aipw, whose method
label then reads crossfit_aipw_parametric_ps.

Standardization-type estimators coincide with their AIPW form because the
canonical ML fit zeroes the within-arm residual sums; cross-fit estimators
use the explicit AIPW average because that identity no longer holds under
sample splitting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Annotated, Literal

import numpy as np

from . import variance
from .data import (
    FeatureExpansion,
    FoldCount,
    FoldPlan,
    TrialDataset,
    _zero_variance,
    check_complete,
    derived_seed,
    expand_features,
)
from .errors import AtLeast, AtMost, ConfigError, DegenerateFold, DomainError, EstimationError
from .errors import _check, _read, _set_fields
from .glm import (
    GlmFamily,
    _fitted,
    clamp_probabilities,
    fit_least_squares,
    fit_ml,
    fit_ml_design,
    fit_mls,
    predict,
)
from .selection import METHOD_READS, SelectionConfig, SelectionResult, _refit_columns, lasso_cvs
from .selection import stepwise_aic

Z_CRIT = 1.959964
TMLE_PRED_CLIP = 1e-6
# the cross-fit estimators split into 2 to 10 folds
CrossFitFolds = Annotated[FoldCount, AtMost(10)]
Contrast = Literal["risk_difference", "log_risk_ratio", "log_odds_ratio"]


@dataclass(frozen=True)
class PiSpec:
    """How the randomization probability enters an estimator.

    known(pi)        plug in the design value; correction terms drop out
    estimated()      overall empirical share of treated (no splitting)
    per_fold()       per-fold empirical share (cross-fit estimators)
    parametric(cols) logistic model on pre-specified columns, no selection

    Only known takes a `value` and only parametric takes `ps_columns`.
    """

    mode: Literal["known", "estimated_overall", "estimated_per_fold", "parametric"]
    # a known pi keeps away from 0 and 1 (positivity)
    value: Annotated[float, AtLeast(0.01), AtMost(0.99)] | None = None
    ps_columns: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check(self)
        if self.mode == "known":
            if self.value is None:
                raise ConfigError("known pi requires a value")
        elif self.value is not None:
            raise ConfigError(f"pi mode {self.mode!r} takes no value")
        if self.mode != "parametric" and self.ps_columns:
            raise ConfigError(f"pi mode {self.mode!r} takes no ps_columns")

    @classmethod
    def known(cls, pi: float) -> "PiSpec":
        return cls("known", value=float(pi))

    @classmethod
    def estimated(cls) -> "PiSpec":
        return cls("estimated_overall")

    @classmethod
    def per_fold(cls) -> "PiSpec":
        return cls("estimated_per_fold")

    @classmethod
    def parametric(cls, ps_columns) -> "PiSpec":
        return cls("parametric", ps_columns=tuple(ps_columns))


@dataclass(frozen=True)
class EstimateResult:
    """theta_hat = mu1_hat - mu0_hat exactly; if_mu1/if_mu0 are the
    per-participant influence contributions, centered so each has mean zero;
    the 95% interval is Wald with the normal quantile."""

    theta_hat: float
    mu1_hat: float
    mu0_hat: float
    if_mu1: np.ndarray
    if_mu0: np.ndarray
    se: float
    ci_low: float
    ci_high: float
    method: str
    diagnostics: dict = field(default_factory=dict)


def _package(method, mu1, mu0, v1, v0, diagnostics, variance_factor: float = 1.0):
    mu1 = float(mu1)
    mu0 = float(mu0)
    theta = mu1 - mu0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the SE
        values = v1 - v0
    se = variance.se_from_values(values) * math.sqrt(variance_factor)
    half = Z_CRIT * se
    return EstimateResult(
        theta_hat=theta,
        mu1_hat=mu1,
        mu0_hat=mu0,
        if_mu1=v1 - v1.mean(),
        if_mu0=v0 - v0.mean(),
        se=se,
        ci_low=theta - half,
        ci_high=theta + half,
        method=method,
        diagnostics=diagnostics,
    )


def _overall_pi(d: TrialDataset, pi: PiSpec | None) -> float:
    if pi is None or pi.mode == "estimated_overall":
        return d.n_treated / d.n
    if pi.mode == "known":
        return float(pi.value)
    raise ConfigError(f"pi mode {pi.mode!r} is not valid for this estimator")


def _small_sample_factor(apply: bool, d: TrialDataset, p1, p0) -> float:
    """Variance inflation [(n0-p0-1)^-1 + (n1-p1-1)^-1] / [(n0-1)^-1 + (n1-1)^-1]
    with p_z the non-intercept parameter count of the arm-z fit; 1 unless `apply`."""
    if not apply:
        return 1.0
    n1, n0 = d.n_treated, d.n_control
    if n1 - p1 - 1 <= 0 or n0 - p0 - 1 <= 0:
        raise EstimationError("too few residual degrees of freedom for the small-sample factor")
    return ((1 / (n0 - p0 - 1)) + (1 / (n1 - p1 - 1))) / ((1 / (n0 - 1)) + (1 / (n1 - 1)))


# --- propensity ----------------------------------------------------------

def propensity_scores(d: TrialDataset, ps_columns, rows=slice(None)):
    """Logistic fit of the arm indicator on pre-specified columns (with
    intercept) over `rows`, and its fitted treatment probabilities there,
    clamped into [0.01, 0.99]. No selection is allowed for the propensity
    model. Returns (p_hat, clamp_count)."""
    return next(_propensities(d, ps_columns, [rows]))


def _propensities(d: TrialDataset, ps_columns, row_sets):
    """`propensity_scores` over each of `row_sets`, their logistic fits
    walking `fit_mls`, one stack per row count: an iterator that raises a
    set's fit error when it reaches that set."""
    xs = [d.columns(ps_columns)[rows] for rows in row_sets]
    fits = fit_mls([(x, d.z[rows]) for x, rows in zip(xs, row_sets)], GlmFamily.BINOMIAL)
    return (clamp_probabilities(predict(_fitted(fit), x)) for x, fit in zip(xs, fits))


# --- unadjusted / standardization ----------------------------------------

def estimate_unadjusted(
    d: TrialDataset,
    pi: PiSpec | None = None,
) -> EstimateResult:
    """Difference in sample means, with influence contributions that treat
    the arm means as the (constant) outcome predictions."""
    check_complete(d)
    pi_hat = _overall_pi(d, pi)
    with np.errstate(over="ignore"):  # an overflowed mean fails the SE
        ybar1 = float(d.y[d.z == 1].mean())
        ybar0 = float(d.y[d.z == 0].mean())
    pred1 = np.full(d.n, ybar1)
    pred0 = np.full(d.n, ybar0)
    _, _, v1, v0 = variance.aipw(d.y, d.z, pred1, pred0, pi_hat)
    return _package(
        "unadjusted", ybar1, ybar0, v1, v0,
        {"pi_hat": pi_hat, "pred1": pred1, "pred0": pred0},
    )


def _arm_rows(d: TrialDataset, arm: int) -> np.ndarray:
    return np.flatnonzero(d.z == arm)


def estimate_standardization(
    d: TrialDataset,
    expansion: FeatureExpansion | None = None,
    family: GlmFamily = GlmFamily.GAUSSIAN,
    pi: PiSpec | None = None,
    small_sample_correction: bool = False,
) -> EstimateResult:
    """Per-arm canonical ML fit on all (expanded) covariates, predict every
    participant under each arm, average the predictions."""
    check_complete(d)
    work = expand_features(d, expansion) if expansion is not None else d
    pi_hat = _overall_pi(d, pi)
    preds = {}
    for arm in (1, 0):
        rows = _arm_rows(d, arm)
        fit = fit_ml(work.x[rows], work.y[rows], family)
        preds[arm] = predict(fit, work.x)
    mu1 = float(preds[1].mean())
    mu0 = float(preds[0].mean())
    _, _, v1, v0 = variance.aipw(d.y, d.z, preds[1], preds[0], pi_hat)
    factor = _small_sample_factor(small_sample_correction, d, work.p, work.p)
    return _package(
        "standardization", mu1, mu0, v1, v0,
        {
            "pi_hat": pi_hat,
            "pred1": preds[1],
            "pred0": preds[0],
            "columns": list(work.column_names),
            "small_sample_factor": factor,
        },
        variance_factor=factor,
    )


# --- data-adaptive (selection + refit) ------------------------------------

def _select_arms(arms, family, selection: SelectionConfig, names):
    """An iterator of each arm's SelectionResult from its (x, y, seed): both
    arms' lassos in one `lasso_cvs`, or each arm, when reached, by stepwise
    AIC or by dropping its constant columns (`none`)."""
    args = {name: getattr(selection, name) for name in METHOD_READS[selection.method]}
    if selection.method == "lasso_cv":
        return lasso_cvs(dict(x=x, y=y, family=family, seed=seed, column_names=names, **args)
                         for x, y, seed in arms)
    if selection.method == "stepwise_aic":
        return (stepwise_aic(x, y, family, column_names=names, **args) for x, y, _ in arms)

    def usable(x):
        with np.errstate(over="ignore", invalid="ignore"):  # a 1e150 column overflows its SD
            constant = _zero_variance(x.mean(axis=0), x.std(axis=0))
        return SelectionResult(tuple(name for name, c in zip(names, constant) if not c))

    return (usable(x) for x, _, _ in arms)


def _first_stage(d, expansion, family, selection: SelectionConfig, pi, eem, seed, weighted,
                 small_sample_correction):
    """Steps 1a and 1b, shared by data_adaptive and tmle. A parametric `pi`
    (refused in EEM mode) is fitted first. Each arm's covariates are then
    selected, and refit on the selected plus the expansion's forced columns (ML,
    or least squares in EEM mode), weighted by the arm's inverse propensity
    when `weighted`. Returns each arm's inverse propensity over all
    participants (None unless `pi` is parametric), the pi the influence
    values use, each arm's refit columns and predictions for every
    participant, and the diagnostics the two estimators share."""
    parametric = pi is not None and pi.mode == "parametric"
    if parametric and eem:
        raise ConfigError("EEM mode with a parametric propensity is not supported")
    check_complete(d)
    p_hat, clamp_count = propensity_scores(d, pi.ps_columns) if parametric else (None, 0)
    inverse = {1: 1.0 / p_hat, 0: 1.0 / (1.0 - p_hat)} if parametric else None
    work = expand_features(d, expansion) if expansion is not None else d
    forced = expansion.forced_columns if expansion is not None else ()
    fitter = fit_least_squares if eem else fit_ml
    selected, refit, preds = {}, {}, {}
    warnings: list[str] = []
    arm_rows = {arm: _arm_rows(d, arm) for arm in (1, 0)}
    arms = [(work.x[rows], work.y[rows], derived_seed(np.random.SeedSequence((seed, 901, arm))))
            for arm, rows in arm_rows.items()]
    selections = _select_arms(arms, family, selection, work.column_names)
    for (arm, rows), (x_arm, y_arm, _), sel in zip(arm_rows.items(), arms, selections):
        warnings.extend(sel.warnings)
        w_rows = inverse[arm][rows] if weighted and parametric else None
        chosen, idx = _refit_columns(work.column_names, sel, forced)
        fit = fitter(x_arm[:, idx], y_arm, family, w_rows)
        selected[arm], refit[arm] = list(sel.selected_columns), chosen
        preds[arm] = predict(fit, work.x[:, idx])
    pi_hat = p_hat if parametric else _overall_pi(d, pi)
    factor = _small_sample_factor(small_sample_correction, d, len(refit[1]), len(refit[0]))
    diagnostics = {
        "selected_1": selected[1],
        "selected_0": selected[0],
        "pi_hat": None if parametric else pi_hat,
        "propensity_clamped": clamp_count,
        "eem": eem,
        "warnings": warnings,
        "small_sample_factor": factor,
    }
    return inverse, pi_hat, refit, preds, diagnostics


def estimate_data_adaptive(
    d: TrialDataset,
    expansion: FeatureExpansion | None = None,
    family: GlmFamily = GlmFamily.GAUSSIAN,
    selection: SelectionConfig = SelectionConfig(),
    pi: PiSpec | None = None,
    eem: bool = False,
    seed: int = 0,
    small_sample_correction: bool = False,
) -> EstimateResult:
    """Per-arm selection by `selection` (Step 1a), an unpenalized canonical ML
    refit on the selected plus `expansion`'s forced columns (Step 1b), then
    standardization over all participants.

    With a parametric `pi` the refit is weighted by the inverse fitted
    propensity and the influence values use the pointwise propensities. In
    EEM mode the refit minimizes squared error instead, the point estimate
    is the explicit AIPW average (the score-zero identity no longer holds),
    and a small-sample correction is refused, as it was never applied.
    """
    if eem and small_sample_correction:
        raise ConfigError("small_sample_correction: data_adaptive does not read it with eem")
    _, pi_hat, refit, preds, diagnostics = _first_stage(
        d, expansion, family, selection, pi, eem, seed, weighted=True,
        small_sample_correction=small_sample_correction,
    )
    aipw1, aipw0, v1, v0 = variance.aipw(d.y, d.z, preds[1], preds[0], pi_hat)
    if eem:
        mu1, mu0 = aipw1.mean(), aipw0.mean()
    else:
        mu1, mu0 = preds[1].mean(), preds[0].mean()
    diagnostics.update(refit_columns_1=refit[1], refit_columns_0=refit[0],
                       pred1=preds[1], pred0=preds[0])
    method_name = "data_adaptive" + ("_eem" if eem else "")
    return _package(method_name, mu1, mu0, v1, v0, diagnostics,
                    variance_factor=diagnostics["small_sample_factor"])


# --- TMLE ------------------------------------------------------------------

def tmle_update(init_pred_arm, y_arm, family, clever_arm=None):
    """One-parameter offset update enforcing the arm score equation.

    Returns epsilon. Without a clever covariate this is an intercept-only
    ML GLM with offset g(init); with one it is a no-intercept ML GLM on the
    clever covariate with the same offset.
    """
    init = np.asarray(init_pred_arm, dtype=float)
    if family is GlmFamily.BINOMIAL:
        init = np.clip(init, TMLE_PRED_CLIP, 1.0 - TMLE_PRED_CLIP)
    offset = family.link(init)
    column = np.ones(len(init)) if clever_arm is None else np.asarray(clever_arm, dtype=float)
    fit = fit_ml_design(column.reshape(-1, 1), y_arm, family, offset=offset,
                        has_intercept=clever_arm is None)
    return float(fit.coefficients[0])


def _targeted_update(d: TrialDataset, preds, family, clever=None):
    """Fit each arm's epsilon on its rows and apply it to every participant.
    `clever` maps each arm to its clever covariate over all participants, or
    is None for the intercept-only update. Returns (updated, epsilons)."""
    updated = {}
    epsilons = {}
    for arm in (1, 0):
        rows = _arm_rows(d, arm)
        h = None if clever is None else clever[arm]
        eps = tmle_update(preds[arm][rows], d.y[rows], family, None if h is None else h[rows])
        init = preds[arm]
        if family is GlmFamily.BINOMIAL:
            init = np.clip(init, TMLE_PRED_CLIP, 1.0 - TMLE_PRED_CLIP)
        shift = eps if h is None else eps * h
        updated[arm] = family.inv_link(family.link(init) + shift)
        epsilons[arm] = eps
    return updated, epsilons


def estimate_tmle(
    d: TrialDataset,
    expansion: FeatureExpansion | None = None,
    family: GlmFamily = GlmFamily.GAUSSIAN,
    selection: SelectionConfig = SelectionConfig(),
    pi: PiSpec | None = None,
    eem: bool = False,
    seed: int = 0,
    small_sample_correction: bool = False,
) -> EstimateResult:
    """Targeted update of the data-adaptive initial fit.

    When the initial fit is itself the arm's canonical ML fit the update is
    a numerical no-op (epsilon ~ 0) and the estimate equals the
    data-adaptive one; it becomes material under EEM-mode (least squares)
    initial fits, clamped binomial predictions, or a parametric propensity,
    where the clever covariate 1/p(X) (arm 0: 1/(1-p(X))) enters a
    no-intercept update instead.
    """
    clever, pi_hat, _, preds, diagnostics = _first_stage(
        d, expansion, family, selection, pi, eem, seed, weighted=False,
        small_sample_correction=small_sample_correction,
    )
    updated, epsilons = _targeted_update(d, preds, family, clever)
    _, _, v1, v0 = variance.aipw(d.y, d.z, updated[1], updated[0], pi_hat)
    diagnostics.update(epsilon_1=epsilons[1], epsilon_0=epsilons[0],
                       pred1=updated[1], pred0=updated[0])
    return _package("tmle", updated[1].mean(), updated[0].mean(), v1, v0, diagnostics,
                    variance_factor=diagnostics["small_sample_factor"])


# --- cross-fitting ---------------------------------------------------------

def _crossfit_predictions(d: TrialDataset, learner, folds: FoldPlan, family, seed):
    """Out-of-fold predictions per arm: fold k's rows are predicted by
    learners trained on the complement, separately per arm. The 2K training
    sets are collected first, fold by fold and arm 1 first, up to the first
    fold whose complement lacks an arm. A learner with `train_all` trains
    them all at once (`post_lasso`: every lasso of the cross-fit walks one
    stack, and each refit runs alone; `wrong_model`: the fits of one row
    count walk one IRLS stack), and the first set to fail raises; any other
    trains each set when its fold is predicted. That fold's DegenerateFold comes after the
    sets before it. Returns the predictions with the head of the cross-fit
    estimators' diagnostics."""
    check_complete(d)
    if folds.n != d.n:
        raise ConfigError("fold plan length does not match the dataset")
    _read(CrossFitFolds, folds.k, "fold count")
    sets, targets, degenerate = [], [], None
    for k in range(1, folds.k + 1):
        train = folds.complement_indices(k)
        z_train = d.z[train]
        if z_train.sum() < 1 or (1 - z_train).sum() < 1:
            degenerate = k
            break
        for arm in (1, 0):
            rows = train[z_train == arm]
            sets.append((rows, derived_seed(np.random.SeedSequence((seed, k, arm)))))
            targets.append((arm, folds.fold_indices(k)))
    if hasattr(learner, "train_all"):
        training = [(d.x[rows], d.y[rows], arm_seed) for rows, arm_seed in sets]
        predictors = learner.train_all(training, family)
    else:
        predictors = (learner.train(d.x[rows], d.y[rows], family, seed=arm_seed)
                      for rows, arm_seed in sets)
    preds = {1: np.empty(d.n), 0: np.empty(d.n)}
    for (arm, test), predictor in zip(targets, predictors):
        preds[arm][test] = predictor.predict(d.x[test])
    if degenerate is not None:  # once the earlier folds, which may fail first, are done
        raise DegenerateFold(
            f"training complement of fold {degenerate} lacks an arm; use stratified folds"
        )
    learner_name = getattr(learner, "name", type(learner).__name__)
    return preds[1], preds[0], {"learner": learner_name, "fold_seed": folds.seed, "k": folds.k}


def estimate_crossfit_aipw(
    d: TrialDataset,
    learner,
    folds: FoldPlan,
    pi: PiSpec | None = None,
    family: GlmFamily = GlmFamily.GAUSSIAN,
    seed: int = 0,
) -> EstimateResult:
    """K-fold cross-fit AIPW: per fold, average the augmented values using
    that fold's empirical randomization probability, the known one, or a
    logistic propensity model fitted within the fold (a parametric `pi`),
    then average the K fold estimates. A parametric `pi` adds the
    propensity-score correction c'A^{-1}s built within each fold to the
    influence values; with no propensity columns it reduces exactly to the
    per-fold empirical probability. The folds' propensity models, up to the
    first single-arm fold, walk one IRLS stack per row count; the first to
    fail raises, and that fold's DegenerateFold comes after the folds before
    it."""
    if pi is None:
        pi = PiSpec.per_fold()
    if pi.mode == "estimated_overall":
        raise ConfigError(
            "cross-fit AIPW supports pi modes 'known', 'estimated_per_fold' and 'parametric'"
        )
    pred1, pred0, diagnostics = _crossfit_predictions(d, learner, folds, family, seed)
    p_hat, ps_design = pi.value, None
    if pi.mode == "parametric":
        ps_design = np.column_stack([np.ones(d.n), d.columns(pi.ps_columns)])
        p_hat = np.empty(d.n)
        clamp_count = 0
        fold_rows = []  # the folds up to the first single-arm one
        for k in range(1, folds.k + 1):
            rows = folds.fold_indices(k)
            z_rows = d.z[rows]
            if z_rows.sum() < 1 or (1 - z_rows).sum() < 1:
                break
            fold_rows.append(rows)
        for rows, (p_rows, clamped) in zip(fold_rows, _propensities(d, pi.ps_columns, fold_rows)):
            p_hat[rows] = p_rows
            clamp_count += clamped
        if len(fold_rows) < folds.k:  # once the earlier folds, which may fail first, are done
            k = len(fold_rows) + 1
            raise DegenerateFold(f"fold {k} contains a single arm; use stratified folds")
    mu1_folds, mu0_folds, v1, v0 = variance.aipw(d.y, d.z, pred1, pred0, p_hat, folds, ps_design)

    if ps_design is None:
        method = "crossfit_aipw"
        diagnostics["pi_by_fold"] = {
            k: pi.value if pi.value is not None else float(d.z[folds.fold_indices(k)].mean())
            for k in range(1, folds.k + 1)
        }
        diagnostics.update(pred1=pred1, pred0=pred0, theta_by_fold=(mu1_folds - mu0_folds).tolist())
    else:
        method = "crossfit_aipw_parametric_ps"
        diagnostics.update(
            ps_columns=list(pi.ps_columns), propensity_clamped=clamp_count,
            pred1=pred1, pred0=pred0, p_hat=p_hat,
        )
    return _package(method, mu1_folds.mean(), mu0_folds.mean(), v1, v0, diagnostics)


def estimate_cvtmle(
    d: TrialDataset,
    learner,
    folds: FoldPlan,
    family: GlmFamily = GlmFamily.GAUSSIAN,
    pi: PiSpec | None = None,
    seed: int = 0,
) -> EstimateResult:
    """Cross-validated TMLE: out-of-fold initial predictions, one pooled
    epsilon per arm fitted by an intercept-only offset GLM over that arm,
    fold-averaged means of the updated predictions. The update restores the
    pooled score equation, so no correction terms enter the variance."""
    init1, init0, diagnostics = _crossfit_predictions(d, learner, folds, family, seed)
    updated, epsilons = _targeted_update(d, {1: init1, 0: init0}, family)
    fold_rows = [folds.fold_indices(k) for k in range(1, folds.k + 1)]
    mu1 = np.mean([updated[1][idx].mean() for idx in fold_rows])
    mu0 = np.mean([updated[0][idx].mean() for idx in fold_rows])

    pi_hat = _overall_pi(d, pi)
    _, _, v1, v0 = variance.aipw(d.y, d.z, updated[1], updated[0], pi_hat)
    diagnostics.update(epsilon_1=epsilons[1], epsilon_0=epsilons[0], pi_hat=pi_hat,
                       pred1=updated[1], pred0=updated[0])
    return _package("cvtmle", mu1, mu0, v1, v0, diagnostics)


# --- strong null -----------------------------------------------------------

def estimate_strong_null(
    d: TrialDataset,
    learner=None,
    family: GlmFamily = GlmFamily.GAUSSIAN,
    pi: PiSpec | None = None,
    seed: int = 0,
    expansion: FeatureExpansion = FeatureExpansion(),
) -> EstimateResult:
    """Test of the strong null (Z independent of (Y, X)): one pooled model
    of the outcome on covariates only, fit to ALL participants, shared by
    both arms. Any learner may be used, without sample splitting.

    With `learner=None` the model is the pooled canonical ML GLM on the
    columns of `expansion`, which a learner does not read.
    """
    check_complete(d)
    if learner is None:
        work = expand_features(d, expansion)
        fit = fit_ml(work.x, work.y, family)
        pred = predict(fit, work.x)
        model_name = "pooled_glm"
    elif _set_fields(expansion):
        raise ConfigError("expansion: strong_null does not read it with a learner")
    else:
        model_seed = derived_seed(np.random.SeedSequence((seed, 902)))
        predictor = learner.train(d.x, d.y, family, seed=model_seed)
        pred = np.asarray(predictor.predict(d.x), dtype=float)
        model_name = getattr(learner, "name", type(learner).__name__)

    known = pi is not None and pi.mode == "known"
    pi_hat = _overall_pi(d, pi)
    mu1, mu0, v1, v0 = variance.aipw(d.y, d.z, pred, pred, pi_hat if known else None)
    result = _package(
        "strong_null", mu1.mean(), mu0.mean(), v1, v0,
        {"model": model_name, "pi_hat": pi_hat, "pred": pred},
    )
    theta, se = result.theta_hat, result.se
    z_stat = theta / se if se > 0 else (math.copysign(math.inf, theta) if theta else 0.0)
    result.diagnostics["z_statistic"] = float(z_stat)
    return result


# --- contrasts ---------------------------------------------------------------

def transform_contrast(r: EstimateResult, kind: Contrast) -> EstimateResult:
    """Delta-method transform of a difference-in-means result onto the log
    risk-ratio or log odds-ratio scale. `risk_difference` is the identity."""
    _read(Contrast, kind, "contrast")
    labelled = replace(r, method=f"{r.method}:{kind}", diagnostics={**r.diagnostics, "contrast": kind})
    if kind == "risk_difference":
        return labelled
    mu1, mu0 = r.mu1_hat, r.mu0_hat
    if kind == "log_risk_ratio":
        if mu1 <= 0 or mu0 <= 0:
            raise DomainError("risk ratio needs strictly positive arm means")
        point = math.log(mu1) - math.log(mu0)
        grad1, grad0 = 1.0 / mu1, 1.0 / mu0
    else:
        if not (0 < mu1 < 1 and 0 < mu0 < 1):
            raise DomainError("odds ratio needs arm means strictly inside (0, 1)")
        point = math.log(mu1 / (1 - mu1)) - math.log(mu0 / (1 - mu0))
        grad1 = 1.0 / (mu1 * (1 - mu1))
        grad0 = 1.0 / (mu0 * (1 - mu0))
    values = grad1 * r.if_mu1 - grad0 * r.if_mu0
    se = variance.se_from_values(values)
    half = Z_CRIT * se
    return replace(labelled, theta_hat=point, se=se, ci_low=point - half, ci_high=point + half)
