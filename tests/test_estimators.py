import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from compare_lasso_selections import problem as broad_problem
from conftest import simulate_trial, spy_binomial_blocks, spy_irls_stacks
from trialcraft import estimators
from trialcraft.data import FeatureExpansion, FoldPlan, TrialDataset, derived_seed, make_folds
from trialcraft.errors import (
    ConfigError, DegenerateFold, DomainError, EstimationError, NonConvergence, Separation,
    Singular, TrialcraftError,
)
from trialcraft.estimators import (
    PiSpec,
    estimate_crossfit_aipw,
    estimate_cvtmle,
    estimate_data_adaptive,
    estimate_standardization,
    estimate_strong_null,
    estimate_tmle,
    estimate_unadjusted,
    propensity_scores,
    tmle_update,
    transform_contrast,
)
from trialcraft.glm import GlmFamily, fit_ml, predict
from trialcraft.learners import get_learner
from trialcraft.selection import SelectionConfig, lasso_cv, stepwise_aic
from trialcraft.simulation import DgpSpec, generate_dataset

NO_SELECTION = SelectionConfig(method="none")
STEPWISE = SelectionConfig(method="stepwise_aic")


def tiny_dataset():
    y = np.array([1.0, 3.0, 0.0, 2.0])
    z = np.array([1.0, 1.0, 0.0, 0.0])
    x = np.array([[0.1], [0.2], [0.3], [0.4]])
    return TrialDataset(y, z, x, ("a",))


def aipw_by_hand(y, z, pred1, pred0, pi):
    """Independent expansion of the augmented estimator."""
    term1 = z / pi * (y - pred1) + pred1
    term0 = (1 - z) / (1 - pi) * (y - pred0) + pred0
    return float(term1.mean() - term0.mean())


class TestUnadjusted:
    def test_difference_in_means(self):
        r = estimate_unadjusted(tiny_dataset())
        assert r.theta_hat == pytest.approx(1.0)
        assert r.mu1_hat == pytest.approx(2.0)
        assert r.mu0_hat == pytest.approx(1.0)

    def test_identical_arms_give_zero(self):
        y = np.array([1.0, 2.0, 1.0, 2.0])
        z = np.array([1.0, 1.0, 0.0, 0.0])
        d = TrialDataset(y, z, np.zeros((4, 1)) + [[1.0], [2.0], [1.0], [2.0]], ("a",))
        assert estimate_unadjusted(d).theta_hat == 0.0

    def test_se_close_to_two_sample_formula(self, rng):
        d = simulate_trial(rng, n=200)
        r = estimate_unadjusted(d)
        y1, y0 = d.y[d.z == 1], d.y[d.z == 0]
        classic = math.sqrt(y1.var(ddof=1) / y1.size + y0.var(ddof=1) / y0.size)
        assert abs(r.se - classic) / classic < 0.02


class TestStandardization:
    def test_no_covariates_equals_unadjusted(self, rng):
        d = simulate_trial(rng, n=40)
        empty = TrialDataset(d.y, d.z, np.empty((d.n, 0)), ())
        a = estimate_standardization(empty, family=GlmFamily.GAUSSIAN)
        b = estimate_unadjusted(d)
        assert a.theta_hat == pytest.approx(b.theta_hat, abs=1e-12)
        assert a.se == pytest.approx(b.se, abs=1e-12)

    @pytest.mark.parametrize("family", list(GlmFamily))
    def test_equals_aipw_with_own_fits(self, family, rng):
        d = simulate_trial(rng, n=90, family=family)
        r = estimate_standardization(d, family=family)
        manual = aipw_by_hand(
            d.y, d.z, r.diagnostics["pred1"], r.diagnostics["pred0"], d.n_treated / d.n
        )
        assert abs(r.theta_hat - manual) <= 1e-10
        assert abs(r.if_mu1.mean()) <= 1e-10
        assert abs(r.if_mu0.mean()) <= 1e-10

    def test_binomial_means_sample_bounded(self, rng):
        d = simulate_trial(rng, n=80, family=GlmFamily.BINOMIAL)
        r = estimate_standardization(d, family=GlmFamily.BINOMIAL)
        assert d.y.min() <= r.mu1_hat <= d.y.max()
        assert d.y.min() <= r.mu0_hat <= d.y.max()


class TestDataAdaptive:
    def test_empty_selection_equals_unadjusted(self, rng):
        n = 60
        x = rng.standard_normal((n, 2))
        z = rng.permutation(np.r_[np.ones(n // 2), np.zeros(n // 2)])
        y = 0.4 * z + rng.standard_normal(n)
        d = TrialDataset(y, z, x, ("u", "v"))
        r = estimate_data_adaptive(d, family=GlmFamily.GAUSSIAN, seed=3)
        assert r.diagnostics["selected_1"] == [] and r.diagnostics["selected_0"] == []
        assert r.theta_hat == pytest.approx(estimate_unadjusted(d).theta_hat, abs=1e-12)

    @pytest.mark.parametrize("value", [0.5, 0.3, 0.1, 1e6 + 0.1])
    def test_constant_covariate_left_out_of_unselected_refit(self, value):
        # the computed SD of a constant column is 0 for 0.5 but ~1e-17 for 0.3
        for seed in range(5):
            rng = np.random.default_rng(seed)
            z = rng.permutation(np.r_[np.ones(30), np.zeros(30)])
            a = rng.standard_normal(60)
            d = TrialDataset(a + 0.5 * z + rng.standard_normal(60), z,
                             np.column_stack([a, np.full(60, value)]), ("a", "c"))
            r = estimate_data_adaptive(d, family=GlmFamily.GAUSSIAN, selection=NO_SELECTION)
            assert r.diagnostics["refit_columns_1"] == ["a"]
            assert r.diagnostics["refit_columns_0"] == ["a"]

    @pytest.mark.parametrize("method", ["lasso_cv", "stepwise_aic", "none"])
    def test_refit_scores_vanish(self, method, rng):
        d = simulate_trial(rng, n=100)
        selection = SelectionConfig(method=method)
        r = estimate_data_adaptive(d, family=GlmFamily.GAUSSIAN, selection=selection, seed=1)
        for arm in (1, 0):
            resid_sum = np.sum(
                (d.z == arm) * (d.y - r.diagnostics[f"pred{arm}"])
            )
            assert abs(resid_sum) <= 1e-8 * d.n

    @pytest.mark.parametrize("estimate", [estimate_data_adaptive, estimate_tmle])
    def test_the_first_arm_to_fail_names_the_error(self, estimate):
        # arm 1's refit separates and arm 0's lasso overflows float64: arm 1
        # is selected and refit before arm 0 is, though both lassos run as one
        d = separated_arm_1()
        d.x[d.z == 0, 2] *= 1e160
        with pytest.raises(Separation):
            estimate(d, family=GlmFamily.BINOMIAL)

    @pytest.mark.parametrize("estimate", [estimate_data_adaptive, estimate_tmle])
    def test_an_arm_whose_lasso_does_not_converge_fails_after_the_arm_before_it(
            self, estimate, monkeypatch):
        # at seed 11 arm 0's lasso does not converge alone and arm 1's does; the
        # stack of both raises, and arm 1 is selected and refit (which
        # separates) before arm 0 is selected
        (x1, y1), (x0, y0) = separated_and_nonconvergent()
        d = TrialDataset(np.r_[y1, y0], np.r_[np.ones(64), np.zeros(64)], np.vstack([x1, x0]),
                         tuple(f"c{j}" for j in range(16)))
        seeds = [derived_seed(np.random.SeedSequence((11, 901, arm))) for arm in (1, 0)]
        lasso_cv(x1, y1, GlmFamily.BINOMIAL, seed=seeds[0])
        with pytest.raises(NonConvergence):
            lasso_cv(x0, y0, GlmFamily.BINOMIAL, seed=seeds[1])
        calls = spy_binomial_blocks(monkeypatch)
        with pytest.raises(Separation):
            estimate(d, family=GlmFamily.BINOMIAL, seed=11)
        assert calls[0] == [64, 64]

    def test_forced_column_always_in_refit(self, rng):
        d = simulate_trial(rng, n=80)
        r = estimate_data_adaptive(
            d, FeatureExpansion(forced_columns=("x2",)), GlmFamily.GAUSSIAN, seed=5
        )
        assert "x2" in r.diagnostics["refit_columns_1"]
        assert "x2" in r.diagnostics["refit_columns_0"]

    def test_weighted_refit_satisfies_weighted_score(self, rng):
        d = simulate_trial(rng, n=120)
        r = estimate_data_adaptive(
            d, family=GlmFamily.GAUSSIAN, pi=PiSpec.parametric(("x1",)), seed=2,
        )
        p_hat, _ = propensity_scores(d, ("x1",))
        resid = (d.z == 1) * (d.y - r.diagnostics["pred1"]) / p_hat
        assert abs(resid.sum()) <= 1e-7 * d.n

    def test_eem_gaussian_matches_plain_estimate(self, rng):
        # least squares == maximum likelihood for the gaussian family, and
        # the AIPW form coincides by the score identity
        d = simulate_trial(rng, n=90)
        a = estimate_data_adaptive(d, family=GlmFamily.GAUSSIAN, seed=4)
        b = estimate_data_adaptive(d, family=GlmFamily.GAUSSIAN, seed=4, eem=True)
        assert a.theta_hat == pytest.approx(b.theta_hat, abs=1e-8)

    def test_eem_binomial_uses_aipw_form(self, rng):
        d = simulate_trial(rng, n=120, family=GlmFamily.BINOMIAL)
        r = estimate_data_adaptive(d, family=GlmFamily.BINOMIAL, selection=NO_SELECTION, seed=6,
                                   eem=True)
        manual = aipw_by_hand(
            d.y, d.z, r.diagnostics["pred1"], r.diagnostics["pred0"], d.n_treated / d.n
        )
        assert r.theta_hat == pytest.approx(manual, abs=1e-12)

    @pytest.mark.parametrize("estimate", [estimate_data_adaptive, estimate_tmle])
    def test_eem_refuses_parametric_ps(self, estimate, rng):
        d = simulate_trial(rng, n=120)
        with pytest.raises(ConfigError, match="EEM mode with a parametric propensity"):
            estimate(d, pi=PiSpec.parametric(("x1",)), eem=True, selection=NO_SELECTION)

    def test_eem_refuses_small_sample_correction(self, rng):
        # data_adaptive never applied the factor in EEM mode; tmle does
        d = simulate_trial(rng, n=120)
        with pytest.raises(ConfigError, match="small_sample_correction"):
            estimate_data_adaptive(d, eem=True, small_sample_correction=True,
                                   selection=NO_SELECTION)
        r = estimate_tmle(d, eem=True, small_sample_correction=True, selection=NO_SELECTION)
        assert r.diagnostics["small_sample_factor"] > 1.0

    def test_small_sample_factor_inflates_se(self, rng):
        d = simulate_trial(rng, n=40)
        a = estimate_data_adaptive(d, family=GlmFamily.GAUSSIAN, selection=NO_SELECTION, seed=1)
        b = estimate_data_adaptive(
            d, family=GlmFamily.GAUSSIAN, selection=NO_SELECTION, seed=1,
            small_sample_correction=True,
        )
        assert b.se > a.se
        n1, n0, p = d.n_treated, d.n_control, d.p
        factor = ((1 / (n0 - p - 1)) + (1 / (n1 - p - 1))) / ((1 / (n0 - 1)) + (1 / (n1 - 1)))
        assert b.se == pytest.approx(a.se * math.sqrt(factor), abs=1e-12)

    @pytest.mark.parametrize("family", list(GlmFamily))
    @pytest.mark.parametrize("estimate, pi, selection", [
        (estimate_data_adaptive, None, STEPWISE), (estimate_tmle, None, STEPWISE),
        (estimate_tmle, PiSpec.parametric(("x1",)), STEPWISE),
        (estimate_data_adaptive, None, SelectionConfig(method="stepwise_aic", max_terms=0)),
    ], ids=["data_adaptive", "tmle", "tmle-parametric", "intercept-only"])
    def test_stepwise_winning_fit_is_the_arm_refit(self, family, estimate, pi, selection,
                                                   monkeypatch):
        # stepwise AIC's last winning fit (or its intercept-only start) is
        # fit_ml on the selected columns, so an unweighted ML refit without
        # forced columns is not made again; the estimate keeps its bits
        d = simulate_trial(np.random.default_rng(8), n=120, family=family)
        refits = spy_arm_refits(monkeypatch)
        got = estimate(d, family=family, selection=selection, pi=pi)
        assert refits == []
        monkeypatch.setattr(estimators, "_stepwise",
                            lambda *args, **kwargs: (stepwise_aic(*args, **kwargs), None))
        refit = estimate(d, family=family, selection=selection, pi=pi)
        assert refits == ["fit_ml", "fit_ml"]
        assert (got.theta_hat, got.se) == (refit.theta_hat, refit.se)
        for arm in (1, 0):
            assert np.array_equal(got.diagnostics[f"pred{arm}"], refit.diagnostics[f"pred{arm}"])

    @pytest.mark.parametrize("case", ["forced", "eem", "weighted"])
    def test_stepwise_arms_are_refit_when_the_refit_is_another_fit(self, case, monkeypatch):
        # a forced column the arm did not select, a least-squares (EEM)
        # refit, or a refit weighted by the parametric propensity
        rng = np.random.default_rng(8)
        d = simulate_trial(rng, n=120, family=GlmFamily.BINOMIAL)
        d = TrialDataset(d.y, d.z, np.column_stack([d.x, rng.standard_normal(d.n)]),
                         d.column_names + ("noise",))
        kwargs = {"forced": dict(expansion=FeatureExpansion(forced_columns=("noise",))),
                  "eem": dict(eem=True), "weighted": dict(pi=PiSpec.parametric(("x1",)))}[case]
        refits = spy_arm_refits(monkeypatch)
        r = estimate_data_adaptive(d, family=GlmFamily.BINOMIAL, selection=STEPWISE, **kwargs)
        assert refits == ["fit_least_squares" if case == "eem" else "fit_ml"] * 2
        assert "noise" not in r.diagnostics["selected_1"] + r.diagnostics["selected_0"]


def spy_arm_refits(monkeypatch):
    """The name of each `fit_ml` or `fit_least_squares` call of `estimators`,
    in call order: the arm refits of data_adaptive and tmle."""
    calls = []
    for name in ("fit_ml", "fit_least_squares"):
        def spy(*args, _name=name, _fit=getattr(estimators, name), **kwargs):
            calls.append(_name)
            return _fit(*args, **kwargs)

        monkeypatch.setattr(estimators, name, spy)
    return calls


def separated_arm_1():
    """120 rows, arms alternating, a binary outcome that x0 separates in arm 1."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((120, 3))
    z = np.tile([1.0, 0.0], 60)
    y = (rng.uniform(size=120) < 1.0 / (1.0 + np.exp(-x[:, 0] - 0.5 * z))).astype(float)
    y[z == 1] = (x[z == 1, 0] > 0).astype(float)
    x[z == 1, 0] *= 100.0
    return TrialDataset(y, z, x, ("a", "b", "c"))


def separated_and_nonconvergent():
    """Two binomial (x, y) sets of 16 columns: 64 rows that x0 separates, and
    the 64 of problem 90056 of compare_lasso_selections.py, whose lasso does
    not converge on some fold splits."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 16))
    y = (x[:, 0] > 0).astype(float)
    x[:, 0] *= 100.0
    _, x_bad, y_bad, _, _, _ = broad_problem(90_056)
    return (x, y), (x_bad, y_bad)


class TestCrossfitAipw:
    def test_constant_learner_balanced_folds_equals_diff_in_means(self):
        # pinned 8-row dataset engineered so each fold's arm share equals
        # the known pi; the augmentation terms cancel algebraically
        y = np.array([1.0, 3.0, 0.0, 2.0, 5.0, 1.0, 2.0, 4.0])
        z = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        x = np.arange(8.0).reshape(-1, 1)
        d = TrialDataset(y, z, x, ("w",))
        folds = make_folds(8, 2, z, seed=1, stratified=True)
        r = estimate_crossfit_aipw(d, get_learner("constant"), folds, PiSpec.known(0.5))
        diff_means = y[z == 1].mean() - y[z == 0].mean()

        # independent oracle: expand the fold estimates by hand
        theta_folds = []
        for k in (1, 2):
            test = folds.fold_indices(k)
            train = folds.complement_indices(k)
            c1 = y[train][z[train] == 1].mean()
            c0 = y[train][z[train] == 0].mean()
            theta_folds.append(
                aipw_by_hand(y[test], z[test], np.full(test.size, c1), np.full(test.size, c0), 0.5)
            )
        assert r.theta_hat == pytest.approx(np.mean(theta_folds), abs=1e-12)
        assert r.theta_hat == pytest.approx(diff_means, abs=1e-10)

    def test_fold_count_bounds(self, rng):
        d = simulate_trial(rng, n=30)
        from trialcraft.data import FoldPlan

        labels = (np.arange(30) % 11) + 1
        plan = FoldPlan(labels, 11, 0)
        with pytest.raises(ConfigError):
            estimate_crossfit_aipw(d, get_learner("constant"), plan)

    def test_estimated_overall_pi_rejected(self, rng):
        d = simulate_trial(rng, n=40)
        folds = make_folds(d.n, 2, d.z, seed=0, stratified=True)
        with pytest.raises(ConfigError):
            estimate_crossfit_aipw(d, get_learner("constant"), folds, PiSpec.estimated())

    def test_single_arm_training_fold_raises(self):
        y = np.arange(8.0)
        z = np.r_[np.ones(4), np.zeros(4)]
        from trialcraft.data import FoldPlan

        labels = np.r_[np.ones(4), np.full(4, 2.0)].astype(int)
        folds = FoldPlan(labels, 2, 0)
        d = TrialDataset(y, z, np.zeros((8, 1)), ("a",))
        with pytest.raises(DegenerateFold):
            estimate_crossfit_aipw(d, get_learner("constant"), folds)

    def test_folds_before_one_that_lacks_an_arm_train_first(self):
        # fold 2's complement (fold 1) holds only arm 1; fold 1's training
        # sets are trained first, and this learner fails on them
        class Failing:
            def train(self, x, y, family, seed=0):
                raise EstimationError("training failed")

        z = np.r_[np.ones(4), np.zeros(4)]
        d = TrialDataset(np.arange(8.0), z, np.arange(8.0)[:, None], ("a",))
        folds = FoldPlan(np.array([1, 1, 2, 2, 2, 2, 2, 2]), 2, 0)
        with pytest.raises(EstimationError, match="training failed"):
            estimate_crossfit_aipw(d, Failing(), folds)
        with pytest.raises(DegenerateFold):
            estimate_crossfit_aipw(d, get_learner("constant"), folds)

    @pytest.mark.parametrize("outcome_kind", ["continuous", "binary"])
    def test_post_lasso_trains_all_sets_as_it_trains_each_alone(self, outcome_kind):
        # post_lasso's train_all runs the 2K lassos of a cross-fit as one
        # lasso_cvs; a learner that exposes only `train` is called per set
        class TrainOnly:
            def __init__(self, learner):
                self.train = learner.train

        family = GlmFamily.BINOMIAL if outcome_kind == "binary" else GlmFamily.GAUSSIAN
        spec = DgpSpec("c", n=240, p=4, pi=0.5, outcome_kind=outcome_kind, effect_size=0.5)
        for seed in range(3):
            d = generate_dataset(spec, seed)
            folds = make_folds(d.n, 3 + seed, d.z, seed=seed, stratified=True)
            learner = get_learner("post_lasso", k_cv=3 + seed)
            a = estimate_crossfit_aipw(d, learner, folds, family=family, seed=seed)
            b = estimate_crossfit_aipw(d, TrainOnly(learner), folds, family=family, seed=seed)
            assert (a.theta_hat, a.se) == (b.theta_hat, b.se), seed
            assert np.array_equal(a.if_mu1, b.if_mu1) and np.array_equal(a.if_mu0, b.if_mu0)

    def test_post_lasso_fails_as_it_fails_one_set_at_a_time(self):
        # arm 1 is separated by x0: a training set's lasso may not converge
        # and another's refit separates; the first set to fail, lasso then
        # refit set by set, names the error (Separation, met before a lasso
        # that does not converge)
        class TrainOnly:
            def __init__(self, learner):
                self.train = learner.train

        d = separated_arm_1()
        folds = make_folds(d.n, 5, d.z, seed=1, stratified=True)
        errors = []
        for learner in (get_learner("post_lasso"), TrainOnly(get_learner("post_lasso"))):
            with pytest.raises(TrialcraftError) as caught:
                estimate_crossfit_aipw(d, learner, folds, family=GlmFamily.BINOMIAL, seed=2)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1] and errors[0][0] is Separation

    def test_post_lasso_trains_a_stack_that_does_not_converge_set_by_set(self, monkeypatch):
        # the failing set stacks with one whose refit separates: the first set
        # to fail, lasso then refit, names the error in either order
        class TrainOnly:
            def __init__(self, learner):
                self.train = learner.train

        (x, y), (x_bad, y_bad) = separated_and_nonconvergent()
        learner = get_learner("post_lasso")
        with pytest.raises(NonConvergence):
            learner.train(x_bad, y_bad, GlmFamily.BINOMIAL, seed=90_056)
        calls = spy_binomial_blocks(monkeypatch)
        sets = [(x, y, 1), (x_bad, y_bad, 90_056)]
        for order, expected in ((sets, Separation), (sets[::-1], NonConvergence)):
            errors = []
            for train_all in (learner.train_all, lambda sets, family: [
                    TrainOnly(learner).train(*xy, family, seed=seed) for *xy, seed in sets]):
                with pytest.raises(TrialcraftError) as caught:
                    train_all(order, GlmFamily.BINOMIAL)
                errors.append((type(caught.value), str(caught.value)))
            assert errors[0] == errors[1] and errors[0][0] is expected
        assert calls[0] == calls[3] == [64, 64]  # each train_all's first stack holds both sets

    def test_wrong_model_fails_as_it_fails_one_set_at_a_time(self, monkeypatch):
        # the sets, in order: fold 1's arm 1 (rows 4-7, a constant: Singular),
        # fold 1's arm 0, fold 2's arm 1 (rows 0-3, y near 1e160:
        # NonConvergence) and fold 2's arm 0; fold 3's complement lacks arm 0.
        # The four fits walk one stack, and the first failing set, in order,
        # names the error, before the DegenerateFold
        class TrainOnly:
            def __init__(self, learner):
                self.train = learner.train

        learner, folds = get_learner("wrong_model"), FoldPlan(np.repeat([1, 2, 3], 4), 3, 0)
        stacks = spy_irls_stacks(monkeypatch)
        for singular, huge, expected in ((True, True, Singular), (False, True, NonConvergence),
                                         (False, False, DegenerateFold)):
            a = np.r_[np.arange(4.0), np.ones(4) if singular else np.arange(4.0), np.arange(4.0)]
            y = np.r_[np.array([0.0, 3.0, 1.0, 2.0]) * (1e160 if huge else 1.0), np.arange(8.0) % 3]
            d = TrialDataset(y, np.r_[np.ones(8), np.zeros(4)], a[:, None], ("a",))
            errors = []
            for each in (learner, TrainOnly(learner)):
                with pytest.raises(TrialcraftError) as caught:
                    estimate_crossfit_aipw(d, each, folds, PiSpec.known(0.5))
                errors.append((type(caught.value), str(caught.value)))
            assert errors[0] == errors[1] and errors[0][0] is expected
            assert stacks[0] == 4  # train_all's stack holds every set
            stacks.clear()

    def test_antisymmetry_under_arm_swap(self, rng):
        d = simulate_trial(rng, n=80)
        folds = make_folds(d.n, 4, d.z, seed=7, stratified=False)
        swapped = TrialDataset(d.y, 1 - d.z, d.x, d.column_names)
        a = estimate_crossfit_aipw(d, get_learner("wrong_model"), folds, PiSpec.known(0.5), seed=3)
        # same partition; arm roles swap symmetrically
        b = estimate_crossfit_aipw(swapped, get_learner("wrong_model"), folds, PiSpec.known(0.5), seed=3)
        assert abs(a.theta_hat + b.theta_hat) <= 1e-10


class TestTmle:
    def test_epsilon_zero_at_ml_initial_fit(self, rng):
        for family in GlmFamily:
            d = simulate_trial(rng, n=80, family=family)
            rows = d.z == 1
            fit = fit_ml(d.x[rows], d.y[rows], family)
            init = predict(fit, d.x[rows])
            eps = tmle_update(init, d.y[rows], family)
            assert abs(eps) <= 1e-8

    def test_constant_half_init_moves_to_arm_mean(self, rng):
        d = simulate_trial(rng, n=100, family=GlmFamily.BINOMIAL)
        rows = d.z == 1
        eps = tmle_update(np.full(int(rows.sum()), 0.5), d.y[rows], GlmFamily.BINOMIAL)
        ybar1 = d.y[rows].mean()
        assert eps == pytest.approx(math.log(ybar1 / (1 - ybar1)), abs=1e-8)

    @pytest.mark.parametrize("family", list(GlmFamily))
    def test_post_update_score_zero_and_equals_data_adaptive(self, family, rng):
        d = simulate_trial(rng, n=120, family=family)
        t = estimate_tmle(d, family=family, selection=STEPWISE, seed=1)
        a = estimate_data_adaptive(d, family=family, selection=STEPWISE, seed=1)
        for arm in (1, 0):
            score = np.sum((d.z == arm) * (d.y - t.diagnostics[f"pred{arm}"]))
            assert abs(score) <= 1e-8 * d.n
        assert t.theta_hat == pytest.approx(a.theta_hat, abs=1e-8)

    def test_parametric_clever_covariate_score(self, rng):
        d = simulate_trial(rng, n=150)
        r = estimate_tmle(
            d, family=GlmFamily.GAUSSIAN, selection=NO_SELECTION,
            pi=PiSpec.parametric(("x1",)), seed=2,
        )
        p_hat, _ = propensity_scores(d, ("x1",))
        weighted_score = np.sum((d.z == 1) * (d.y - r.diagnostics["pred1"]) / p_hat)
        assert abs(weighted_score) <= 1e-7 * d.n

    def test_binomial_means_sample_bounded(self, rng):
        d = simulate_trial(rng, n=90, family=GlmFamily.BINOMIAL)
        r = estimate_tmle(d, family=GlmFamily.BINOMIAL, selection=NO_SELECTION)
        assert d.y.min() <= r.mu1_hat <= d.y.max()
        assert d.y.min() <= r.mu0_hat <= d.y.max()

    def test_eem_initial_fit_gets_repaired_by_update(self, rng):
        # least-squares logistic breaks the score equation; the targeting
        # step restores it, so the EEM-mode targeted estimate needs no
        # switch to the explicit augmented form
        d = simulate_trial(rng, n=150, family=GlmFamily.BINOMIAL)
        r = estimate_tmle(d, family=GlmFamily.BINOMIAL, selection=NO_SELECTION, eem=True)
        assert abs(r.diagnostics["epsilon_1"]) > 1e-6  # update did real work
        for arm in (1, 0):
            score = np.sum((d.z == arm) * (d.y - r.diagnostics[f"pred{arm}"]))
            assert abs(score) <= 1e-8 * d.n
        manual = aipw_by_hand(
            d.y, d.z, r.diagnostics["pred1"], r.diagnostics["pred0"], d.n_treated / d.n
        )
        assert r.theta_hat == pytest.approx(manual, abs=1e-10)


class TestCvTmle:
    def test_pooled_score_zero_per_arm(self, rng):
        d = simulate_trial(rng, n=100)
        folds = make_folds(d.n, 5, d.z, seed=3, stratified=True)
        r = estimate_cvtmle(d, get_learner("knn"), folds, GlmFamily.GAUSSIAN, seed=4)
        for arm in (1, 0):
            score = np.sum((d.z == arm) * (d.y - r.diagnostics[f"pred{arm}"]))
            assert abs(score) <= 1e-8 * d.n

    def test_epsilon_zero_when_score_already_holds(self, rng):
        d = simulate_trial(rng, n=80)
        folds = make_folds(d.n, 4, d.z, seed=1, stratified=True)

        class Fixed:
            """Predicts constants that already satisfy the pooled arm scores."""

            name = "fixed"

            def __init__(self, value1, value0):
                self.values = {1: value1, 0: value0}
                self.arm = None

            def train(self, x, yy, family, seed=0):
                value = self.values[1] if self.arm == 1 else self.values[0]

                class P:
                    def predict(self, x, v=value):
                        return np.full(len(x), v)

                return P()

        # the driver trains arm 1 first within each fold
        learner = Fixed(float(d.y[d.z == 1].mean()), float(d.y[d.z == 0].mean()))
        arms = iter([1, 0] * folds.k)
        learner.train_orig = learner.train

        def train(x, yy, family, seed=0):
            learner.arm = next(arms)
            return learner.train_orig(x, yy, family, seed)

        learner.train = train
        r = estimate_cvtmle(d, learner, folds, GlmFamily.GAUSSIAN, seed=0)
        assert r.diagnostics["epsilon_1"] == pytest.approx(0.0, abs=1e-12)
        assert r.diagnostics["epsilon_0"] == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_epsilon_is_pooled_mean_residual(self, rng):
        d = simulate_trial(rng, n=80)
        folds = make_folds(d.n, 4, d.z, seed=1, stratified=True)
        r = estimate_cvtmle(d, get_learner("constant"), folds, GlmFamily.GAUSSIAN, seed=0)
        init_resid = np.mean(d.y[d.z == 1] - (r.diagnostics["pred1"][d.z == 1] - r.diagnostics["epsilon_1"]))
        assert r.diagnostics["epsilon_1"] == pytest.approx(init_resid, abs=1e-10)


class TestStrongNull:
    def test_zero_predictions_reduce_to_difference_in_means(self):
        y = np.array([1.0, 3.0, 0.0, 2.0, 5.0, 1.0, 2.0, 4.0])
        z = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        d = TrialDataset(y, z, np.zeros((8, 1)), ("a",))

        class ZeroLearner:
            name = "zero"

            def train(self, x, yy, family, seed=0):
                class P:
                    def predict(self, x):
                        return np.zeros(len(x))

                return P()

        r = estimate_strong_null(d, ZeroLearner(), GlmFamily.GAUSSIAN)
        diff_means = y[z == 1].mean() - y[z == 0].mean()
        assert r.theta_hat == pytest.approx(diff_means, abs=1e-12)

    @pytest.mark.parametrize("outcome, z_statistic", [
        (lambda z: np.ones(6), 0.0), (lambda z: z, math.inf), (lambda z: 1 - z, -math.inf)])
    def test_zero_standard_error(self, outcome, z_statistic):
        # a constant model on y = 1, y = z or y = 1 - z leaves constant influence values
        z = np.arange(6) % 2.0
        d = TrialDataset(outcome(z), z, np.zeros((6, 1)), ("a",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = estimate_strong_null(d, get_learner("constant"), GlmFamily.GAUSSIAN)
        assert r.se == 0.0
        assert r.diagnostics["z_statistic"] == z_statistic

    def test_learner_refuses_an_expansion(self, rng):
        d = simulate_trial(rng, n=60)
        with pytest.raises(ConfigError, match="expansion"):
            estimate_strong_null(d, get_learner("knn"), expansion=FeatureExpansion(polynomial_degree=2))
        estimate_strong_null(d, get_learner("knn"), expansion=FeatureExpansion())

    def test_default_pooled_glm(self, rng):
        d = simulate_trial(rng, n=60)
        r = estimate_strong_null(d, None, GlmFamily.GAUSSIAN)
        assert r.diagnostics["model"] == "pooled_glm"
        assert "z_statistic" in r.diagnostics

    def test_known_pi_mean_zero_ifs(self, rng):
        d = simulate_trial(rng, n=70, effect=0.0)
        r = estimate_strong_null(d, None, GlmFamily.GAUSSIAN, pi=PiSpec.known(0.5))
        assert abs(r.if_mu1.mean()) <= 1e-10

    def test_antisymmetry_exact(self, rng):
        d = simulate_trial(rng, n=50)
        swapped = TrialDataset(d.y, 1 - d.z, d.x, d.column_names)
        a = estimate_strong_null(d, None, GlmFamily.GAUSSIAN)
        b = estimate_strong_null(swapped, None, GlmFamily.GAUSSIAN)
        assert a.theta_hat == pytest.approx(-b.theta_hat, abs=1e-12)


class TestFitPropensity:
    def test_intercept_only_gives_arm_share(self, rng):
        d = simulate_trial(rng, n=60)
        p_hat, _ = propensity_scores(d, ())
        np.testing.assert_allclose(p_hat, np.full(d.n, d.n_treated / d.n), atol=1e-8)

    def test_orthogonal_covariate_slope_zero(self):
        # balanced binary covariate crossed with arm: exact independence
        z = np.array([1.0, 1.0, 0.0, 0.0] * 4)
        x = np.array([[1.0], [0.0], [1.0], [0.0]] * 4)
        fit = fit_ml(x, z, GlmFamily.BINOMIAL)
        assert abs(fit.coefficients[1]) <= 1e-8
        # oracle: grid over the 2-parameter logistic likelihood
        from test_glm import grid_mle_2param

        oracle = grid_mle_2param(x[:, 0], z)
        np.testing.assert_allclose(fit.coefficients, oracle, atol=1e-6)

    def test_clamping_reported(self, rng):
        # steep but non-separated arm/covariate relationship: tail fitted
        # probabilities exit [0.01, 0.99] and must be clamped and counted
        n = 60
        x = np.linspace(-3, 3, n).reshape(-1, 1)
        z = (x[:, 0] > 0).astype(float)
        z[29], z[30] = 1.0, 0.0  # flips near the boundary prevent separation
        d = TrialDataset(rng.standard_normal(n), z, x, ("v",))
        p_hat, clamped = propensity_scores(d, ("v",))
        assert np.all((0.01 <= p_hat) & (p_hat <= 0.99))
        assert clamped > 0


class TestCrossfitParametricPs:
    def test_no_columns_reduces_to_per_fold_pi(self, rng):
        d = simulate_trial(rng, n=80)
        folds = make_folds(d.n, 4, d.z, seed=2, stratified=True)
        a = estimate_crossfit_aipw(d, get_learner("wrong_model"), folds, PiSpec.per_fold(), seed=9)
        b = estimate_crossfit_aipw(d, get_learner("wrong_model"), folds, PiSpec.parametric(()),
                                   seed=9)
        assert abs(a.theta_hat - b.theta_hat) <= 1e-10
        assert abs(a.se - b.se) <= 1e-10
        assert b.method == "crossfit_aipw_parametric_ps"
        assert "pi_by_fold" not in b.diagnostics and b.diagnostics["ps_columns"] == []

    def test_single_arm_test_fold_raises_before_propensity_fit(self, monkeypatch):
        # fold 1 holds only treated rows; every training complement holds both arms
        from trialcraft.data import FoldPlan

        z = np.r_[np.ones(4), np.ones(4), np.zeros(4)]
        z[[5, 6]] = 0.0
        z[[9, 10]] = 1.0
        folds = FoldPlan(np.repeat([1, 2, 3], 4), 3, 0)
        d = TrialDataset(np.arange(12.0), z, np.arange(12.0).reshape(-1, 1), ("a",))

        def no_fit(sets, family):
            assert not list(sets), "propensity model fitted"
            return []

        monkeypatch.setattr(estimators, "fit_mls", no_fit)
        with pytest.raises(DegenerateFold, match="fold 1 contains a single arm"):
            estimate_crossfit_aipw(d, get_learner("constant"), folds, PiSpec.parametric(("a",)))

    def test_a_separated_fold_fails_before_a_later_single_arm_fold(self):
        # column a separates the arms in fold 1, and fold 3 holds only treated
        # rows: the folds' propensity models walk one stack up to fold 3, and
        # fold 1's Separation comes first, as a loop over the folds meets it
        rng = np.random.default_rng(11)
        z = np.r_[np.zeros(5), np.ones(5), np.tile([0.0, 1.0], 5), np.ones(10)]
        a = rng.standard_normal(30)
        folds = FoldPlan(np.repeat([1, 2, 3], 10), 3, 0)
        for separated, expected in ((False, DegenerateFold), (True, Separation)):
            if separated:
                a[:10] = np.r_[np.arange(5.0) - 10.0, np.arange(5.0) + 10.0]
            d = TrialDataset(rng.standard_normal(30), z, a[:, None].copy(), ("a",))
            with pytest.raises(TrialcraftError) as caught:
                estimate_crossfit_aipw(d, get_learner("constant"), folds, PiSpec.parametric(("a",)))
            assert type(caught.value) is expected
            if separated:
                with pytest.raises(Separation):
                    propensity_scores(d, ("a",), folds.fold_indices(1))
            else:
                assert "fold 3 contains a single arm" in str(caught.value)


class TestTransformContrast:
    def binary_result(self, rng):
        d = simulate_trial(rng, n=150, family=GlmFamily.BINOMIAL, effect=0.8)
        return estimate_standardization(d, family=GlmFamily.BINOMIAL)

    def test_risk_difference_is_identity(self, rng):
        r = self.binary_result(rng)
        t = transform_contrast(r, "risk_difference")
        assert t.theta_hat == r.theta_hat and t.se == r.se

    def test_null_means_give_zero_ratios(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        z = np.array([1.0, 1.0, 0.0, 0.0])
        d = TrialDataset(y, z, np.zeros((4, 1)), ("a",))
        r = estimate_unadjusted(d)
        assert transform_contrast(r, "log_risk_ratio").theta_hat == pytest.approx(0.0)
        assert transform_contrast(r, "log_odds_ratio").theta_hat == pytest.approx(0.0)

    def test_log_or_se_matches_finite_difference_oracle(self, rng):
        r = self.binary_result(rng)
        t = transform_contrast(r, "log_odds_ratio")
        # numeric delta method: central-difference gradient of g(mu1, mu0)
        g = lambda m1, m0: math.log(m1 / (1 - m1)) - math.log(m0 / (1 - m0))
        h = 1e-6
        g1 = (g(r.mu1_hat + h, r.mu0_hat) - g(r.mu1_hat - h, r.mu0_hat)) / (2 * h)
        g0 = (g(r.mu1_hat, r.mu0_hat + h) - g(r.mu1_hat, r.mu0_hat - h)) / (2 * h)
        n = r.if_mu1.size
        cov = np.cov(np.vstack([r.if_mu1, r.if_mu0]), ddof=1) / n
        # g0 from the central difference is already negative
        oracle = math.sqrt(g1 * g1 * cov[0, 0] + g0 * g0 * cov[1, 1] + 2 * g1 * g0 * cov[0, 1])
        assert t.se == pytest.approx(oracle, abs=1e-6)

    def test_domain_errors(self, rng):
        d = simulate_trial(rng, n=60)
        r = estimate_unadjusted(d)  # continuous means can be negative / > 1
        if r.mu1_hat <= 0 or r.mu0_hat <= 0:
            with pytest.raises(DomainError):
                transform_contrast(r, "log_risk_ratio")
        if not (0 < r.mu1_hat < 1 and 0 < r.mu0_hat < 1):
            with pytest.raises(DomainError):
                transform_contrast(r, "log_odds_ratio")


class TestSharedInvariants:
    def test_location_equivariance_gaussian(self, rng):
        d = simulate_trial(rng, n=90)
        shifted = TrialDataset(d.y + 11.5, d.z, d.x, d.column_names)
        folds = make_folds(d.n, 3, d.z, seed=5, stratified=True)
        runs = [
            lambda dd: estimate_unadjusted(dd),
            lambda dd: estimate_standardization(dd, family=GlmFamily.GAUSSIAN),
            lambda dd: estimate_data_adaptive(dd, family=GlmFamily.GAUSSIAN,
                                              selection=NO_SELECTION),
            lambda dd: estimate_tmle(dd, family=GlmFamily.GAUSSIAN, selection=NO_SELECTION),
            lambda dd: estimate_crossfit_aipw(dd, get_learner("wrong_model"), folds, seed=1),
            lambda dd: estimate_cvtmle(dd, get_learner("wrong_model"), folds, seed=1),
            lambda dd: estimate_strong_null(dd, None, GlmFamily.GAUSSIAN),
        ]
        for run in runs:
            a, b = run(d), run(shifted)
            assert abs(a.theta_hat - b.theta_hat) <= 1e-10

    def test_antisymmetry_simple_estimators(self, rng):
        d = simulate_trial(rng, n=70)
        swapped = TrialDataset(d.y, 1 - d.z, d.x, d.column_names)
        for run in (
            lambda dd: estimate_unadjusted(dd),
            lambda dd: estimate_standardization(dd, family=GlmFamily.GAUSSIAN),
        ):
            assert run(d).theta_hat == pytest.approx(-run(swapped).theta_hat, abs=1e-12)

    def test_theta_is_exactly_mu_difference(self, rng):
        d = simulate_trial(rng, n=60)
        folds = make_folds(d.n, 3, d.z, seed=2, stratified=True)
        results = [
            estimate_unadjusted(d),
            estimate_standardization(d, family=GlmFamily.GAUSSIAN),
            estimate_crossfit_aipw(d, get_learner("constant"), folds),
            estimate_cvtmle(d, get_learner("constant"), folds, seed=1),
        ]
        for r in results:
            assert r.theta_hat == r.mu1_hat - r.mu0_hat
            assert r.ci_low <= r.theta_hat <= r.ci_high
            assert r.se >= 0
            assert abs(r.if_mu1.mean()) <= 1e-10
            assert abs(r.if_mu0.mean()) <= 1e-10

    def test_zero_event_arm_binary(self):
        # a control arm with no events is a valid binary trial, not separation
        rng = np.random.default_rng(3)
        x = rng.standard_normal((120, 3))
        z = np.tile([1.0, 0.0], 60)
        y = np.where(z == 1, rng.uniform(size=120) < 0.4, 0.0).astype(float)
        d = TrialDataset(y, z, x, ("a", "b", "c"))
        folds = make_folds(d.n, 3, d.z, seed=1)
        binary = GlmFamily.BINOMIAL
        results = [
            estimate_standardization(d, family=binary),
            estimate_data_adaptive(d, family=binary),
            estimate_tmle(d, family=binary),
            estimate_crossfit_aipw(d, get_learner("post_lasso"), folds, family=binary),
            estimate_crossfit_aipw(d, get_learner("wrong_model"), folds, family=binary),
        ]
        for r in results:
            assert abs(r.mu0_hat) <= 1e-8
            assert math.isfinite(r.se)


class TestRowPermutation:
    """Estimators that use no folds see a set of participants, not a sequence."""

    @staticmethod
    def estimates(d, family, pi):
        try:
            return [
                (r.theta_hat, r.se)
                for r in (estimate_unadjusted(d, pi),
                          estimate_standardization(d, family=family, pi=pi))
            ]
        except TrialcraftError as exc:
            return type(exc)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(40, 120),
        st.integers(0, 3),
        st.sampled_from(list(GlmFamily)),
        st.sampled_from([PiSpec("known", 0.5), PiSpec("estimated_overall")]),
    )
    def test_theta_and_se_invariant_to_row_order(self, seed, n, p, family, pi):
        rng = np.random.default_rng(seed)
        d = simulate_trial(rng, n=n, p=max(p, 1), family=family)
        if p == 0:
            d = TrialDataset(d.y, d.z, d.x[:, :0], ())
        order = rng.permutation(n)
        permuted = TrialDataset(d.y[order], d.z[order], d.x[order], d.column_names)
        before, after = self.estimates(d, family, pi), self.estimates(permuted, family, pi)
        if isinstance(before, type):
            assert after is before
            return
        scale = max(1.0, float(np.abs(d.y).max()))
        for (theta, se), (theta_p, se_p) in zip(before, after):
            assert math.isclose(theta_p, theta, rel_tol=1e-10, abs_tol=1e-10 * scale)
            assert math.isclose(se_p, se, rel_tol=1e-10, abs_tol=1e-10 * scale)


class TestMonteCarloSmoke:
    """Reduced-replication statistical checks; the acceptance suite runs
    the full-size versions of these claims."""

    @pytest.mark.parametrize("learner_name", ["constant", "ridge", "post_lasso"])
    def test_crossfit_unbiased_with_known_pi_every_learner(self, learner_name):
        # the full-size runs for wrong_model and knn live in the acceptance
        # gate; this completes the shipped-learner set at reduced replication
        spec = DgpSpec("t", n=50, p=2, pi=0.5, mechanism="linear", effect_size=0.7)
        estimates = []
        for r in range(400):
            d = generate_dataset(spec, np.random.SeedSequence((77, r)))
            folds = make_folds(d.n, 2, d.z, seed=r, stratified=False)
            res = estimate_crossfit_aipw(
                d, get_learner(learner_name), folds, PiSpec.known(0.5), seed=r
            )
            estimates.append(res.theta_hat)
        estimates = np.asarray(estimates)
        mc_se = estimates.std(ddof=1) / math.sqrt(len(estimates))
        assert abs(estimates.mean() - 0.7) <= 3 * mc_se

    def test_constant_learner_crossfit_tracks_unadjusted(self, rng):
        # near-identity: augmentation with a constant prediction leaves only
        # small per-fold arm-share fluctuations around the mean difference
        d = simulate_trial(rng, n=200)
        folds = make_folds(d.n, 4, d.z, seed=5, stratified=True)
        a = estimate_crossfit_aipw(d, get_learner("constant"), folds)
        b = estimate_unadjusted(d)
        assert abs(a.theta_hat - b.theta_hat) < 0.2 * b.se

    def test_strong_null_known_pi_unbiased_under_null(self):
        spec = DgpSpec("sn", n=80, p=2, pi=0.5, mechanism="null_effect")
        estimates = []
        for r in range(400):
            d = generate_dataset(spec, np.random.SeedSequence((505, r)))
            res = estimate_strong_null(
                d, get_learner("knn"), GlmFamily.GAUSSIAN, pi=PiSpec.known(0.5), seed=r
            )
            estimates.append(res.theta_hat)
        estimates = np.asarray(estimates)
        mc_se = estimates.std(ddof=1) / math.sqrt(len(estimates))
        assert abs(estimates.mean()) <= 3 * mc_se

    def test_parametric_ps_more_efficient_than_constant_pi(self):
        # misspecified outcome learner + prognostic propensity covariate
        spec = DgpSpec("pp", n=300, p=2, pi=0.5, mechanism="ps_informative",
                       effect_size=0.4)
        adj, plain = [], []
        for r in range(300):
            d = generate_dataset(spec, np.random.SeedSequence((606, r)))
            folds = make_folds(d.n, 4, d.z, seed=r, stratified=True)
            adj.append(estimate_crossfit_aipw(
                d, get_learner("constant"), folds, PiSpec.parametric(("x1",)), seed=r).theta_hat)
            plain.append(estimate_crossfit_aipw(
                d, get_learner("constant"), folds, PiSpec.per_fold(), seed=r).theta_hat)
        assert np.var(adj, ddof=1) < np.var(plain, ddof=1)

    def test_noise_column_does_not_move_data_adaptive(self):
        # selection mistakes are second order: adding a pure-noise candidate
        # leaves the estimate essentially unchanged on average
        diffs = []
        for r in range(60):
            rng = np.random.default_rng(900 + r)
            d = simulate_trial(rng, n=400, p=2)
            noise = rng.standard_normal((d.n, 1))
            d_plus = TrialDataset(d.y, d.z, np.column_stack([d.x, noise]), ("x1", "x2", "x3"))
            a = estimate_data_adaptive(d, family=GlmFamily.GAUSSIAN, seed=r)
            b = estimate_data_adaptive(d_plus, family=GlmFamily.GAUSSIAN, seed=r)
            diffs.append(b.theta_hat - a.theta_hat)
        diffs = np.asarray(diffs)
        mc_se = diffs.std(ddof=1) / math.sqrt(len(diffs)) if diffs.std() > 0 else 1e-12
        assert abs(diffs.mean()) <= max(3 * mc_se, 1e-6)
