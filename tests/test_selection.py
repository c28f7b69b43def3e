import warnings

import numpy as np
import pytest

from conftest import kkt_violation, lasso_fit, score_residual, spy_irls_stacks
from trialcraft.errors import ConfigError, DataError, EstimationError, NonConvergence, Separation
from trialcraft.errors import Singular
from trialcraft.glm import GlmFamily, expit, fit_ml
from trialcraft.selection import (
    SelectionConfig,
    SelectionResult,
    _column_names,
    _refit_columns,
    lasso_cv,
    lasso_lambda_max,
    lasso_path,
    stepwise_aic,
)
from trialcraft.simulation import DgpSpec, generate_dataset


def toy_problem(rng, n=20, p=8, family=GlmFamily.GAUSSIAN):
    x = rng.standard_normal((n, p))
    eta = 2.0 * x[:, 0] - 1.0 * x[:, 1]
    if family is GlmFamily.BINOMIAL:
        y = (rng.uniform(size=n) < expit(eta)).astype(float)
    else:
        y = eta + 0.3 * rng.standard_normal(n)
    return x, y


class TestLassoFit:
    def test_unpenalized_limit_matches_ml(self, rng):
        for family in GlmFamily:
            x, y = toy_problem(rng, n=40, p=4, family=family)
            coef = lasso_fit(x, y, family, 0.0)
            ml = fit_ml(x, y, family)
            np.testing.assert_allclose(coef, ml.coefficients, atol=1e-6)

    def test_lambda_max_zeroes_everything(self, rng):
        for family in GlmFamily:
            x, y = toy_problem(rng, n=30, p=5, family=family)
            lam = lasso_lambda_max(x, y, family)
            coef = lasso_fit(x, y, family, lam * 1.000001)
            assert np.all(coef[1:] == 0.0)

    def test_kkt_certificate_random_problem(self, rng):
        x, y = toy_problem(rng, n=20, p=8)
        lam = 0.5 * lasso_lambda_max(x, y, GlmFamily.GAUSSIAN)
        coef = lasso_fit(x, y, GlmFamily.GAUSSIAN, lam)
        assert kkt_violation(x, y, GlmFamily.GAUSSIAN, lam, coef) <= 1e-6

    def test_kkt_with_weights(self, rng):
        x, y = toy_problem(rng, n=40, p=6)
        w = rng.uniform(0.5, 2.0, size=40)
        lam = 0.3 * lasso_lambda_max(x, y, GlmFamily.GAUSSIAN, weights=w)
        coef = lasso_fit(x, y, GlmFamily.GAUSSIAN, lam, weights=w)
        assert kkt_violation(x, y, GlmFamily.GAUSSIAN, lam, coef, weights=w) <= 1e-6

    def test_negative_lambda_rejected(self, rng):
        x, y = toy_problem(rng)
        with pytest.raises(ConfigError):
            lasso_fit(x, y, GlmFamily.GAUSSIAN, -0.1)


class TestLassoPath:
    def test_training_deviance_monotone(self, rng):
        for family in GlmFamily:
            x, y = toy_problem(rng, n=50, p=6, family=family)
            lam_max = lasso_lambda_max(x, y, family)
            lams = np.geomspace(lam_max, lam_max * 1e-4, 60)
            _, devs = lasso_path(x, y, family, lams)
            assert np.all(np.diff(devs) <= 1e-8)

    def test_ascending_grid_rejected(self, rng):
        x, y = toy_problem(rng)
        with pytest.raises(ConfigError):
            lasso_path(x, y, GlmFamily.GAUSSIAN, [0.01, 0.1])


class TestLassoCv:
    def test_pure_noise_selects_almost_nothing(self, rng):
        # pinned: at this seed the one-standard-error rule keeps the model empty
        x = rng.standard_normal((100, 6))
        y = rng.standard_normal(100)
        res = lasso_cv(x, y, GlmFamily.GAUSSIAN, k_cv=5, seed=7)
        assert len(res.selected_columns) <= 1
        assert res.selected_columns == ()

    def test_strong_signal_found_on_every_seed(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            x = rng.standard_normal((200, 5))
            y = 5.0 * x[:, 0] + 0.1 * rng.standard_normal(200)
            res = lasso_cv(x, y, GlmFamily.GAUSSIAN, k_cv=5, seed=seed)
            hits += "x0" in res.selected_columns
        assert hits == 100

    def test_deterministic_given_seed(self, rng):
        x, y = toy_problem(rng, n=60, p=5)
        a = lasso_cv(x, y, GlmFamily.GAUSSIAN, k_cv=5, seed=11)
        b = lasso_cv(x, y, GlmFamily.GAUSSIAN, k_cv=5, seed=11)
        assert a == b

    def test_exact_duplicate_column_never_enters(self):
        # both copies reach the same knot; only the lower-index one may enter
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n, p = int(rng.integers(40, 200)), int(rng.integers(2, 12))
            x = rng.standard_normal((n, p)) * rng.uniform(0.01, 100, p) + rng.uniform(-50, 50, p)
            x[:, -1] = x[:, 0]
            y = (x[:, 0] - x[:, 0].mean()) / x[:, 0].std() + rng.standard_normal(n)
            w = rng.uniform(0.5, 2.0, n) if seed % 2 else None
            res = lasso_cv(x, y, GlmFamily.GAUSSIAN, k_cv=5, seed=seed, weights=w)
            assert f"x{p - 1}" not in res.selected_columns, seed
            assert res.dropped_zero_variance == ()

    def test_zero_variance_column_dropped(self, rng):
        x = rng.standard_normal((50, 3))
        x[:, 1] = 2.0
        y = x[:, 0] + 0.1 * rng.standard_normal(50)
        res = lasso_cv(x, y, GlmFamily.GAUSSIAN, k_cv=5, seed=0, column_names=("a", "b", "c"))
        assert res.dropped_zero_variance == ("b",)
        assert "b" not in res.selected_columns

    @pytest.mark.parametrize("seed", range(10))
    def test_weighted_constant_column_dropped(self, seed):
        # with uneven weights a constant 0.3 column's SD comes out near 1e-16, not 0
        rng = np.random.default_rng(seed)
        x = np.column_stack([rng.standard_normal(100), np.full(100, 0.3)])
        y = x[:, 0] + rng.standard_normal(100)
        w = rng.uniform(0.5, 2.0, 100)
        res = lasso_cv(x, y, GlmFamily.GAUSSIAN, seed=0, weights=w, column_names=("a", "c"))
        assert res.dropped_zero_variance == ("c",)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("family, value", [
        (GlmFamily.GAUSSIAN, 0.0), (GlmFamily.GAUSSIAN, 0.1), (GlmFamily.GAUSSIAN, 3.3),
        (GlmFamily.GAUSSIAN, -7.25), (GlmFamily.GAUSSIAN, 1e6 + 0.1),
        (GlmFamily.BINOMIAL, 0.0), (GlmFamily.BINOMIAL, 1.0),
    ])
    def test_constant_outcome_noted_whatever_its_value(self, family, value, weighted):
        # the CV must not run on a penalty grid made of rounding noise
        rng = np.random.default_rng(5)
        x = rng.standard_normal((120, 3))
        w = rng.uniform(0.5, 2.0, 120) if weighted else None
        res = lasso_cv(x, np.full(120, value), family, seed=1, weights=w)
        assert res.selected_columns == ()
        assert res.path_diagnostics == {"lambdas": [], "note": "outcome has no variance"}

    @pytest.mark.parametrize("family, y", [(GlmFamily.GAUSSIAN, [1.0, 1.0, 2.0, 2.0]),
                                           (GlmFamily.BINOMIAL, [0.0, 0.0, 1.0, 1.0])])
    def test_candidates_orthogonal_to_the_outcome_noted(self, family, y):
        # x'(y - ybar) = 0, so lam_max is 0 and no path is run
        x = np.tile([1.0, -1.0, 1.0, -1.0], 5)[:, None]
        res = lasso_cv(x, np.tile(y, 5), family, seed=0)
        assert res.selected_columns == ()
        assert res.path_diagnostics == {"lambdas": [],
                                        "note": "no candidate correlates with the outcome"}

    @pytest.mark.parametrize("family", list(GlmFamily))
    def test_no_rows_is_a_data_error(self, family):
        with pytest.raises(DataError, match="lasso_cv: no rows"):
            lasso_cv(np.zeros((0, 2)), np.zeros(0), family)

    def test_binomial_selection_at_lambda_max_ignores_covariate_units(self):
        # lambda_max zeroes every coefficient, but the binomial path can leave
        # about 1e-16 on the column that attains it: x0 was selected at chosen
        # index 0 for seed 5 under (1e4, 0) and (1, 1e4), and for seed 6 under (1, 1e4)
        spec = DgpSpec("linear", n=200, p=5, pi=0.5, outcome_kind="binary", effect_size=0.3)
        for seed in range(10):
            d = generate_dataset(spec, seed)
            x, y = d.x[d.z == 0], d.y[d.z == 0]
            base = lasso_cv(x, y, GlmFamily.BINOMIAL, seed=seed).selected_columns
            for a, b in [(1e-4, 0.0), (1e4, 0.0), (1.0, 1e4), (1e3, -5e5)]:
                moved = x.copy()
                moved[:, 0] = a * moved[:, 0] + b
                moved[:, 3] *= a
                res = lasso_cv(moved, y, GlmFamily.BINOMIAL, seed=seed)
                assert res.selected_columns == base, (seed, a, b)

    @pytest.mark.parametrize("scale", [1e155, 1e160])
    def test_gaussian_moments_that_overflow_are_an_estimation_error(self, scale):
        # the squares of x1 overflow float64: the CV curve would be NaN
        x = np.random.default_rng(4).standard_normal((200, 3))
        y = x @ [1.0, 0.5, 0.0] + np.random.default_rng(5).standard_normal(200)
        x[:, 1] *= scale
        with pytest.raises(EstimationError, match="overflow"):
            lasso_cv(x, y, GlmFamily.GAUSSIAN, seed=1)

    @pytest.mark.parametrize("family, scale, positive", [
        (GlmFamily.BINOMIAL, 1e155, False), (GlmFamily.BINOMIAL, 1e160, False),
        (GlmFamily.GAUSSIAN, 1e306, True), (GlmFamily.GAUSSIAN, 1e307, True),
        (GlmFamily.BINOMIAL, 1e307, True),
    ])
    def test_covariate_moments_that_overflow_are_an_estimation_error(self, family, scale, positive):
        # x1's squares overflow, or (positive) its weighted sum: the mean is
        # then inf and the column would pass for a constant one
        rng = np.random.default_rng(6)
        x = rng.standard_normal((200, 3))
        eta = x @ [1.0, 0.5, 0.0]
        y = (rng.uniform(size=200) < expit(eta)).astype(float) if family is GlmFamily.BINOMIAL \
            else eta + rng.standard_normal(200)
        x[:, 1] = (np.abs(x[:, 1]) + 1.0) * scale if positive else x[:, 1] * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match="weighted moments overflow float64"):
                lasso_cv(x, y, family, seed=1)

    @pytest.mark.parametrize("lambda_rule", ["1se", "min"])
    def test_cv_losses_that_overflow_are_an_estimation_error(self, lambda_rule):
        # an outcome near 1e100 has finite moments and fold losses near 1e200,
        # but the squares in their standard error overflow: the 1se rule read
        # an infinite cutoff and chose the empty model
        rng = np.random.default_rng(7)
        x = rng.standard_normal((60, 3))
        y = (x @ [1.0, 0.5, 0.0] + rng.standard_normal(60)) * 1e100
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match="cross-validation losses overflow"):
                lasso_cv(x, y, GlmFamily.GAUSSIAN, seed=1, lambda_rule=lambda_rule)

    def test_min_rule_selects_at_least_as_much(self, rng):
        x, y = toy_problem(rng, n=80, p=6)
        r1 = lasso_cv(x, y, GlmFamily.GAUSSIAN, k_cv=5, seed=2, lambda_rule="1se")
        r2 = lasso_cv(x, y, GlmFamily.GAUSSIAN, k_cv=5, seed=2, lambda_rule="min")
        assert r2.path_diagnostics["chosen_lambda"] <= r1.path_diagnostics["chosen_lambda"]


class TestStepwiseAic:
    def test_null_candidate_not_selected(self):
        # pinned: single noise candidate, null outcome, seed 3
        rng = np.random.default_rng(3)
        x = rng.standard_normal((100, 1))
        y = rng.standard_normal(100)
        res = stepwise_aic(x, y, GlmFamily.GAUSSIAN)
        assert res.selected_columns == ()

    def test_perfect_predictor_selected(self, rng):
        x = rng.standard_normal((50, 3))
        y = x[:, 1].copy()
        res = stepwise_aic(x, y, GlmFamily.GAUSSIAN)
        assert res.selected_columns[0] == "x1"

    def test_duplicate_columns_tie_break_low_index(self, rng):
        base = rng.standard_normal(80)
        x = np.column_stack([base, base, rng.standard_normal(80)])
        y = base + 0.2 * rng.standard_normal(80)
        res = stepwise_aic(x, y, GlmFamily.GAUSSIAN)
        assert "x0" in res.selected_columns
        assert "x1" not in res.selected_columns

    def test_constant_column_dropped_whatever_its_value(self, rng):
        x = np.column_stack([rng.standard_normal(60), np.full(60, 0.3), np.zeros(60)])
        y = x[:, 0] + 0.5 * rng.standard_normal(60)
        res = stepwise_aic(x, y, GlmFamily.GAUSSIAN)
        assert res.dropped_zero_variance == ("x1", "x2")

    @pytest.mark.xfail(strict=True, reason="the Gaussian AIC scores the raw SSE, not n log(SSE/n)")
    @pytest.mark.parametrize("scale", [0.01, 100.0])
    def test_gaussian_selection_ignores_outcome_units(self, scale):
        # AIC = deviance + 2k, and a Gaussian deviance is the SSE, which
        # carries the outcome's units squared: 0.01 y selects nothing and
        # 100 y every column, where y itself selects (x0,)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((200, 8))
        y = 0.5 * x[:, 0] + rng.standard_normal(200)
        assert stepwise_aic(x, y, GlmFamily.GAUSSIAN).selected_columns == ("x0",)
        assert stepwise_aic(x, scale * y, GlmFamily.GAUSSIAN).selected_columns == ("x0",)

    def test_max_terms_cap(self, rng):
        x = rng.standard_normal((100, 5))
        y = x.sum(axis=1) + 0.1 * rng.standard_normal(100)
        res = stepwise_aic(x, y, GlmFamily.GAUSSIAN, max_terms=2)
        assert len(res.selected_columns) == 2

    def test_a_separated_or_singular_candidate_in_a_stack_is_skipped(self, monkeypatch):
        # x2 separates the outcome and x3 copies x0: inside their step's stack
        # their fits raise Separation and (once x0 is in) Singular, and the
        # selection is the one a fit per candidate makes
        rng = np.random.default_rng(9)
        x = rng.standard_normal((80, 4))
        y = (rng.uniform(size=80) < expit(1.5 * x[:, 0] - x[:, 1])).astype(float)
        x[:, 2] = np.where(y == 1, 1.0, -1.0) + 0.5 * rng.uniform(size=80)
        x[:, 3] = x[:, 0]
        with pytest.raises(Separation):
            fit_ml(x[:, [2]], y, GlmFamily.BINOMIAL)
        with pytest.raises(Singular):
            fit_ml(x[:, [0, 3]], y, GlmFamily.BINOMIAL)
        stacks = spy_irls_stacks(monkeypatch)
        got = stepwise_aic(x, y, GlmFamily.BINOMIAL).selected_columns
        assert got == stepwise_one_fit_at_a_time(x, y, GlmFamily.BINOMIAL)
        assert got[0] == "x0" and "x2" not in got and "x3" not in got
        assert stacks[:3] == [1, 4, 3]  # the intercept-only fit, then each step's candidates

    @pytest.mark.parametrize("scale, positive", [(1e155, False), (1e307, True)])
    def test_a_column_whose_moments_overflow_is_an_estimation_error(self, scale, positive):
        # x1's squares overflow, or (positive) its sum: it used to be fitted
        # through an infinite X'WX, and could be selected
        rng = np.random.default_rng(8)
        x = rng.standard_normal((50, 3))
        y = x[:, 0] + rng.standard_normal(50)
        x[:, 1] = (np.abs(x[:, 1]) + 1.0) * scale if positive else x[:, 1] * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match="column 'x1' overflows"):
                stepwise_aic(x, y, GlmFamily.GAUSSIAN)


def stepwise_one_fit_at_a_time(x, y, family):
    """Forward AIC selection by one `fit_ml` per candidate, skipping a
    candidate whose fit separates, is singular or does not converge."""
    current, best_aic = [], fit_ml(None, y, family).deviance + 2.0
    while True:
        best_j, best_candidate_aic = None, best_aic
        for j in range(x.shape[1]):
            if j in current:
                continue
            try:
                fit = fit_ml(x[:, current + [j]], y, family)
            except (Separation, Singular, NonConvergence):
                continue
            aic = fit.deviance + 2.0 * (len(current) + 2)
            if aic < best_candidate_aic - 1e-12:
                best_j, best_candidate_aic = j, aic
        if best_j is None:
            return tuple(f"x{j}" for j in current)
        current.append(best_j)
        best_aic = best_candidate_aic


class TestPostSelectionRefit:
    def test_empty_selection_gives_arm_mean(self, rng):
        x = rng.standard_normal((30, 2))
        y = rng.standard_normal(30)
        _, idx = _refit_columns(("x0", "x1"), SelectionResult(()))
        fit = fit_ml(x[:, idx], y, GlmFamily.GAUSSIAN)
        np.testing.assert_allclose(fit.coefficients, [y.mean()], atol=1e-10)

    def test_refit_restores_score_zero(self, rng):
        x, y = toy_problem(rng, n=60, p=6)
        sel = lasso_cv(x, y, GlmFamily.GAUSSIAN, k_cv=5, seed=4)
        _, idx = _refit_columns(_column_names(None, 6), sel)
        fit = fit_ml(x[:, idx], y, GlmFamily.GAUSSIAN)
        s = score_residual(fit, x[:, idx], y)
        assert np.max(np.abs(s)) <= 1e-8 * 60

    def test_forced_column_deduplicated(self):
        sel = SelectionResult(("x0",))
        assert _refit_columns(("x0", "x1", "x2"), sel, forced=("x0", "x2")) == (["x0", "x2"], [0, 2])


class TestSupportSizeGuard:
    def test_warning_emitted_when_support_large(self, rng):
        # n small, many true signals: selected support exceeds sqrt(n)/log(p v n)
        n, p = 36, 10
        x = rng.standard_normal((n, p))
        y = x @ np.full(p, 2.0) + 0.05 * rng.standard_normal(n)
        res = lasso_cv(x, y, GlmFamily.GAUSSIAN, k_cv=3, seed=1, lambda_rule="min")
        threshold = np.sqrt(n) / np.log(max(p, n))
        if len(res.selected_columns) > threshold:
            assert res.warnings


class TestSelectionConfig:
    @pytest.mark.parametrize("method, field, value", [
        ("lasso_cv", "max_terms", 2), ("none", "max_terms", 0),
        ("stepwise_aic", "k_cv", 3), ("stepwise_aic", "lambda_rule", "min"),
        ("none", "k_cv", 10), ("none", "lambda_rule", "min"),
    ])
    def test_a_field_its_method_does_not_read_is_refused(self, method, field, value):
        with pytest.raises(ConfigError, match=f"{field}: method '{method}' does not read it"):
            SelectionConfig(method, **{field: value})

    @pytest.mark.parametrize("config", [
        {"method": "lasso_cv", "k_cv": 3, "lambda_rule": "min"},
        {"method": "stepwise_aic", "max_terms": 2},
        {"method": "none", "k_cv": 5, "lambda_rule": "1se", "max_terms": None},
    ])
    def test_fields_it_reads_or_left_at_their_defaults_are_accepted(self, config):
        assert SelectionConfig(**config).method == config["method"]
