import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import knn_reference, ridge_reference
from trialcraft.errors import ConfigError
from trialcraft.glm import GlmFamily, expit, fit_ml, predict
from trialcraft.learners import _cv_losses, get_learner
from trialcraft.selection import lasso_cv

ALL_LEARNERS = ["post_lasso", "ridge", "knn", "constant", "wrong_model"]


def linear_data(rng, n=120, p=3):
    x = rng.standard_normal((n, p))
    y = 2.0 * x[:, 0] + 0.3 * rng.standard_normal(n)
    return x, y


class TestPostLasso:
    def test_beats_constant_out_of_sample(self, rng):
        x, y = linear_data(rng, n=500)
        xt, yt = linear_data(rng, n=500)
        pl = get_learner("post_lasso").train(x, y, GlmFamily.GAUSSIAN, seed=1)
        co = get_learner("constant").train(x, y, GlmFamily.GAUSSIAN, seed=1)
        mse_pl = float(np.mean((yt - pl.predict(xt)) ** 2))
        mse_co = float(np.mean((yt - co.predict(xt)) ** 2))
        assert mse_pl < mse_co

    def test_empty_model_predicts_training_mean(self, rng):
        # pure noise candidate: 1se rule keeps the model empty
        x = rng.standard_normal((100, 1))
        y = rng.standard_normal(100)
        predictor = get_learner("post_lasso").train(x, y, GlmFamily.GAUSSIAN, seed=7)
        np.testing.assert_allclose(predictor.predict(x), np.full(100, y.mean()), atol=1e-10)

    def test_refits_lasso_selection_at_multi_digit_indices(self, rng):
        # the signal sits in x10 and x11, so the selection names two-digit columns
        x = rng.standard_normal((150, 12))
        y = 1.5 * x[:, 10] - x[:, 11] + 0.5 * rng.standard_normal(150)
        sel = lasso_cv(x, y, GlmFamily.GAUSSIAN, k_cv=5, seed=3, lambda_rule="1se")
        idx = [int(name[1:]) for name in sel.selected_columns]
        assert {10, 11} <= set(idx)
        expected = predict(fit_ml(x[:, idx], y, GlmFamily.GAUSSIAN), x[:, idx])
        predictor = get_learner("post_lasso", k_cv=5, lambda_rule="1se").train(
            x, y, GlmFamily.GAUSSIAN, seed=3)
        assert np.array_equal(predictor.predict(x), expected)

    def test_deterministic(self, rng):
        x, y = linear_data(rng)
        a = get_learner("post_lasso").train(x, y, GlmFamily.GAUSSIAN, seed=5).predict(x)
        b = get_learner("post_lasso").train(x, y, GlmFamily.GAUSSIAN, seed=5).predict(x)
        np.testing.assert_array_equal(a, b)

    def test_tiny_training_arm_degrades_gracefully(self, rng):
        # inside cross-fitting a training arm can shrink below the internal
        # CV fold count; the learner must still produce a predictor
        for n in (1, 2, 3, 4):
            x = rng.standard_normal((n, 2))
            y = rng.standard_normal(n)
            predictor = get_learner("post_lasso").train(x, y, GlmFamily.GAUSSIAN, seed=1)
            out = predictor.predict(rng.standard_normal((5, 2)))
            assert np.all(np.isfinite(out))


class TestRidge:
    def test_tiny_lambda_is_ols(self, rng):
        x, y = linear_data(rng, n=60)
        predictor = get_learner("ridge", lambda_grid=[1e-10]).train(x, y, GlmFamily.GAUSSIAN)
        ols = fit_ml(x, y, GlmFamily.GAUSSIAN)
        np.testing.assert_allclose(predictor.predict(x), predict(ols, x), atol=1e-6)

    def test_huge_lambda_predicts_mean(self, rng):
        x, y = linear_data(rng, n=60)
        predictor = get_learner("ridge", lambda_grid=[1e12]).train(x, y, GlmFamily.GAUSSIAN)
        np.testing.assert_allclose(predictor.predict(x), np.full(60, y.mean()), atol=1e-6)

    def test_hand_problem_matches_normal_equations(self):
        x = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 4.0], [4.0, 3.0], [5.0, 5.0]])
        y = np.array([1.0, 2.0, 2.0, 4.0, 3.0])
        lam = 0.7
        predictor = get_learner("ridge", lambda_grid=[lam]).train(x, y, GlmFamily.GAUSSIAN)
        # oracle: centered/standardized normal equations solved directly
        means, sds = x.mean(axis=0), x.std(axis=0)
        xs = (x - means) / sds
        beta = np.linalg.solve(xs.T @ xs + lam * np.eye(2), xs.T @ (y - y.mean()))
        expected = y.mean() + xs @ beta
        np.testing.assert_allclose(predictor.predict(x), expected, atol=1e-10)

    @pytest.mark.parametrize("branch, seed", [("cv", 0), ("one_penalty", 1), ("too_few_rows", 2)])
    def test_stacked_cv_matches_one_solve_per_penalty(self, branch, seed):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            p, k_cv = int(rng.integers(1, 9)), int(rng.integers(2, 6))
            n = 2 * k_cv - 1 if branch == "too_few_rows" else int(rng.integers(10, 301))
            x = rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0, size=p)
            y = x @ rng.standard_normal(p) + rng.standard_normal(n)
            xq = rng.standard_normal((20, p)) * x.std(axis=0)
            params = {"lambda_grid": [0.3]} if branch == "one_penalty" else {}
            learner = get_learner("ridge", k_cv=k_cv, **params)
            seed = int(rng.integers(2**31))
            index, losses, reference = ridge_reference(learner, x, y, seed)
            predictor = learner.train(x, y, GlmFamily.GAUSSIAN, seed=seed)
            np.testing.assert_array_equal(predictor.predict(xq), reference.predict(xq))
            np.testing.assert_array_equal(predictor.beta, reference.beta)
            assert (losses is None) == (branch != "cv")
            if losses is not None:
                xs = (x - predictor.means) / predictor.sds
                cv = _cv_losses(xs, y - predictor.intercept, np.asarray(learner.lambda_grid),
                                k_cv, seed)
                # equal bits, not a tolerance: a loss a rounding apart could
                # move the chosen penalty on a near tie
                np.testing.assert_array_equal(cv, losses)
                assert int(np.argmin(cv)) == index


@st.composite
def knn_problems(draw):
    """Tie-heavy kNN inputs: integer covariates in a small range, duplicated
    training rows, query rows copied from the training rows, p = 0, any k,
    and at most one non-finite cell."""
    p = draw(st.integers(0, 3))
    span = draw(st.integers(1, 4))
    cells = st.integers(-span, span).map(float)
    distinct = draw(arrays(float, (draw(st.integers(1, 12)), p), elements=cells))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=30))
    x_train = distinct[picks]
    n = len(x_train)
    y_train = draw(arrays(float, n, elements=st.floats(-5.0, 5.0)))
    fresh = draw(arrays(float, (draw(st.integers(0, 8)), p), elements=cells))
    copied = x_train[draw(st.lists(st.integers(0, n - 1), max_size=8))]
    x_query = np.concatenate([fresh, copied])
    k = draw(st.integers(1, n))
    target = draw(st.sampled_from(["none", "train", "query"]))
    array = {"train": x_train, "query": x_query}.get(target)
    if array is not None and array.size:
        row = draw(st.integers(0, array.shape[0] - 1))
        col = draw(st.integers(0, p - 1))
        array[row, col] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    family = draw(st.sampled_from(list(GlmFamily)))
    return x_train, y_train, x_query, k, family


class TestKnn:
    @settings(max_examples=400)
    @given(knn_problems())
    def test_same_bits_as_a_full_stable_sort(self, problem):
        x_train, y_train, x_query, k, family = problem
        with np.errstate(all="ignore"):
            predictor = get_learner("knn", k=k).train(x_train, y_train, family)
            np.testing.assert_array_equal(predictor.predict(x_query),
                                          knn_reference(predictor, x_query))

    def test_k_equals_n_is_training_mean(self, rng):
        x, y = linear_data(rng, n=30)
        predictor = get_learner("knn", k=30).train(x, y, GlmFamily.GAUSSIAN)
        np.testing.assert_allclose(predictor.predict(x), np.full(30, y.mean()), atol=1e-12)

    def test_k1_reproduces_training_outcome(self, rng):
        x, y = linear_data(rng, n=25)
        predictor = get_learner("knn", k=1).train(x, y, GlmFamily.GAUSSIAN)
        np.testing.assert_allclose(predictor.predict(x), y, atol=1e-12)

    def test_six_point_hand_example(self):
        x = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
        predictor = get_learner("knn", k=3).train(x, y, GlmFamily.GAUSSIAN)
        query = np.array([[1.0], [11.0]])
        # exhaustive oracle: all pairwise distances, pick 3 closest
        sd = x.std()
        expected = []
        for q in query[:, 0]:
            dist = np.abs((x[:, 0] - x.mean()) / sd - (q - x.mean()) / sd)
            order = np.argsort(dist, kind="stable")[:3]
            expected.append(y[order].mean())
        np.testing.assert_allclose(predictor.predict(query), expected, atol=1e-12)

    def test_tie_breaks_to_lower_index(self):
        x = np.array([[0.0], [2.0], [2.0], [4.0]])
        y = np.array([0.0, 10.0, 20.0, 30.0])
        predictor = get_learner("knn", k=2).train(x, y, GlmFamily.GAUSSIAN)
        # query at 0: nearest is row 0, then rows 1 and 2 tie; row 1 wins
        np.testing.assert_allclose(predictor.predict(np.array([[0.0]])), [(0.0 + 10.0) / 2])

    def test_default_k_is_sqrt_n(self, rng):
        x, y = linear_data(rng, n=50)
        predictor = get_learner("knn").train(x, y, GlmFamily.GAUSSIAN)
        assert predictor.k == 8  # ceil(sqrt(50))
        assert get_learner("knn", k=None).train(x, y, GlmFamily.GAUSSIAN).k == 8

    @pytest.mark.parametrize("name, params", [
        ("knn", {"k": 2.5}), ("knn", {"k": True}), ("post_lasso", {"k_cv": "3"}),
        ("ridge", {"lambda_grid": [True]}), ("ridge", {"k_cv": 3.0}),
    ])
    def test_params_read_by_their_fields_types(self, name, params):
        with pytest.raises(ConfigError, match="plan.learner.params"):
            get_learner(name, **params)

    def test_invalid_k(self, rng):
        x, y = linear_data(rng, n=10)
        with pytest.raises(ConfigError):
            get_learner("knn", k=11).train(x, y, GlmFamily.GAUSSIAN)


class TestConstant:
    def test_predicts_training_mean(self, rng):
        x, y = linear_data(rng, n=40)
        predictor = get_learner("constant").train(x, y, GlmFamily.GAUSSIAN)
        np.testing.assert_allclose(predictor.predict(x[:5]), np.full(5, y.mean()))

    def test_binomial_output_in_unit_interval(self, rng):
        x = rng.standard_normal((30, 2))
        y = (rng.uniform(size=30) < 0.4).astype(float)
        predictor = get_learner("constant").train(x, y, GlmFamily.BINOMIAL)
        out = predictor.predict(x)
        assert np.all((0 <= out) & (out <= 1))


class TestWrongModel:
    def test_worse_than_knn_on_quadratic_truth(self, rng):
        n = 600
        x = rng.standard_normal((n, 2))
        f = lambda a: 2.0 * a[:, 0] ** 2
        y = f(x) + 0.2 * rng.standard_normal(n)
        xt = rng.standard_normal((n, 2))
        yt = f(xt) + 0.2 * rng.standard_normal(n)
        wrong = get_learner("wrong_model").train(x, y, GlmFamily.GAUSSIAN)
        knn = get_learner("knn").train(x, y, GlmFamily.GAUSSIAN)
        mse_wrong = float(np.mean((yt - wrong.predict(xt)) ** 2))
        mse_knn = float(np.mean((yt - knn.predict(xt)) ** 2))
        assert mse_knn < mse_wrong

    def test_matches_post_lasso_on_strong_linear_truth(self, rng):
        x, y = linear_data(rng, n=400)
        wrong = get_learner("wrong_model").train(x, y, GlmFamily.GAUSSIAN)
        pl = get_learner("post_lasso", lambda_rule="min").train(x, y, GlmFamily.GAUSSIAN, seed=2)
        # both are near the truth; their predictions agree closely
        gap = float(np.max(np.abs(wrong.predict(x) - pl.predict(x))))
        assert gap < 0.15


class TestContract:
    @pytest.mark.parametrize("name", ALL_LEARNERS)
    def test_no_leakage_from_heldout_rows(self, name, rng):
        x, y = linear_data(rng, n=60)
        train = np.arange(40)
        learner = get_learner(name)
        a = learner.train(x[train], y[train], GlmFamily.GAUSSIAN, seed=3).predict(x[40:])
        y2 = y.copy()
        y2[40:] += 1000.0  # perturb held-out outcomes only
        b = learner.train(x[train], y2[train], GlmFamily.GAUSSIAN, seed=3).predict(x[40:])
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", ALL_LEARNERS)
    def test_determinism(self, name, rng):
        x = rng.standard_normal((50, 2))
        y = (rng.uniform(size=50) < expit(x[:, 0])).astype(float)
        learner = get_learner(name)
        a = learner.train(x, y, GlmFamily.BINOMIAL, seed=9).predict(x)
        b = learner.train(x, y, GlmFamily.BINOMIAL, seed=9).predict(x)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", ALL_LEARNERS)
    def test_binomial_range(self, name, rng):
        x = rng.standard_normal((50, 2))
        y = (rng.uniform(size=50) < expit(2 * x[:, 0])).astype(float)
        out = get_learner(name).train(x, y, GlmFamily.BINOMIAL, seed=1).predict(x)
        assert np.all((0.0 <= out) & (out <= 1.0))
        assert np.all(np.isfinite(out))

    def test_unknown_learner_rejected(self):
        with pytest.raises(ConfigError):
            get_learner("gradient_forest")
