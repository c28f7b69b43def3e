import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import irls_reference, score_residual
from trialcraft import glm
from trialcraft.errors import DimensionMismatch, NonConvergence, Separation, Singular
from trialcraft.glm import (
    GlmFamily,
    _fit_stack,
    clamp_probabilities,
    expit,
    fit_least_squares,
    fit_ml,
    fit_ml_design,
    fit_mls,
    logit,
    predict,
)


def grid_mle_2param(x, y, lo=-8.0, hi=8.0, passes=14, points=81):
    """Independent oracle: refine a 2-D grid over the exact binomial
    log-likelihood of (intercept, slope). The refinement window shrinks
    slowly enough to track the diagonal likelihood ridge of off-centre
    covariates."""
    b0_lo, b0_hi, b1_lo, b1_hi = lo, hi, lo, hi
    best = (0.0, 0.0)
    for _ in range(passes):
        b0s = np.linspace(b0_lo, b0_hi, points)
        b1s = np.linspace(b1_lo, b1_hi, points)
        eta = b0s[:, None, None] + b1s[None, :, None] * x[None, None, :]
        p = np.clip(expit(eta), 1e-12, 1 - 1e-12)
        ll = (y * np.log(p) + (1 - y) * np.log1p(-p)).sum(axis=2)
        i, j = np.unravel_index(np.argmax(ll), ll.shape)
        best = (b0s[i], b1s[j])
        span0 = (b0_hi - b0_lo) / (points - 1)
        span1 = (b1_hi - b1_lo) / (points - 1)
        b0_lo, b0_hi = best[0] - 4 * span0, best[0] + 4 * span0
        b1_lo, b1_hi = best[1] - 4 * span1, best[1] + 4 * span1
    return np.array(best)


def golden_section(fn, lo, hi, tol=1e-12, iters=200):
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    for _ in range(iters):
        if fn(c) < fn(d):
            b = d
        else:
            a = c
        c, d = b - phi * (b - a), a + phi * (b - a)
        if b - a < tol:
            break
    return (a + b) / 2


class TestFitMl:
    def test_gaussian_intercept_only_is_mean(self):
        fit = fit_ml(np.empty((3, 0)), np.array([1.0, 2.0, 3.0]), GlmFamily.GAUSSIAN)
        np.testing.assert_allclose(fit.coefficients, [2.0])

    def test_two_group_logistic_closed_form(self):
        # group rates 1/2 at x=0 and 2/3 at x=1: intercept logit(1/2)=0,
        # slope logit(2/3)-logit(1/2)=ln 2
        x = np.array([0, 0, 0, 0, 1, 1, 1.0]).reshape(-1, 1)
        y = np.array([1, 1, 0, 0, 1, 1, 0.0])
        fit = fit_ml(x, y, GlmFamily.BINOMIAL)
        np.testing.assert_allclose(fit.coefficients, [0.0, math.log(2)], atol=1e-8)
        oracle = grid_mle_2param(x[:, 0], y)
        np.testing.assert_allclose(fit.coefficients, oracle, atol=1e-6)

    def test_perfect_separation(self):
        x = np.array([0, 0, 1, 1.0]).reshape(-1, 1)
        y = np.array([0, 0, 1, 1.0])
        with pytest.raises(Separation):
            fit_ml(x, y, GlmFamily.BINOMIAL)

    def test_separation_check_is_free_of_covariate_units(self):
        # a well-posed fit on x / 100 has slope 100 times that on x
        rng = np.random.default_rng(0)
        x = rng.standard_normal(400)
        y = (rng.uniform(size=400) < expit(x)).astype(float)
        base = fit_ml(x, y, GlmFamily.BINOMIAL).coefficients
        scaled = fit_ml(0.01 * x, y, GlmFamily.BINOMIAL).coefficients
        assert abs(scaled[1] - 97.9) < 0.05
        np.testing.assert_allclose(scaled, [base[0], 100.0 * base[1]], rtol=1e-8)
        shifted = fit_ml(x + 100.0, y, GlmFamily.BINOMIAL).coefficients
        np.testing.assert_allclose(shifted[1], base[1], rtol=1e-8)

    def test_leverage_point_runaway_is_separation(self):
        # quasi-separation with one far-out x: no probability is pinned, but the
        # linear predictor's mean and spread run past the clip
        x = np.array([0, 0, 0, 1, 1, 1, 100.0])
        y = np.array([0, 0, 1, 1, 1, 1, 1.0])
        with pytest.raises(Separation):
            fit_ml(x, y, GlmFamily.BINOMIAL)

    def test_single_class_outcome_is_a_valid_fit(self, rng):
        # an arm with no events: every probability sits at the clip, which is
        # the fit the data determine, not separation
        x = rng.standard_normal((60, 2))
        for value, sign in ((0.0, -1.0), (1.0, 1.0)):
            fit = fit_ml(x, np.full(60, value), GlmFamily.BINOMIAL)
            assert sign * fit.coefficients[0] > 20.0
            np.testing.assert_allclose(predict(fit, x), value, atol=1e-9)

    def test_duplicate_column_is_singular(self, rng):
        x = rng.standard_normal((20, 1))
        with pytest.raises(Singular):
            fit_ml(np.column_stack([x, x]), rng.standard_normal(20), GlmFamily.GAUSSIAN)

    def test_gaussian_shift_moves_intercept_only(self, rng):
        x = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        a = fit_ml(x, y, GlmFamily.GAUSSIAN)
        b = fit_ml(x, y + 7.25, GlmFamily.GAUSSIAN)
        assert abs(b.coefficients[0] - a.coefficients[0] - 7.25) < 1e-10
        np.testing.assert_allclose(a.coefficients[1:], b.coefficients[1:], atol=1e-10)

    def test_weighted_binomial_matches_replication(self, rng):
        # integer weights equal row replication at the ML solution
        x = rng.standard_normal((30, 2))
        y = (rng.uniform(size=30) < expit(x[:, 0])).astype(float)
        w = rng.integers(1, 4, size=30).astype(float)
        fit_w = fit_ml(x, y, GlmFamily.BINOMIAL, weights=w)
        rep = np.repeat(np.arange(30), w.astype(int))
        fit_r = fit_ml(x[rep], y[rep], GlmFamily.BINOMIAL)
        np.testing.assert_allclose(fit_w.coefficients, fit_r.coefficients, atol=1e-7)


@st.composite
def irls_problems(draw):
    """(design, y, family, weights, offset, has_intercept): n from 2 to 400
    rows, q from 0 to 5 columns, some rescaled by up to 1e+-3, a binomial
    outcome 0/1 from a logistic model, fractional, all 0 or all 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(list(GlmFamily)))
    n, q = draw(st.integers(2, 400)), draw(st.integers(0, 5))
    has_intercept = draw(st.booleans())
    z = rng.standard_normal((n, q))
    if has_intercept and q:
        z[:, 0] = 1.0
    eta = z @ rng.uniform(-1.5, 1.5, size=q)
    design = z * 10.0 ** rng.uniform(-3, 3, size=q) if draw(st.booleans()) else z
    offset = rng.uniform(-1.0, 1.0, size=n) if draw(st.booleans()) else None
    weights = draw(st.sampled_from([None, "positive", "some zero"]))
    if weights is not None:
        zero = rng.uniform(size=n) < (0.2 if weights == "some zero" else 0.0)
        weights = np.where(zero, 0.0, rng.uniform(0.2, 3.0, size=n))
    if family is GlmFamily.GAUSSIAN:
        y = eta + rng.standard_normal(n)
    else:
        kind = draw(st.sampled_from(["binary", "fractional", "zeros", "ones"]))
        y = {"binary": (rng.uniform(size=n) < expit(eta)).astype(float),
             "fractional": rng.uniform(size=n) * (rng.uniform(size=n) > 0.1),
             "zeros": np.zeros(n), "ones": np.ones(n)}[kind]
    return design, y, family, weights, offset, has_intercept


@settings(max_examples=300)
@given(irls_problems())
def test_fit_ml_design_gets_the_reference_bits(problem):
    # the deviance's outcome terms, taken once per fit, and the unit gaussian
    # variance left out change no coefficient, iteration count or deviance
    def lean(*args):
        fit = fit_ml_design(*args)
        return fit.coefficients, fit.iterations, fit.deviance

    def outcome(fit):  # (coefficients, iterations, deviance), or the class raised
        try:
            return fit(*problem)
        except Exception as exc:  # noqa: BLE001 - compared below
            return type(exc)

    got, want = outcome(lean), outcome(irls_reference)
    if isinstance(got, type) or isinstance(want, type):
        assert got is want
    else:
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), (got, want)


def outcome_alone(family, problem):
    """`fit_ml_design` on one problem: (coefficients, iterations, deviance,
    has_intercept), or the class it raises."""
    try:
        fit = fit_ml_design(family=family, **problem)
    except Exception as exc:  # noqa: BLE001 - compared by class
        return type(exc)
    return fit.coefficients, fit.iterations, fit.deviance, fit.has_intercept


def same_outcome(stacked, alone) -> bool:
    if isinstance(stacked, Exception) or isinstance(alone, type):
        return type(stacked) is alone
    got = stacked.coefficients, stacked.iterations, stacked.deviance, stacked.has_intercept
    return all(np.array_equal(a, b) for a, b in zip(got, alone))


@st.composite
def irls_stacks(draw):
    """(problems, family): 1 to 6 `fit_ml_design` problems of one family, of
    one or two column counts and row counts that repeat (so a stack holds
    several fits), some Fortran-ordered, weighted or offset, and some built
    to separate (binomial), to be singular or to overflow float64."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(list(GlmFamily)))
    qs = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    problems = []
    for _ in range(draw(st.integers(1, 6))):
        q, n = qs[rng.integers(len(qs))], int(rng.choice([3, 17, 17, 60, 60, 150]))
        kind = draw(st.sampled_from(["plain", "plain", "separated", "singular", "overflow"]))
        has_intercept = draw(st.booleans())
        z = rng.standard_normal((n, q))
        if has_intercept:
            z[:, 0] = 1.0
        eta = z @ rng.uniform(-1.5, 1.5, size=q)
        design = z * 10.0 ** rng.uniform(-2, 2, size=q)
        if kind == "singular" and q > 1:
            design[:, -1] = 2.0 * design[:, 0]
        elif kind == "overflow":
            design[:, -1] *= 1e160
        if draw(st.booleans()):
            design = np.asfortranarray(design)
        if family is GlmFamily.GAUSSIAN:
            y = eta + rng.standard_normal(n)
        elif kind == "separated":
            y = (z[:, -1] > np.median(z[:, -1])).astype(float)
        else:
            y = (rng.uniform(size=n) < expit(eta)).astype(float)
        problem = dict(design=design, y=y, has_intercept=has_intercept)
        if draw(st.booleans()):
            problem["weights"] = rng.uniform(0.2, 3.0, size=n)
        if draw(st.booleans()):
            problem["offset"] = rng.uniform(-1.0, 1.0, size=n)
        problems.append((problem, kind))
    return problems, family


@settings(max_examples=150)
@given(irls_stacks())
def test_a_stacked_fit_gets_the_bits_it_gets_alone(stack):
    # one stack per shape and layout, of fits that end at different steps
    # or with an error: each fit keeps its bits, and those of the reference
    # IRLS unless it overflows (where the reference walks its whole budget)
    problems, family = stack
    stacked = _fit_stack([problem for problem, _ in problems], family)
    for (problem, kind), fit in zip(problems, stacked):
        alone = outcome_alone(family, problem)
        assert same_outcome(fit, alone)
        if kind != "overflow":
            try:
                want = irls_reference(family=family, **problem)
            except Exception as exc:  # noqa: BLE001 - compared by class
                want = type(exc)
            if not isinstance(want, type):
                want = (*want, problem["has_intercept"])
            assert same_outcome(fit, want)


def test_a_stack_reports_each_fit_its_own_error():
    # a plain, a separated, a singular and an overflowing fit in one stack of
    # 40-row designs: each ends as it ends alone, the others unharmed
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 2))
    y = (rng.uniform(size=40) < expit(x[:, 0])).astype(float)
    sets = [(x, y), (x, (x[:, 1] > 0).astype(float)), (np.column_stack([x, x[:, 0]]), y),
            (np.column_stack([x[:, 0] * 1e150, (x[:, 0] * 1e150) ** 2]), y)]
    outcomes = fit_mls(sets, GlmFamily.BINOMIAL)
    assert [type(o) for o in outcomes] == [glm.GlmFit, Separation, Singular, NonConvergence]
    for (xs, ys), stacked in zip(sets, outcomes):
        problem = dict(design=np.column_stack([np.ones(40), xs]), y=ys, has_intercept=True)
        assert same_outcome(stacked, outcome_alone(GlmFamily.BINOMIAL, problem))


@pytest.mark.parametrize("family", list(GlmFamily))
def test_a_fit_that_overflows_stops_at_its_first_step_without_a_warning(family, monkeypatch):
    # a 1e150 column and its square: X'WX overflows float64, and the fit ends
    # as NonConvergence at once, where it used to walk its whole budget
    rng = np.random.default_rng(3)
    x = rng.standard_normal(40) * 1e150
    y = (rng.uniform(size=40) < 0.5).astype(float)
    steps, score = [], glm._weighted_score
    monkeypatch.setattr(glm, "_weighted_score", lambda *args: steps.append(1) or score(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence):
            fit_ml(np.column_stack([x, x**2]), y, family)
    assert len(steps) == 1


@st.composite
def linear_systems(draw):
    """(a, b): a stack of 1 to 6 symmetric q x q matrices, q from 1 to 6,
    each positive definite, rank-deficient (a zero or a copied row and
    column, or a Gram matrix of fewer rows than columns), indefinite, or
    positive definite with a NaN or an infinite pair of cells; and a stack
    of right-hand sides of 1 or k columns."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, q = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = np.empty((m, q, q))
    for k in range(m):
        kind = draw(st.sampled_from(["pd", "pd", "zero", "copy", "short", "indefinite",
                                     "nan", "inf", "-inf"]))
        rows = rng.standard_normal((rng.integers(1, q) if kind == "short" and q > 1 else q + 2, q))
        a[k] = rows.T @ rows * 10.0 ** rng.uniform(-3, 3)
        i, j = rng.integers(q), rng.integers(q)
        if kind == "zero":
            a[k, i], a[k, :, i] = 0.0, 0.0
        elif kind == "copy" and q > 1:
            j = (i + 1 + j % (q - 1)) % q
            a[k, j], a[k, :, j] = a[k, i], a[k, :, i]
        elif kind == "indefinite":
            a[k] -= 2.0 * np.trace(a[k]) * np.eye(q)[i]
            a[k] = (a[k] + a[k].T) / 2.0
        elif kind in ("nan", "inf", "-inf"):
            a[k, i, j] = a[k, j, i] = float(kind)
    columns = draw(st.sampled_from([1, int(rng.integers(2, 5))]))
    return a, rng.standard_normal((m, q, columns))


def raises(call, *args) -> bool:
    try:
        call(*args)
    except np.linalg.LinAlgError:
        return True
    return False


@settings(max_examples=300)
@given(linear_systems())
def test_the_stack_primitives_get_each_members_bits_and_refusals(system):
    # each member solved as np.linalg.solve solves it alone, with one or k
    # right-hand sides (one also as a vector), and exactly the members
    # np.linalg.solve and np.linalg.cholesky refuse reported, with no warning
    a, b = system
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, refused = glm._solve(a, b)
        assert glm._cholesky_refused(a) == [k for k in range(len(a))
                                            if raises(np.linalg.cholesky, a[k])]
    assert refused == [k for k in range(len(a)) if raises(np.linalg.solve, a[k], b[k])]
    for k in range(len(a)):
        if k in refused:
            assert np.isnan(x[k]).all()
        else:
            assert np.array_equal(x[k], np.linalg.solve(a[k], b[k]), equal_nan=True)
            if b.shape[2] == 1:
                assert np.array_equal(x[k, :, 0], np.linalg.solve(a[k], b[k, :, 0]), equal_nan=True)


class TestPredict:
    def test_gaussian_line(self):
        fit = fit_ml(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 3.0, 5.0]), GlmFamily.GAUSSIAN)
        np.testing.assert_allclose(predict(fit, np.array([[3.0]])), [7.0], atol=1e-9)

    def test_logit_zero_coefficients_give_half(self):
        # symmetric data: intercept 0, slope 0
        x = np.array([[-1.0], [1.0], [-1.0], [1.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        fit = fit_ml(x, y, GlmFamily.BINOMIAL)
        np.testing.assert_allclose(fit.coefficients, [0.0, 0.0], atol=1e-8)
        np.testing.assert_allclose(predict(fit, np.array([[5.0]])), [0.5], atol=1e-8)

    def test_training_rows_reproduce_fitted_values(self, rng):
        x = rng.standard_normal((25, 2))
        y = rng.standard_normal(25)
        fit = fit_ml(x, y, GlmFamily.GAUSSIAN)
        mu = predict(fit, x)
        # residuals orthogonal to design: the fit is the projection
        assert abs(np.sum(y - mu)) < 1e-8 * 25

    def test_dimension_mismatch(self, rng):
        fit = fit_ml(rng.standard_normal((10, 2)), rng.standard_normal(10), GlmFamily.GAUSSIAN)
        for x, message in ((rng.standard_normal((5, 3)), "expects 2"), (None, r"\(n, 0\) matrix")):
            with pytest.raises(DimensionMismatch, match=message):
                predict(fit, x)


class TestFitLeastSquares:
    def test_gaussian_equals_ml(self, rng):
        x = rng.standard_normal((30, 3))
        y = rng.standard_normal(30)
        a = fit_ml(x, y, GlmFamily.GAUSSIAN)
        b = fit_least_squares(x, y, GlmFamily.GAUSSIAN)
        np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-10)

    def test_logit_intercept_only_is_mean(self):
        # the MSE-minimizing constant probability is the sample mean
        fit = fit_least_squares(np.empty((3, 0)), np.array([0.0, 1.0, 1.0]), GlmFamily.BINOMIAL)
        expected = golden_section(
            lambda b: float(np.sum((np.array([0.0, 1, 1]) - expit(np.array([b]))) ** 2)),
            -8.0, 8.0,
        )
        assert abs(expected - float(logit(np.array([2 / 3]))[0])) < 1e-6
        np.testing.assert_allclose(fit.coefficients, [logit(np.array([2 / 3]))[0]], atol=1e-8)

    def test_least_squares_beats_ml_on_mse(self, rng):
        # quadratic truth, linear logistic working model
        x = rng.standard_normal((200, 1))
        p = expit(1.2 * x[:, 0] ** 2 - 1.0)
        y = (rng.uniform(size=200) < p).astype(float)
        ls = fit_least_squares(x, y, GlmFamily.BINOMIAL)
        ml = fit_ml(x, y, GlmFamily.BINOMIAL)
        mse_ls = float(np.mean((y - predict(ls, x)) ** 2))
        mse_ml = float(np.mean((y - predict(ml, x)) ** 2))
        assert mse_ls <= mse_ml + 1e-12


class TestScoreResidual:
    def test_ml_scores_vanish_both_families(self, rng):
        for family in GlmFamily:
            x = rng.standard_normal((60, 3))
            if family is GlmFamily.BINOMIAL:
                y = (rng.uniform(size=60) < expit(x[:, 0])).astype(float)
            else:
                y = x[:, 0] + rng.standard_normal(60)
            w = rng.uniform(0.5, 2.0, size=60)
            fit = fit_ml(x, y, family, weights=w)
            s = score_residual(fit, x, y, w)
            assert np.max(np.abs(s)) <= 1e-8 * 60

    def test_least_squares_logit_violates_score(self):
        # App-style 3-point check: LS fit leaves a non-zero intercept score
        x = np.array([[-2.0], [0.0], [0.4], [1.0], [2.0], [2.5]])
        y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        fit = fit_least_squares(x, y, GlmFamily.BINOMIAL)
        s = score_residual(fit, x, y)
        assert abs(s[0]) > 1e-4

    def test_zero_weight_rows_contribute_nothing(self, rng):
        x = rng.standard_normal((20, 1))
        y = x[:, 0] + rng.standard_normal(20)
        w = np.ones(20)
        w[:5] = 0.0
        fit = fit_ml(x, y, GlmFamily.GAUSSIAN, weights=w)
        y2 = y.copy()
        y2[:5] += 100.0  # zero-weight rows may change arbitrarily
        s = score_residual(fit, x, y2, w)
        assert np.max(np.abs(s)) <= 1e-8 * 20


class TestClampProbabilities:
    def test_counts_and_bounds(self):
        p, count = clamp_probabilities(np.array([0.001, 0.5, 0.999]))
        np.testing.assert_allclose(p, [0.01, 0.5, 0.99])
        assert count == 2


def masked_expit(eta):
    """The inverse logit by boolean-mask gathers and scatters: 1/(1 + exp(-eta))
    where eta >= 0, exp(eta)/(1 + exp(eta)) elsewhere."""
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestExpit:
    def test_same_bits_as_the_masked_formula(self):
        edges = np.array([0.0, np.inf, 709.8, 745.2, 1e-300, 5e-324])
        draws = 40.0 * np.random.default_rng(11).standard_normal(10**6)
        eta = np.concatenate([edges, -edges, draws])
        assert np.array_equal(expit(eta).view(np.int64), masked_expit(eta).view(np.int64))

    def test_nan_stays_nan(self):
        out = expit(np.array([np.nan, -np.nan, 1.0]))
        assert np.isnan(out[:2]).all() and out[2] == masked_expit(np.array([1.0]))[0]
