import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import simulate_trial
from trialcraft.data import FoldPlan, make_folds
from trialcraft.errors import DegenerateFold, DegeneratePi
from trialcraft.variance import aipw, se_from_values


def two_sample_se(y, z):
    y1, y0 = y[z == 1], y[z == 0]
    return math.sqrt(y1.var(ddof=1) / y1.size + y0.var(ddof=1) / y0.size)


def aipw_se(*args, **kwargs):
    """Standard error of theta and the influence values v1 - v0."""
    _, _, v1, v0 = aipw(*args, **kwargs)
    return se_from_values(v1 - v0), v1 - v0


class TestSimple:
    def test_arm_mean_predictions_match_two_sample_formula(self, rng):
        d = simulate_trial(rng, n=200)
        pred1 = np.full(d.n, d.y[d.z == 1].mean())
        pred0 = np.full(d.n, d.y[d.z == 0].mean())
        se, _ = aipw_se(d.y, d.z, pred1, pred0, d.n_treated / d.n)
        classic = two_sample_se(d.y, d.z)
        assert abs(se - classic) / classic < 0.02

    def test_constant_outcome_gives_zero(self):
        y = np.full(10, 3.0)
        z = np.r_[np.ones(5), np.zeros(5)]
        se, _ = aipw_se(y, z, np.full(10, 3.0), np.full(10, 3.0), 0.5)
        assert se == 0.0

    def test_perfect_predictions_give_zero(self, rng):
        d = simulate_trial(rng, n=50)
        se, _ = aipw_se(d.y, d.z, d.y, d.y, d.n_treated / d.n)
        assert se < 1e-12

    def test_degenerate_pi(self, rng):
        d = simulate_trial(rng, n=20)
        with pytest.raises(DegeneratePi):
            aipw(d.y, d.z, d.y, d.y, 1.0)


class TestCrossfit:
    def test_known_pi_reduces_to_simple(self, rng):
        d = simulate_trial(rng, n=60)
        folds = make_folds(d.n, 3, d.z, seed=2, stratified=True)
        pred1 = rng.standard_normal(d.n)
        pred0 = rng.standard_normal(d.n)
        se_cf, iv_cf = aipw_se(d.y, d.z, pred1, pred0, 0.5, folds)
        se_s, iv_s = aipw_se(d.y, d.z, pred1, pred0, 0.5)
        assert se_cf == se_s
        np.testing.assert_array_equal(iv_cf, iv_s)

    def test_corrections_mean_zero_per_fold(self, rng):
        d = simulate_trial(rng, n=90)
        folds = make_folds(d.n, 3, d.z, seed=4, stratified=True)
        pred1 = rng.standard_normal(d.n)
        pred0 = rng.standard_normal(d.n)
        _, _, v1, v0 = aipw(d.y, d.z, pred1, pred0, folds=folds)
        for k in range(1, 4):
            idx = folds.fold_indices(k)
            pi_k = d.z[idx].mean()
            base1 = d.z[idx] / pi_k * (d.y[idx] - pred1[idx]) + pred1[idx]
            corr = v1[idx] - base1
            assert abs(corr.mean()) < 1e-12

    def test_single_arm_fold_rejected(self):
        y = np.arange(8.0)
        z = np.r_[np.ones(4), np.zeros(4)]
        assignments = np.r_[np.ones(4), np.full(4, 2.0)]  # fold 1 all treated
        folds = FoldPlan(assignments.astype(int), 2, 0)
        with pytest.raises(DegenerateFold):
            aipw(y, z, y, y, folds=folds)


class TestStrongNull:
    def test_pooled_mean_prediction_close_to_z_test(self, rng):
        d = simulate_trial(rng, n=200, effect=0.0)
        pred = np.full(d.n, d.y.mean())
        se, _ = aipw_se(d.y, d.z, pred, pred)
        classic = two_sample_se(d.y, d.z)
        assert abs(se - classic) / classic < 0.02

    def test_perfect_predictions_give_zero(self, rng):
        d = simulate_trial(rng, n=40)
        se, _ = aipw_se(d.y, d.z, d.y, d.y)
        assert se < 1e-12

    def test_correction_terms_have_mean_zero_with_estimated_pi(self, rng):
        d = simulate_trial(rng, n=64)
        pred = rng.standard_normal(d.n)
        pi_hat = d.n_treated / d.n
        _, _, v1, v0 = aipw(d.y, d.z, pred, pred)
        base1 = d.z / pi_hat * (d.y - pred) + pred
        assert abs((v1 - base1).mean()) < 1e-12


class TestParametricPs:
    def test_intercept_only_reduces_to_crossfit(self, rng):
        # pinned reduction: with a constant propensity the score correction
        # collapses exactly to the (Z - pi_k) fold correction
        d = simulate_trial(rng, n=80)
        folds = make_folds(d.n, 4, d.z, seed=3, stratified=False)
        pred1 = rng.standard_normal(d.n)
        pred0 = rng.standard_normal(d.n)
        p_hat = np.empty(d.n)
        for k in range(1, 5):
            idx = folds.fold_indices(k)
            p_hat[idx] = d.z[idx].mean()
        ps_design = np.ones((d.n, 1))
        se_p, iv_p = aipw_se(d.y, d.z, pred1, pred0, p_hat, folds, ps_design)
        se_c, iv_c = aipw_se(d.y, d.z, pred1, pred0, folds=folds)
        assert abs(se_p - se_c) <= 1e-8
        np.testing.assert_allclose(iv_p, iv_c, atol=1e-8)


class TestScaleEquivariance:
    def test_all_variants_scale_with_outcome(self, rng):
        d = simulate_trial(rng, n=100)
        folds = make_folds(d.n, 4, d.z, seed=9, stratified=True)
        pred1 = rng.standard_normal(d.n)
        pred0 = rng.standard_normal(d.n)
        pi_hat = d.n_treated / d.n
        c = -3.7

        se_a, _ = aipw_se(d.y, d.z, pred1, pred0, pi_hat)
        se_b, _ = aipw_se(c * d.y, d.z, c * pred1, c * pred0, pi_hat)
        assert abs(se_b - abs(c) * se_a) < 1e-10

        se_a, _ = aipw_se(d.y, d.z, pred1, pred0, folds=folds)
        se_b, _ = aipw_se(c * d.y, d.z, c * pred1, c * pred0, folds=folds)
        assert abs(se_b - abs(c) * se_a) < 1e-10

        se_a, _ = aipw_se(d.y, d.z, pred1, pred1)
        se_b, _ = aipw_se(c * d.y, d.z, c * pred1, c * pred1)
        assert abs(se_b - abs(c) * se_a) < 1e-10

    def test_positive_se_for_nonconstant_values(self, rng):
        values = rng.standard_normal(30)
        assert se_from_values(values) > 0


# --- properties of aipw on every branch ------------------------------------

BRANCHES = ("known", "estimated_per_group", "pointwise", "ps_design")
VALUES = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
PROBABILITIES = st.floats(0.05, 0.95)


@st.composite
def aipw_inputs(draw):
    """(y, z, pred1, pred0, keyword arguments of aipw) for one branch, with
    both arms present in every group."""
    branch = draw(st.sampled_from(BRANCHES))
    k = draw(st.sampled_from((None, 2, 3)))
    groups = 1 if k is None else k
    n = draw(st.integers(2 * groups, 30))
    y, pred1, pred0 = (draw(arrays(float, n, elements=VALUES)) for _ in range(3))
    z = draw(arrays(float, n, elements=st.sampled_from((0.0, 1.0))))
    labels = np.arange(n) % groups + 1
    for g in range(1, groups + 1):
        first, second = np.flatnonzero(labels == g)[:2]
        z[first], z[second] = 1.0, 0.0
    kwargs = {"folds": None if k is None else FoldPlan(labels, k, 0)}
    if branch == "known":
        kwargs["pi"] = draw(PROBABILITIES)
    elif branch in ("pointwise", "ps_design"):
        kwargs["pi"] = draw(arrays(float, n, elements=PROBABILITIES))
    if branch == "ps_design":
        # a propensity column that varies within every group keeps A invertible
        kwargs["ps_design"] = np.column_stack([np.ones(n), np.linspace(-1.0, 1.0, n)])
    return y, z, pred1, pred0, kwargs


def theta_and_se(y, z, pred1, pred0, kwargs):
    """Arm means, theta, SE, and the magnitude of the values for tolerances."""
    mu1, mu0, v1, v0 = aipw(y, z, pred1, pred0, **kwargs)
    size = max(1.0, float(np.abs(v1).max()), float(np.abs(v0).max()))
    return mu1, mu0, mu1.mean() - mu0.mean(), se_from_values(v1 - v0), size


class TestAipwProperties:
    @given(aipw_inputs(), st.floats(0.01, 100) | st.floats(-100, -0.01))
    def test_scale(self, inputs, c):
        y, z, pred1, pred0, kwargs = inputs
        mu1, mu0, _, se, size = theta_and_se(y, z, pred1, pred0, kwargs)
        mu1_c, mu0_c, _, se_c, _ = theta_and_se(c * y, z, c * pred1, c * pred0, kwargs)
        tol = 1e-9 * abs(c) * size
        np.testing.assert_allclose(mu1_c, c * mu1, rtol=1e-9, atol=tol)
        np.testing.assert_allclose(mu0_c, c * mu0, rtol=1e-9, atol=tol)
        assert math.isclose(se_c, abs(c) * se, rel_tol=1e-9, abs_tol=tol)

    @given(aipw_inputs(), st.floats(-100, 100))
    def test_shift(self, inputs, s):
        y, z, pred1, pred0, kwargs = inputs
        mu1, mu0, _, se, size = theta_and_se(y, z, pred1, pred0, kwargs)
        mu1_s, mu0_s, _, se_s, _ = theta_and_se(y + s, z, pred1 + s, pred0 + s, kwargs)
        tol = 1e-9 * (size + abs(s))
        np.testing.assert_allclose(mu1_s, mu1 + s, rtol=1e-9, atol=tol)
        np.testing.assert_allclose(mu0_s, mu0 + s, rtol=1e-9, atol=tol)
        assert math.isclose(se_s, se, rel_tol=1e-9, abs_tol=tol)

    @given(aipw_inputs())
    def test_arm_relabelling(self, inputs):
        y, z, pred1, pred0, kwargs = inputs
        _, _, theta, se, size = theta_and_se(y, z, pred1, pred0, kwargs)
        swapped = dict(kwargs)
        if kwargs.get("pi") is not None:
            swapped["pi"] = 1.0 - kwargs["pi"]
        _, _, theta_r, se_r, _ = theta_and_se(y, 1.0 - z, pred0, pred1, swapped)
        tol = 1e-9 * size
        assert math.isclose(theta_r, -theta, rel_tol=1e-9, abs_tol=tol)
        assert math.isclose(se_r, se, rel_tol=1e-9, abs_tol=tol)
