"""Pinned lasso selections and exact-path checks.

`lasso_selections.json` holds, for about 30 cross-validated Gaussian lasso
problems (p in {1, 3, 8, 44}, n in {40, 200, 1500}, weighted and
unweighted, both penalty rules, 3 and 5 folds), the selected columns and
the chosen path index. The problems are in general position: no column is
an exact copy or combination of others. Entries whose label starts with
"binomial" hold 15 logistic lasso problems (p in {1, 3, 8, 20}, n in
{60, 200, 600}), one of them with a column that is constant inside a
training fold, and one with a fractional outcome in (0, 1); and 16 of the
broad sample of `compare_lasso_selections.py` (every 10th seed). A change
that is meant to alter selections re-records the file with

    PYTHONPATH=src python tests/test_lasso_selections.py
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compare_lasso_selections import problem as broad_problem
from conftest import kkt_violation, spy_binomial_blocks
from trialcraft import glm, selection
from trialcraft.data import make_folds
from trialcraft.errors import NonConvergence, TrialcraftError
from trialcraft.glm import GlmFamily, expit, fit_ml
from trialcraft.selection import (
    _column_names, _refit_columns, lasso_cv, lasso_cvs, lasso_lambda_max, lasso_path,
)

PINNED = Path(__file__).with_name("lasso_selections.json")


def selection_cases():
    """(label, p, n, weighted, lambda_rule, k_cv, seed) for every pinned problem."""
    variants = [(False, "1se", 5), (True, "min", 3), (True, "1se", 3), (False, "min", 5)]
    cases = []
    index = 0
    for p in (1, 3, 8, 44):
        for n in (40, 200, 1500):
            if p > n:
                continue
            for _ in range(3 if p < 44 else 2):
                weighted, rule, k_cv = variants[index % len(variants)]
                label = f"p={p} n={n} weighted={weighted} rule={rule} k={k_cv} seed={index}"
                cases.append((label, p, n, weighted, rule, k_cv, index))
                index += 1
    return cases


def selection_problem(p, n, weighted, seed):
    """Correlated Gaussian covariates, a few decaying signals, unit noise."""
    rng = np.random.default_rng(4_000 + seed)
    shared = rng.standard_normal((n, 1))
    x = rng.standard_normal((n, p)) + 0.4 * shared
    beta = np.zeros(p)
    beta[: min(p, 5)] = 0.6 / np.arange(1, min(p, 5) + 1)
    y = x @ beta + rng.standard_normal(n)
    weights = rng.uniform(0.5, 2.0, size=n) if weighted else None
    return x, y, weights


def binomial_cases():
    """(label, x, y, weights, lambda_rule, k_cv, seed) for every pinned logistic problem."""
    variants = [(False, "1se", 5), (True, "min", 3), (True, "1se", 3), (False, "min", 5)]
    sizes = [(p, n) for p in (1, 3, 8, 20) for n in (60, 200, 600)] + [(3, 200), (8, 600)]
    cases = []
    for index, (p, n) in enumerate(sizes):
        weighted, rule, k_cv = variants[index % len(variants)]
        label = f"binomial p={p} n={n} weighted={weighted} rule={rule} k={k_cv} seed={index}"
        cases.append((label, *binomial_problem(p, n, weighted, index, k_cv), rule, k_cv, index))
    cases.append(("binomial constant-in-fold p=4 n=200 k=5 seed=99",
                  *binomial_problem(4, 200, True, 99), "min", 5, 99))
    cases.append(("binomial fractional p=3 n=200 k=5 seed=98",
                  *binomial_problem(3, 200, False, 98), "1se", 5, 98))
    for seed in range(90_000, 90_160, 10):
        label, x, y, weights, k_cv, rule = broad_problem(seed)
        cases.append((f"binomial broad {label}", x, y, weights, rule, k_cv, seed))
    return cases


def binomial_problem(p, n, weighted, seed, k_cv=5):
    """Correlated Gaussian covariates and a logistic outcome with decaying
    signals; seed 99 turns the last column into a rare indicator whose ones
    all fall in the first test fold, so it is constant in that fold's
    training rows, and seed 98 gives a fractional outcome in (0, 1), the
    logistic mean of a linear predictor with standard normal noise."""
    rng = np.random.default_rng(7_000 + seed)
    shared = rng.standard_normal((n, 1))
    x = rng.standard_normal((n, p)) + 0.4 * shared
    beta = np.zeros(p)
    beta[: min(p, 5)] = 1.0 / np.arange(1, min(p, 5) + 1)
    eta = -0.3 + x @ beta
    if seed == 98:
        y = expit(eta + rng.standard_normal(n))
    else:
        y = (rng.uniform(size=n) < expit(eta)).astype(float)
    weights = rng.uniform(0.5, 2.0, size=n) if weighted else None
    if seed == 99:
        x[:, -1] = 0.0
        x[make_folds(n, k_cv, z=None, seed=seed, stratified=False).fold_indices(1)[:6], -1] = 1.0
    return x, y, weights


def pinned_selection(x, y, family, k_cv, seed, weights, rule):
    res = lasso_cv(x, y, family, k_cv=k_cv, seed=seed, weights=weights, lambda_rule=rule)
    return {"selected_columns": list(res.selected_columns),
            "chosen_index": res.path_diagnostics["chosen_index"]}


def record_selections() -> dict:
    out = {}
    for label, p, n, weighted, rule, k_cv, seed in selection_cases():
        x, y, weights = selection_problem(p, n, weighted, seed)
        out[label] = pinned_selection(x, y, GlmFamily.GAUSSIAN, k_cv, seed, weights, rule)
    return out


def record_binomial_selections() -> dict:
    out = {}
    for label, x, y, weights, rule, k_cv, seed in binomial_cases():
        out[label] = pinned_selection(x, y, GlmFamily.BINOMIAL, k_cv, seed, weights, rule)
    return out


def pinned(binomial: bool) -> dict:
    entries = json.loads(PINNED.read_text())
    return {label: v for label, v in entries.items() if label.startswith("binomial") == binomial}


def check_pinned(actual, expected):
    assert sorted(actual) == sorted(expected), "pinned case list changed"
    bad = [label for label in expected if actual[label] != expected[label]]
    assert not bad, f"{len(bad)} of {len(expected)} selections changed: {bad[:5]}"


def test_selections_match_pinned():
    check_pinned(record_selections(), pinned(binomial=False))


def test_binomial_selections_match_pinned():
    check_pinned(record_binomial_selections(), pinned(binomial=True))


def path_problems():
    """(label, x, y, weights) over small and wide designs, p > n, copies and a tie."""
    problems = []
    for i in range(24):
        rng = np.random.default_rng(50_000 + i)
        n = int(rng.integers(20, 300))
        p = int(rng.integers(1, 45))
        x = rng.standard_normal((n, p))
        if i % 4 == 3 and p > 1:
            x[:, p - 1] = x[:, 0]
        y = x[:, : min(p, 3)].sum(axis=1) * 0.5 + rng.standard_normal(n)
        weights = rng.uniform(0.5, 2.0, size=n) if i % 2 else None
        problems.append((f"n={n} p={p} #{i}", x, y, weights))
    rng = np.random.default_rng(50_100)
    x = rng.standard_normal((30, 44))
    problems.append(("p>n", x, x[:, :3].sum(axis=1) + rng.standard_normal(30), None))
    x = np.column_stack([x[:, :10], x[:, 2], x[:, 5], 2.0 * x[:, 7]])
    problems.append(("copies", x, x[:, 2] - x[:, 7] + rng.standard_normal(30), None))
    # both columns reach lam_max together and must enter together
    x = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    problems.append(("tie", x, np.array([2.0, 2.0, 2.0, 5.0]), None))
    return problems


PATH_PROBLEMS = path_problems()


@pytest.mark.parametrize("label, x, y, weights", PATH_PROBLEMS,
                         ids=[problem[0] for problem in PATH_PROBLEMS])
def test_path_meets_kkt_at_every_grid_point(label, x, y, weights):
    lam_max = lasso_lambda_max(x, y, GlmFamily.GAUSSIAN, weights)
    lambdas = np.geomspace(lam_max, lam_max * 1e-4, 100)
    coefs, _ = lasso_path(x, y, GlmFamily.GAUSSIAN, lambdas, weights)
    worst = max(kkt_violation(x, y, GlmFamily.GAUSSIAN, lam, coef, weights)
                for lam, coef in zip(lambdas, coefs))
    assert worst <= 1e-9


def kernel_problems():
    """(label, x, y, weights): general-position problems with p from 1 to 60,
    and wide ones with n < 2p, strongly correlated columns and signals of
    both signs, whose paths drop active coefficients ("leaving")."""
    problems = []
    for p in (1, 2, 3, 5, 8, 12, 16, 24, 32, 44, 60):
        for weighted in (False, True):
            rng = np.random.default_rng(70_000 + 2 * p + weighted)
            n = int(rng.integers(max(40, 5 * p), max(300, 6 * p)))
            x = rng.standard_normal((n, p)) + 0.4 * rng.standard_normal((n, 1))
            y = x[:, : min(p, 3)].sum(axis=1) * 0.5 + rng.standard_normal(n)
            weights = rng.uniform(0.5, 2.0, size=n) if weighted else None
            problems.append((f"p={p} n={n} weighted={weighted}", x, y, weights))
    for p in (24, 32, 44, 60):
        for weighted in (False, True):
            rng = np.random.default_rng(74_000 + 2 * p + weighted)
            n = int(rng.integers(p + 5, 2 * p))
            x = rng.standard_normal((n, p)) + rng.standard_normal((n, 1))
            y = x[:, :8] @ np.array([1.0, -1.0, 0.8, -0.8, 0.6, -0.6, 0.4, -0.4]) + rng.standard_normal(n)
            weights = rng.uniform(0.5, 2.0, size=n) if weighted else None
            problems.append((f"leaving p={p} n={n} weighted={weighted}", x, y, weights))
    return problems


KERNEL_PROBLEMS = kernel_problems()


def gaussian_path(x, y, weights):
    """The penalty grid of lasso_cv and lasso_path's coefficients on it."""
    lam_max = lasso_lambda_max(x, y, GlmFamily.GAUSSIAN, weights)
    lambdas = np.geomspace(lam_max, lam_max * 1e-4, 100)
    return lambdas, lasso_path(x, y, GlmFamily.GAUSSIAN, lambdas, weights)[0]


def worst_kkt(x, y, weights, lambdas, coefs):
    return max(kkt_violation(x, y, GlmFamily.GAUSSIAN, lam, coef, weights)
               for lam, coef in zip(lambdas, coefs))


def spy_gaussian_paths(monkeypatch):
    """Record (grams, cs, lambdas, B) of every stack of Gaussian paths solved;
    in lasso_cv's one stack the full-data fit comes last."""
    calls, solve = [], selection._gaussian_paths

    def spy(grams, cs, lambdas):
        calls.append((grams, cs, lambdas, solve(grams, cs, lambdas)))
        return calls[-1][3]

    monkeypatch.setattr(selection, "_gaussian_paths", spy)
    return calls


def assert_each_fit_alone_is_bit_equal(grams, cs, lambdas, B):
    """Each fit of the stack B, solved alone on its own grid (a row of the
    (m, L) `lambdas`)."""
    for k in range(B.shape[0]):
        alone = selection._gaussian_paths(grams[k:k + 1], cs[k:k + 1], lambdas[k:k + 1])[0]
        assert np.array_equal(alone, B[k]), k


@pytest.mark.parametrize("label, x, y, weights", KERNEL_PROBLEMS,
                         ids=[problem[0] for problem in KERNEL_PROBLEMS])
def test_each_fit_of_a_cv_stack_is_its_path_alone_and_meets_kkt(label, x, y, weights, monkeypatch):
    calls = spy_gaussian_paths(monkeypatch)
    lasso_cv(x, y, GlmFamily.GAUSSIAN, k_cv=5, seed=3, weights=weights)
    monkeypatch.undo()
    (grams, cs, lambdas, B), = calls
    assert B.shape == (6, 100, x.shape[1])
    assert_each_fit_alone_is_bit_equal(grams, cs, lambdas, B)
    assert worst_kkt(x, y, weights, *gaussian_path(x, y, weights)) <= 1e-9


def gram_kkt(gram, c, lambdas, B):
    """Largest KKT violation of the paths B (L, p) of the Gaussian lasso
    problem (1/2) b'G b - c'b + lam |b|_1 over the grid."""
    g = c - B @ gram.T
    return np.where(B != 0.0, np.abs(g - lambdas[:, None] * np.sign(B)),
                    np.abs(g) - lambdas[:, None]).max()


@given(m=st.integers(1, 7), p=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       zero=st.booleans(), copy=st.booleans(), per_fit=st.booleans())
@settings(max_examples=150)
def test_each_fit_of_any_stack_is_its_path_alone_and_meets_kkt(m, p, seed, zero, copy, per_fit):
    # fits of unlike data, some with a zero column (G_jj = 0) or an exact copy,
    # on one grid or each on its own, from its own lam_max (as in lasso_cvs)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(p // 2 + 3, 4 * p + 20))
    grams, cs = np.empty((m, p, p)), np.empty((m, p))
    for k in range(m):
        x = rng.standard_normal((n, p)) + 0.5 * rng.standard_normal((n, 1))
        if zero:
            x[:, rng.integers(p)] = 0.0
        if copy and p > 1:
            x[:, -1] = x[:, 0]
        y = x[:, :3].sum(axis=1) * 0.5 + rng.standard_normal(n)
        sds = x.std(axis=0)
        xs = (x - x.mean(axis=0)) / np.where(sds > 0, sds, 1.0)
        grams[k], cs[k] = xs.T @ xs / n, xs.T @ (y - y.mean()) / n
    if per_fit:
        tops = np.abs(cs).max(axis=1)
        lambdas = np.array([np.geomspace(top or 1.0, (top or 1.0) * 1e-4, 100) for top in tops])
    else:
        lambdas = np.broadcast_to(np.geomspace(np.abs(cs[-1]).max() or 1.0, 1e-4, 100), (m, 100))
    B = selection._gaussian_paths(grams, cs, lambdas)
    assert_each_fit_alone_is_bit_equal(grams, cs, lambdas, B)
    for k in range(m):
        assert gram_kkt(grams[k], cs[k], lambdas[k], B[k]) <= 1e-9, k
        if copy and p > 1:
            assert not np.any((B[k, :, 0] != 0.0) & (B[k, :, -1] != 0.0)), k


def cv_problem(kind, family, p, seed):
    """lasso_cv's keyword arguments for a problem of n 12-150 rows and p
    columns on unlike scales, weighted or not, with 2-5 folds and either
    rule; `kind` "constant outcome" and "no candidates" (every column
    constant) are skipped before the path."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 151))
    x = rng.standard_normal((n, p)) + 0.4 * rng.standard_normal((n, 1))
    eta = x @ rng.uniform(-1.0, 1.0, p)
    if family is GlmFamily.BINOMIAL:
        y = (rng.uniform(size=n) < expit(eta)).astype(float)
    else:
        y = eta + rng.standard_normal(n)
    x = x * 10.0 ** rng.uniform(-2, 2, p) + rng.uniform(-50.0, 50.0, p)
    if kind == "constant outcome":
        y[:] = y[0]
    elif kind == "no candidates":
        x[:] = x[0]
    return dict(x=x, y=y, family=family, k_cv=int(rng.integers(2, 6)), seed=int(rng.integers(100)),
                weights=rng.uniform(0.5, 2.0, n) if rng.integers(2) else None,
                lambda_rule=("1se", "min")[int(rng.integers(2))])


def outcome(run):
    """What `run()` returns, or the class and message of the TrialcraftError it raises."""
    try:
        return run()
    except TrialcraftError as exc:
        return type(exc), str(exc)


@given(st.lists(st.tuples(st.sampled_from(["path", "path", "constant outcome", "no candidates"]),
                          st.sampled_from(list(GlmFamily)), st.integers(1, 4),
                          st.integers(0, 2**32 - 1)), min_size=1, max_size=6))
@settings(max_examples=60)
def test_lasso_cvs_gives_each_problem_what_lasso_cv_gives_it_alone(draws):
    # Gaussian problems of equal p share one homotopy stack, each fit on its
    # own grid; the selection, path_diagnostics, dropped columns and warnings
    # of each must be those of its lone lasso_cv
    problems = [cv_problem(*draw) for draw in draws]
    alone = [outcome(lambda: lasso_cv(**problem)) for problem in problems]
    together = outcome(lambda: list(lasso_cvs(problems)))
    if all(isinstance(result, selection.SelectionResult) for result in alone):
        assert together == alone
    else:  # the error of one problem that raises alone
        assert together in alone


def test_kernel_problems_include_leaving_coefficients():
    # a leaving coefficient downdates a fit's inverse Gram block; the wide
    # problems above must take that branch, seen as a coefficient that is
    # non-zero at one grid point and zero at the next
    leaving = [problem for problem in KERNEL_PROBLEMS if problem[0].startswith("leaving")]
    drops = [np.sum((coefs[:-1] != 0.0) & (coefs[1:] == 0.0))
             for label, x, y, weights in leaving
             for coefs in [gaussian_path(x, y, weights)[1]]]
    assert sum(drop > 0 for drop in drops) >= len(leaving) // 2, drops


@pytest.mark.parametrize("seed", range(6))
def test_path_kernels_never_enter_an_exact_copy(seed):
    rng = np.random.default_rng(71_000 + seed)
    x = rng.standard_normal((150, 4)) + 0.3 * rng.standard_normal((150, 1))
    x[:, 3] = x[:, 1]
    y = x[:, 0] + x[:, 1] + rng.standard_normal(150)
    weights = rng.uniform(0.5, 2.0, size=150) if seed % 2 else None
    lambdas, coefs = gaussian_path(x, y, weights)
    assert not np.any((coefs[:, 2] != 0.0) & (coefs[:, 4] != 0.0))
    assert worst_kkt(x, y, weights, lambdas, coefs) <= 1e-9


@pytest.mark.parametrize("p", [30, 50])
@pytest.mark.parametrize("seed", range(4))
def test_wide_path_kernels_never_enter_a_copy_or_combination(seed, p):
    # x3 copies x1 and x4 = x1 - 2 x2: neither may join the columns it is made of
    rng = np.random.default_rng(71_100 + seed)
    x = rng.standard_normal((150, p)) + 0.3 * rng.standard_normal((150, 1))
    x[:, 3] = x[:, 1]
    x[:, 4] = x[:, 1] - 2.0 * x[:, 2]
    y = x[:, 0] + x[:, 1] - x[:, 2] + rng.standard_normal(150)
    weights = rng.uniform(0.5, 2.0, size=150) if seed % 2 else None
    lambdas, coefs = gaussian_path(x, y, weights)
    nonzero = coefs[:, 1:] != 0.0
    assert not np.any(nonzero[:, 1] & nonzero[:, 3])
    assert not np.any(nonzero[:, 1] & nonzero[:, 2] & nonzero[:, 4])
    assert worst_kkt(x, y, weights, lambdas, coefs) <= 1e-9


@pytest.mark.parametrize("value", [0.0, 2.5])
def test_column_constant_in_a_training_fold_never_enters(value, monkeypatch):
    # x2 varies only inside test fold 1, so fit 0 sees it constant
    calls = spy_gaussian_paths(monkeypatch)
    for seed in range(4):
        rng = np.random.default_rng(72_000 + seed)
        x = rng.standard_normal((200, 3))
        x[:, 2] = value
        fold1 = make_folds(200, 5, z=None, seed=seed, stratified=False).fold_indices(1)
        x[fold1, 2] += rng.standard_normal(fold1.size)
        y = x[:, 0] + 3.0 * x[:, 2] + rng.standard_normal(200)
        weights = rng.uniform(0.5, 2.0, size=200) if seed % 2 else None
        calls.clear()
        lasso_cv(x, y, GlmFamily.GAUSSIAN, k_cv=5, seed=seed, weights=weights)
        (grams, cs, _, B), = calls
        assert grams[0, 2, 2] == 0.0 and cs[0, 2] == 0.0 and np.all(B[0, :, 2] == 0.0)
        assert all(gram[2, 2] > 0.5 for gram in grams[1:])


def reference_cv(x, y, weights, k_cv, seed, lambdas):
    """Mean fold loss and full-data deviance at `lambdas` from lasso_path on
    each fold's training rows, predicting its test rows."""
    n = y.shape[0]
    w = np.ones(n) if weights is None else weights
    folds = make_folds(n, k_cv, z=None, seed=seed, stratified=False)
    losses = []
    for k in range(1, k_cv + 1):
        train, test = folds.complement_indices(k), folds.fold_indices(k)
        coefs, _ = lasso_path(x[train], y[train], GlmFamily.GAUSSIAN, lambdas, w[train])
        pred = coefs[:, 0][None, :] + x[test] @ coefs[:, 1:].T
        losses.append((w[test, None] * (y[test, None] - pred) ** 2).sum(axis=0) / w[test].sum())
    return np.mean(losses, axis=0), lasso_path(x, y, GlmFamily.GAUSSIAN, lambdas, weights)[1]


@pytest.mark.parametrize("label, x, y, weights", KERNEL_PROBLEMS[::3],
                         ids=[problem[0] for problem in KERNEL_PROBLEMS[::3]])
def test_cv_from_fold_moments_matches_fold_refits(label, x, y, weights):
    # columns far from 0 and on unlike scales: the moments are taken about the means
    x = x * np.geomspace(1e-2, 1e2, x.shape[1]) + 50.0
    res = lasso_cv(x, y, GlmFamily.GAUSSIAN, k_cv=4, seed=8, weights=weights)
    diag = res.path_diagnostics
    cv_mean, train_dev = reference_cv(x, y, weights, 4, 8, np.array(diag["lambdas"]))
    np.testing.assert_allclose(diag["cv_mean"], cv_mean, rtol=1e-9)
    np.testing.assert_allclose(diag["train_deviance"], train_dev, rtol=1e-9)


def test_full_data_path_is_zero_at_lambda_max(monkeypatch):
    # the grid starts at max|c| of the very c the full-data path starts from
    calls = spy_gaussian_paths(monkeypatch)
    for label, p, n, weighted, rule, k_cv, seed in selection_cases():
        x, y, weights = selection_problem(p, n, weighted, seed)
        lasso_cv(x, y, GlmFamily.GAUSSIAN, k_cv=k_cv, seed=seed, weights=weights, lambda_rule=rule)
        assert np.all(calls[-1][3][-1, 0] == 0.0), label


def binomial_path_problems():
    """(label, x, y, weights): logistic problems with p up to 20, half weighted."""
    problems = []
    for i in range(12):
        rng = np.random.default_rng(60_000 + i)
        p = (1, 2, 3, 5, 8, 12, 20)[i % 7]
        n = int(rng.integers(max(80, 10 * p), 400))
        x = rng.standard_normal((n, p)) + 0.3 * rng.standard_normal((n, 1))
        y = (rng.uniform(size=n) < expit(0.2 + x[:, : min(p, 3)].sum(axis=1) * 0.6)).astype(float)
        weights = rng.uniform(0.5, 2.0, size=n) if i % 2 else None
        problems.append((f"n={n} p={p} #{i}", x, y, weights))
    return problems


BINOMIAL_PATH_PROBLEMS = binomial_path_problems()


@pytest.mark.parametrize("label, x, y, weights", BINOMIAL_PATH_PROBLEMS,
                         ids=[problem[0] for problem in BINOMIAL_PATH_PROBLEMS])
def test_binomial_path_meets_kkt_at_every_grid_point(label, x, y, weights):
    lam_max = lasso_lambda_max(x, y, GlmFamily.BINOMIAL, weights)
    lambdas = np.geomspace(lam_max, lam_max * 1e-4, 100)
    coefs, _ = lasso_path(x, y, GlmFamily.BINOMIAL, lambdas, weights)
    worst = max(kkt_violation(x, y, GlmFamily.BINOMIAL, lam, coef, weights)
                for lam, coef in zip(lambdas, coefs))
    assert worst <= 1e-6


@pytest.mark.parametrize("label, x, y, weights", BINOMIAL_PATH_PROBLEMS[::3],
                         ids=[problem[0] for problem in BINOMIAL_PATH_PROBLEMS[::3]])
def test_stacked_full_data_fit_matches_lasso_path(label, x, y, weights, monkeypatch):
    # lasso_cv's last stacked fit is the full-data path that lasso_path computes alone
    stacks, solve = [], selection._binomial_paths

    def spy(blocks, lambdas):
        stacks.append(solve(blocks, lambdas))
        return stacks[-1]

    monkeypatch.setattr(selection, "_binomial_paths", spy)
    res = lasso_cv(x, y, GlmFamily.BINOMIAL, k_cv=5, seed=3, weights=weights)
    monkeypatch.undo()
    (b0s, B), = stacks
    assert B.shape[0] == 6
    lambdas = np.array(res.path_diagnostics["lambdas"])
    coefs, _ = lasso_path(x, y, GlmFamily.BINOMIAL, lambdas, weights)
    n = x.shape[0]
    w = np.ones(n) if weights is None else weights * (n / weights.sum())
    means = w @ x / n
    sds = np.sqrt(w @ (x - means) ** 2 / n)
    np.testing.assert_allclose(B[-1], coefs[:, 1:] * sds, rtol=0, atol=1e-9)
    np.testing.assert_allclose(b0s[-1], coefs[:, 0] + coefs[:, 1:] @ means, rtol=0, atol=1e-9)


@pytest.mark.parametrize("label, x, y, weights", BINOMIAL_PATH_PROBLEMS[1::3],
                         ids=[problem[0] for problem in BINOMIAL_PATH_PROBLEMS[1::3]])
def test_each_stacked_fit_gets_the_iterates_it_gets_alone(label, x, y, weights, monkeypatch):
    stacks, solve = [], selection._binomial_paths

    def spy(blocks, lambdas):
        stacks.append((blocks, lambdas, solve(blocks, lambdas)))
        return stacks[-1][2]

    monkeypatch.setattr(selection, "_binomial_paths", spy)
    lasso_cv(x, y, GlmFamily.BINOMIAL, k_cv=4, seed=5, weights=weights)
    monkeypatch.undo()
    ([(xs, y, W)], lambdas, (b0s, B)), = stacks
    for k in range(xs.shape[0]):
        b0, b = solve([(xs[k:k + 1], y, W[k:k + 1])], lambdas[k:k + 1])
        assert np.array_equal(b0[0], b0s[k]) and np.array_equal(b[0], B[k]), k


def fallback_grid_points(monkeypatch, x, y, lambdas):
    """lasso_path's binomial path, with the grid index of every IRLS step
    whose exact solve on the warm active set is rejected: the binomial path
    calls `_gaussian_paths` only to solve such steps."""
    calls, homotopy = [], selection._gaussian_paths

    def spy(grams, cs, lams):
        calls.append(int(np.flatnonzero(lambdas == lams[0])[0]))
        return homotopy(grams, cs, lams)

    monkeypatch.setattr(selection, "_gaussian_paths", spy)
    coefs, _ = lasso_path(x, y, GlmFamily.BINOMIAL, lambdas)
    monkeypatch.undo()
    assert max(kkt_violation(x, y, GlmFamily.BINOMIAL, lam, coef)
               for lam, coef in zip(lambdas, coefs)) <= 1e-6
    return coefs, calls


def binomial_grid(x, y):
    lam_max = lasso_lambda_max(x, y, GlmFamily.BINOMIAL)
    return np.geomspace(lam_max, lam_max * 1e-4, 100)


def test_binomial_step_is_exact_once_the_support_settles(monkeypatch):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((300, 3))
    y = (rng.uniform(size=300) < expit(0.3 + x @ [1.0, -0.7, 0.4])).astype(float)
    lambdas = binomial_grid(x, y)
    coefs, calls = fallback_grid_points(monkeypatch, x, y, lambdas)
    support = (coefs[:, 1:] != 0).tolist()
    changes = {i for i in range(1, len(lambdas)) if support[i] != support[i - 1]}
    assert len(changes) == 3  # each column enters once and stays
    # the homotopy only where the warm active set is not the new one
    assert set(calls) == {0} | changes


def test_binomial_step_falls_back_when_a_sign_changes(monkeypatch):
    # x3 follows x1 + x2 but enters the outcome with a negative sign: it
    # enters positive, must leave, and comes back negative
    rng = np.random.default_rng(0)
    x = rng.standard_normal((300, 3))
    x[:, 2] = 0.5 * (x[:, 0] + x[:, 1]) + 0.2 * x[:, 2]
    y = (rng.uniform(size=300) < expit(x @ [1.0, 1.0, -1.0])).astype(float)
    lambdas = binomial_grid(x, y)
    coefs, calls = fallback_grid_points(monkeypatch, x, y, lambdas)
    x3 = np.sign(coefs[:, 3])
    leave = int(np.flatnonzero((x3[:-1] > 0) & (x3[1:] == 0))[0]) + 1
    assert (x3[leave:] < 0).any()
    # the exact solve on the warm active set, which holds x3, is rejected there
    assert leave in calls


@pytest.mark.parametrize("seed", [90_024, 90_031, 90_052, 90_062, 90_073, 90_075, 90_107])
def test_binomial_cases_that_did_not_converge(seed):
    # problems of the sample in compare_lasso_selections.py that raised
    # NonConvergence: with coordinate descent at every IRLS step (90_073,
    # 90_075), or where it solved the steps the exact solve rejects (90_024,
    # 90_052); and with IRLS run at each penalty until no coefficient moved by
    # IRLS_MOVE_TOL (90_031, 90_062, 90_107), before a step whose Newton rate
    # bounds the next move well below it ended the penalty
    label, x, y, weights, k_cv, rule = broad_problem(seed)
    res = lasso_cv(x, y, GlmFamily.BINOMIAL, k_cv=k_cv, seed=seed, weights=weights,
                   lambda_rule=rule)
    assert res.path_diagnostics["chosen_index"] >= 0
    lambdas = np.array(res.path_diagnostics["lambdas"])
    coefs, _ = lasso_path(x, y, GlmFamily.BINOMIAL, lambdas, weights)
    for lam, coef in zip(lambdas, coefs):
        # IRLS clips each mean into [1e-5, 1 - 1e-5]; with no mean past the
        # clip, that is the likelihood itself
        assert kkt_violation(x, y, GlmFamily.BINOMIAL, lam, coef, weights, clip=1e-5) <= 1e-6
        mu = expit(coef[0] + x @ coef[1:])
        if np.all((mu > 1e-5) & (mu < 1.0 - 1e-5)):
            assert kkt_violation(x, y, GlmFamily.BINOMIAL, lam, coef, weights) <= 1e-6


@pytest.mark.parametrize("p, sizes", [(3, (60, 400, 1000)), (20, (120, 500, 1000)),
                                      (44, (150, 400, 900))])
def test_binomial_problems_of_unequal_n_stack_as_they_run_alone(p, sizes, monkeypatch):
    # one stack pads its rows to the longest problem's; at p = 44 a moment
    # product or linear predictor over padded rows rounds differently
    problems = [dict(zip(("x", "y", "weights"), binomial_problem(p, n, i % 2 == 1, 300 + i)),
                     family=GlmFamily.BINOMIAL, k_cv=3, seed=i) for i, n in enumerate(sizes)]
    alone = [lasso_cv(**problem) for problem in problems]
    calls = spy_binomial_blocks(monkeypatch)
    assert list(lasso_cvs(problems)) == alone
    assert calls == [list(sizes)]


def failing_and_converging():
    """Broad sample seed 90056, whose lasso does not converge, and a problem
    of its column count and 150 rows whose lasso does."""
    _, x, y, weights, k_cv, rule = broad_problem(90_056)
    failing = dict(x=x, y=y, family=GlmFamily.BINOMIAL, k_cv=k_cv, seed=90_056, weights=weights,
                   lambda_rule=rule)
    x2, y2, _ = binomial_problem(x.shape[1], 150, False, 301)
    return failing, dict(x=x2, y=y2, family=GlmFamily.BINOMIAL, seed=1)


def test_a_stack_raises_what_one_of_its_problems_raises_alone(monkeypatch):
    # the two stacked in either order; each problem is replayed alone when reached
    failing, converging = failing_and_converging()
    alone = [outcome(lambda: lasso_cv(**problem)) for problem in (failing, converging)]
    assert alone[0][0] is NonConvergence and isinstance(alone[1], selection.SelectionResult)
    calls = spy_binomial_blocks(monkeypatch)
    for problems in ([failing, converging], [converging, failing]):
        assert outcome(lambda: list(lasso_cvs(problems))) in alone
    n = failing["x"].shape[0]
    assert calls == [[n, 150], [n], [150, n], [150], [n]]


def test_a_failed_stack_runs_each_problem_alone_when_it_is_reached(monkeypatch):
    failing, converging = failing_and_converging()
    alone = lasso_cv(**converging)
    calls = spy_binomial_blocks(monkeypatch)
    results = lasso_cvs([converging, failing])
    n = failing["x"].shape[0]
    assert calls == [[150, n]]  # the stack runs at once, and nothing runs alone yet
    assert next(results) == alone
    assert calls == [[150, n], [150]]
    with pytest.raises(NonConvergence):
        next(results)
    assert calls == [[150, n], [150], [n]]


def test_solve_stack_isolates_a_singular_system():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 4, 4))
    a = a @ a.transpose(0, 2, 1) + np.eye(4)
    a[1, :, 3] = a[1, :, 2]
    rhs = rng.standard_normal((3, 4, 1))
    out, refused = glm._solve(a, rhs)
    assert refused == [1]
    assert np.isnan(out[1]).all()
    for k in (0, 2):
        assert np.array_equal(out[k], np.linalg.solve(a[k], rhs[k]))


def test_duplicate_column_never_selected_twice():
    # x2 is an exact copy of x1: the refit on the selection must stay full rank
    for seed in range(40):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((200, 3))
        x[:, 2] = x[:, 1]
        y = x[:, 0] + x[:, 1] + rng.standard_normal(200)
        sel = lasso_cv(x, y, GlmFamily.GAUSSIAN, k_cv=5, seed=seed)
        assert not {"x1", "x2"} <= set(sel.selected_columns), seed
        _, idx = _refit_columns(_column_names(None, 3), sel)
        fit_ml(x[:, idx], y, GlmFamily.GAUSSIAN)


if __name__ == "__main__":
    entries = {**record_selections(), **record_binomial_selections()}
    PINNED.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} selections to {PINNED}", file=sys.stderr)
