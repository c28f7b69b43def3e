"""Pinned lasso selections and exact-path checks.

`lasso_selections.json` holds, for about 30 cross-validated Gaussian lasso
problems (p in {1, 3, 8, 44}, n in {40, 200, 1500}, weighted and
unweighted, both penalty rules, 3 and 5 folds), the selected columns and
the chosen path index. The problems are in general position: no column is
an exact copy or combination of others. Entries whose label starts with
"binomial" hold 15 logistic lasso problems (p in {1, 3, 8, 20}, n in
{60, 200, 600}), one of them with a column that is constant inside a
training fold. A change that is meant to alter selections re-records the
file with

    PYTHONPATH=src python tests/test_lasso_selections.py
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import kkt_violation
from trialcraft import selection
from trialcraft.data import make_folds
from trialcraft.glm import GlmFamily, expit
from trialcraft.selection import lasso_cv, lasso_lambda_max, lasso_path, post_selection_refit

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
    """(label, p, n, weighted, lambda_rule, k_cv, seed) for every pinned logistic problem."""
    variants = [(False, "1se", 5), (True, "min", 3), (True, "1se", 3), (False, "min", 5)]
    sizes = [(p, n) for p in (1, 3, 8, 20) for n in (60, 200, 600)] + [(3, 200), (8, 600)]
    cases = []
    for index, (p, n) in enumerate(sizes):
        weighted, rule, k_cv = variants[index % len(variants)]
        label = f"binomial p={p} n={n} weighted={weighted} rule={rule} k={k_cv} seed={index}"
        cases.append((label, p, n, weighted, rule, k_cv, index))
    cases.append(("binomial constant-in-fold p=4 n=200 k=5 seed=99", 4, 200, True, "min", 5, 99))
    return cases


def binomial_problem(p, n, weighted, seed, k_cv=5):
    """Correlated Gaussian covariates and a logistic outcome with decaying
    signals; seed 99 turns the last column into a rare indicator whose ones
    all fall in the first test fold, so it is constant in that fold's
    training rows."""
    rng = np.random.default_rng(7_000 + seed)
    shared = rng.standard_normal((n, 1))
    x = rng.standard_normal((n, p)) + 0.4 * shared
    beta = np.zeros(p)
    beta[: min(p, 5)] = 1.0 / np.arange(1, min(p, 5) + 1)
    y = (rng.uniform(size=n) < expit(-0.3 + x @ beta)).astype(float)
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
    for label, p, n, weighted, rule, k_cv, seed in binomial_cases():
        x, y, weights = binomial_problem(p, n, weighted, seed, k_cv)
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

    def spy(xs, y, W, lambdas):
        stacks.append(solve(xs, y, W, lambdas))
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


def test_duplicate_column_never_selected_twice():
    # x2 is an exact copy of x1: the refit on the selection must stay full rank
    for seed in range(40):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((200, 3))
        x[:, 2] = x[:, 1]
        y = x[:, 0] + x[:, 1] + rng.standard_normal(200)
        sel = lasso_cv(x, y, GlmFamily.GAUSSIAN, k_cv=5, seed=seed)
        assert not {"x1", "x2"} <= set(sel.selected_columns), seed
        post_selection_refit(x, y, GlmFamily.GAUSSIAN, sel)


if __name__ == "__main__":
    entries = {**record_selections(), **record_binomial_selections()}
    PINNED.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} selections to {PINNED}", file=sys.stderr)
