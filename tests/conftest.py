import contextlib
import os
import threading

import numpy as np
import pytest
from hypothesis import settings

from trialcraft import glm, selection
from trialcraft.data import TrialDataset, _zero_variance
from trialcraft.errors import Singular
from trialcraft.glm import (
    DEVIANCE_RTOL,
    MAX_IRLS_ITERATIONS,
    MU_FLOOR,
    GlmFamily,
    GlmFit,
    _as_design,
    _check_diverged,
    _prepare,
    _start_mean,
    expit,
    predict,
)
from trialcraft.learners import RidgePredictor
from trialcraft.selection import lasso_path

# a fixed example sequence and no per-example deadline: the suite gives the
# same verdict on every run, however slow or noisy the machine
settings.register_profile("trialcraft", derandomize=True, deadline=None, database=None)
settings.load_profile("trialcraft")


def kkt_violation(x, y, family, lam, coef, weights=None, clip=0.0):
    """Independent KKT checker for the penalized GLM solution.

    Recomputes the standardized-scale gradient from scratch: for inactive
    coordinates |g_j| must not exceed lam, for active ones g_j must equal
    -lam * sign(b_j). Returns the largest violation. A binomial mean is
    taken into [clip, 1 - clip], as the lasso's IRLS takes it.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    w = w * (n / w.sum())
    means = (w[:, None] * x).sum(axis=0) / n
    sds = np.sqrt((w[:, None] * (x - means) ** 2).sum(axis=0) / n)
    sds = np.where(sds <= 0, 1.0, sds)
    xs = (x - means) / sds
    eta = coef[0] + x @ coef[1:]
    mu = np.clip(expit(eta), clip, 1.0 - clip) if family is GlmFamily.BINOMIAL else eta
    grad = xs.T @ (w * (mu - y)) / n
    b_std = coef[1:] * sds
    worst = 0.0
    for j in range(x.shape[1]):
        if b_std[j] == 0.0:
            worst = max(worst, abs(grad[j]) - lam)
        else:
            worst = max(worst, abs(grad[j] + lam * np.sign(b_std[j])))
    # the intercept is unpenalized: its score must vanish
    worst = max(worst, abs(float(np.sum(w * (mu - y)) / n)))
    return worst


def spy_binomial_blocks(monkeypatch):
    """The row counts of the blocks of every `_binomial_paths` stack, per call."""
    calls, solve = [], selection._binomial_paths

    def spy(blocks, lambdas):
        calls.append([xs.shape[1] for xs, _, _ in blocks])
        return solve(blocks, lambdas)

    monkeypatch.setattr(selection, "_binomial_paths", spy)
    return calls


def spy_irls_stacks(monkeypatch):
    """The number of fits of every `glm._irls` stack, in call order."""
    sizes, irls = [], glm._irls

    def spy(fits, family):
        sizes.append(len(fits))
        return irls(fits, family)

    monkeypatch.setattr(glm, "_irls", spy)
    return sizes


def lasso_fit(x, y, family, lam, weights=None):
    """L1-penalized GLM coefficients (intercept first, original scale) at the
    one penalty `lam`: minimizes (1/2n) weighted squared loss (gaussian) or
    (1/n) weighted negative log-likelihood (binomial) plus lam * sum |beta_j|
    over the standardized non-intercept coefficients."""
    return lasso_path(x, y, family, [lam], weights)[0][0]


def knn_reference(predictor, x):
    """A KnnPredictor's predictions by a full stable sort of each query row's
    squared distances to the training rows: the k nearest, ties to the lower
    training row, averaged in distance order."""
    x = _as_design(x)
    xq = (x - predictor.means) / predictor.sds
    xt = (predictor.x_train - predictor.means) / predictor.sds
    d2 = ((xq**2).sum(axis=1)[:, None] - 2.0 * xq @ xt.T + (xt**2).sum(axis=1)[None, :])
    order = np.argsort(d2, axis=1, kind="stable")[:, : predictor.k]
    return predictor.y_train[order].mean(axis=1)


def deviance_reference(family, y, mu, w):
    """A weighted deviance with every outcome term computed at each call:
    y log(y / mu) where y > 0 and (1 - y) log((1 - y) / (1 - mu)) where
    y < 1, mu clipped into [MU_FLOOR, 1 - MU_FLOOR]."""
    if family is GlmFamily.GAUSSIAN:
        return float((w * (y - mu) ** 2).sum())
    mu = np.clip(mu, MU_FLOOR, 1.0 - MU_FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(y > 0, y * (np.log(y) - np.log(mu)), 0.0)
        t0 = np.where(y < 1, (1 - y) * (np.log1p(-y) - np.log1p(-mu)), 0.0)
    return float(2.0 * (w * (t1 + t0)).sum())


def wls_reference(design, w, target):
    """Weighted least squares of target on the design, by a 2-D Cholesky
    check and np.linalg.solve: a refused X'WX is Singular. `glm` makes this
    solve on stacks, through its own primitives."""
    xtwx = design.T @ (design * w[:, None])
    try:
        np.linalg.cholesky(xtwx)
        return np.linalg.solve(xtwx, design.T @ (w * target))
    except np.linalg.LinAlgError:
        raise Singular("rank-deficient weighted design matrix") from None


def irls_reference(design, y, family, weights=None, offset=None, has_intercept=False):
    """`fit_ml_design` by IRLS with `deviance_reference`, a unit variance
    written out for the gaussian family, and the clipped mean recomputed at
    each step: (coefficients, iterations, deviance)."""
    design, y, w, off = _prepare(design, y, weights, offset)
    n, q = design.shape
    if family is GlmFamily.BINOMIAL and (np.any(y < 0) or np.any(y > 1)):
        raise ValueError("binomial outcomes must lie in [0, 1]")
    coef = np.zeros(q)
    if has_intercept and q > 0:
        coef[0] = float(family.link(np.array([_start_mean(y, family, w)]))[0])

    def fitted(c):
        eta = design @ c + off
        mu = family.inv_link(eta)
        return eta, mu, deviance_reference(family, y, mu, w)

    if q == 0:
        return coef, 0, fitted(coef)[2]
    dev_prev = np.inf
    eta = design @ coef + off
    mu = family.inv_link(eta)
    for iterations in range(1, MAX_IRLS_ITERATIONS + 1):
        if family is GlmFamily.BINOMIAL:
            mu = np.clip(mu, MU_FLOOR, 1.0 - MU_FLOOR)
            var = mu * (1.0 - mu)
        else:
            var = np.ones(n)
        new_coef = wls_reference(design, w * var, eta - off + (y - mu) / var)
        direction = new_coef - coef
        step = 1.0
        eta, mu, dev = fitted(new_coef)
        while dev > dev_prev + 1e-12 and step > 1e-8:
            step /= 2.0
            new_coef = coef + step * direction
            eta, mu, dev = fitted(new_coef)
        coef = new_coef
        converged = abs(dev - dev_prev) <= DEVIANCE_RTOL * (abs(dev) + 0.1)
        dev_prev = dev
        if converged:
            break
    _check_diverged(family, design, y, off, w, coef, converged)
    return coef, iterations, dev_prev


def ridge_reference(learner, x, y, seed=0):
    """A RidgeLearner's training with its CV solving one penalty at a time:
    (index of the chosen penalty, CV losses or None when CV is skipped, the
    gaussian predictor)."""
    x = _as_design(x)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    means = x.mean(axis=0)
    sds = x.std(axis=0)
    sds = np.where(_zero_variance(means, sds), 1.0, sds)
    xs = (x - means) / sds
    ybar = float(y.mean())
    yc = y - ybar
    eye = np.eye(p)
    index, losses = 0, None
    if len(learner.lambda_grid) > 1 and n >= 2 * learner.k_cv:
        assignment = np.random.default_rng(seed).permutation(n) % learner.k_cv
        losses = np.zeros(len(learner.lambda_grid))
        for k in range(learner.k_cv):
            test = assignment == k
            train = ~test
            xbar = xs[train].mean(axis=0)
            x_train, x_test = xs[train] - xbar, xs[test] - xbar
            y_mean = yc[train].mean()
            gram, rhs = x_train.T @ x_train, x_train.T @ (yc[train] - y_mean)
            for i, lam in enumerate(learner.lambda_grid):
                beta = np.linalg.solve(gram + lam * eye, rhs)
                pred = y_mean + x_test @ beta
                losses[i] += float(((yc[test] - pred) ** 2).sum())
        index = int(np.argmin(losses))
    lam = float(learner.lambda_grid[index])
    beta = np.linalg.solve(xs.T @ xs + lam * eye, xs.T @ yc)
    return index, losses, RidgePredictor(ybar, beta, means, sds, GlmFamily.GAUSSIAN)


def score_residual(fit: GlmFit, x, y, weights=None):
    """Weighted score equations sum_i w_i c_ij (y_i - mu_i), intercept first.

    For any converged `fit_ml` output evaluated on its own training data the
    result is zero to ~1e-8 * n in every component; the intercept component
    is exactly the prediction unbiasedness condition.
    """
    y = np.asarray(y, dtype=float)
    x = _as_design(x, y.shape[0])
    mu = predict(fit, x)
    w = np.ones(y.shape[0]) if weights is None else np.asarray(weights, dtype=float)
    design = np.column_stack([np.ones(y.shape[0]), x]) if fit.has_intercept else x
    return design.T @ (w * (y - mu))


def simulate_trial(rng, n=80, p=3, family=GlmFamily.GAUSSIAN, effect=0.5,
                   beta_scale=1.0, noise_sd=1.0):
    """Small linear trial for property loops; both arms guaranteed non-empty."""
    x = rng.standard_normal((n, p))
    z = np.zeros(n)
    z[: n // 2] = 1.0
    z = rng.permutation(z)
    m = effect * z + beta_scale * x.sum(axis=1) / np.sqrt(p)
    if family is GlmFamily.BINOMIAL:
        y = (rng.uniform(size=n) < expit(m)).astype(float)
    else:
        y = m + noise_sd * rng.standard_normal(n)
    names = tuple(f"x{j + 1}" for j in range(p))
    return TrialDataset(y, z, x, names)


def trial_csv_bytes(quoted, n=5000):
    """A CSV of outcome y, arm z and covariates a, b, larger than the 64 KB a
    pipe holds, with an "NA" cell every 97th row. `quoted` quotes the header
    and the first outcome cell, as R's write.csv quotes names, so that only
    the per-cell reader reads it."""
    rng = np.random.default_rng(2)
    rows = [f"{rng.normal():.6f},{i % 2},{rng.normal():.6f},{'NA' if i % 97 == 0 else i}"
            for i in range(n)]
    if quoted:
        rows[0] = '"' + rows[0].replace(",", '",', 1)
    header = '"y","z","a","b"' if quoted else "y,z,a,b"
    return "\n".join([header, *rows, ""]).encode("utf-8")


@contextlib.contextmanager
def piped(raw):
    """A path naming the read end of a pipe that a thread fills with `raw`,
    as a shell's `<(cat trial.csv)` does. A pipe can be read only once."""
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd to name a pipe by")
    r, w = os.pipe()

    def feed():
        try:
            with os.fdopen(w, "wb") as fh:
                fh.write(raw)
        except BrokenPipeError:  # the reader stopped before the end
            pass

    thread = threading.Thread(target=feed)
    thread.start()
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)
        thread.join()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
