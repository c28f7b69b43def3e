"""Data-adaptive variable selection: lasso with a cross-validated penalty
path, forward stepwise by AIC, and the post-selection maximum-likelihood
refit that restores the prediction unbiasedness identity.

Lasso internals: columns are standardized to unit (population) variance,
the intercept is never penalized, and coefficients are reported on the
original scale. The Gaussian path is piecewise linear in the penalty and
is computed exactly by a homotopy (LARS with the lasso modification) on the
Gram matrix: one small linear solve per knot, then every grid penalty on
that segment at once. Binomial problems run coordinate descent inside an
IRLS quadratic approximation, warm-started along the grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import make_folds
from .errors import ConfigError, NonConvergence, Separation, Singular
from .glm import GlmFamily, GlmFit, fit_ml, expit

COORD_TOL = 1e-9
MAX_SWEEPS = 10_000
KNOTS_PER_COLUMN = 20
MAX_OUTER = 200
PATH_POINTS = 100
PATH_MIN_RATIO = 1e-4
MU_CLIP = 1e-10


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a selection run. `selected_columns` excludes any forced
    columns (those are appended at refit time)."""

    selected_columns: tuple[str, ...]
    method: str
    path_diagnostics: dict | None = None
    dropped_zero_variance: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()


def _default_names(p: int) -> tuple[str, ...]:
    return tuple(f"x{j}" for j in range(p))


def _normalized_weights(weights, n):
    if weights is None:
        return np.ones(n)
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("lasso weights must be positive")
    return w * (n / w.sum())


def _standardize(x, w):
    n = x.shape[0]
    means = (w[:, None] * x).sum(axis=0) / n
    centered = x - means
    sds = np.sqrt((w[:, None] * centered**2).sum(axis=0) / n)
    degenerate = sds <= 0
    sds = np.where(degenerate, 1.0, sds)
    xs = centered / sds
    xs[:, degenerate] = 0.0
    return xs, means, sds, degenerate


def _soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def lasso_lambda_max(x, y, family: GlmFamily, weights=None) -> float:
    """Smallest penalty at which every non-intercept coefficient is zero."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    w = _normalized_weights(weights, n)
    xs, _, _, _ = _standardize(x, w)
    ybar = float((w * y).sum() / n)
    grad = xs.T @ (w * (y - ybar)) / n
    return float(np.max(np.abs(grad))) if grad.size else 0.0


def _gaussian_path(gram, c, lambdas):
    """Exact Gaussian lasso solutions at the descending penalties `lambdas`,
    from the Gram matrix G = xs'W xs / n and c = xs'W(y - ybar) / n.

    LARS with the lasso modification (Efron et al. 2004): between knots the
    active coefficients are b_A(lam) = u - lam v with u = G_AA^-1 c_A and
    v = G_AA^-1 s_A, so each segment is written to every grid point it
    covers at once. The next knot is the largest lam below the current one
    where an inactive correlation a + lam e reaches +-lam from inside, or
    where an active coefficient moving toward zero reaches it. Columns with a
    zero Gram diagonal, or with a Schur complement against the active set of
    at most 1e-10 G_jj (inside its span), never enter; so an exact copy of
    an active column stays at zero.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    neg = -lambdas  # ascending, for searchsorted
    p = c.shape[0]
    diag = np.diag(gram)
    usable = diag > 0
    B = np.zeros((lambdas.shape[0], p))
    if not usable.any():
        return B
    first = int(np.argmax(np.where(usable, np.abs(c), -1.0)))
    lam = abs(float(c[first]))
    active, signs = [first], [1.0 if c[first] > 0 else -1.0]
    i = int(np.searchsorted(neg, -lam, side="right"))  # points at lam_max and above stay zero
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(KNOTS_PER_COLUMN * (p + 1)):
            rows = gram[active]  # G_A. = G_.A' by symmetry
            sol = np.linalg.solve(rows[:, active], np.column_stack([c[active], signs, rows]))
            u, v = sol[:, 0], sol[:, 1]
            a = c - u @ rows
            e = v @ rows
            free = usable & (diag - (rows * sol[:, 2:]).sum(axis=0) > 1e-10 * diag)
            free[active] = False
            # reaching +lam, then -lam; only a positive denominator crosses
            # from inside, and a root at or above lam enters at once (ties)
            den = np.concatenate([1.0 - e, 1.0 + e])
            roots = np.concatenate([a, -a]) / den
            ok = np.concatenate([free, free]) & (den > 0) & (roots > 0)
            enter = np.where(ok, np.minimum(roots, lam), 0.0)
            hits = u / v
            leave = np.where((v * signs < 0) & (hits > 0), np.minimum(hits, lam), 0.0)
            j, k = int(enter.argmax()), int(leave.argmax())
            knot = max(float(enter[j]), float(leave[k]))
            i1 = int(np.searchsorted(neg, -knot, side="right"))
            B[i:i1, active] = u - lambdas[i:i1, None] * v
            if i1 == lambdas.shape[0] or knot <= 0.0:
                return B
            i, lam = i1, knot
            if leave[k] >= enter[j]:
                active.pop(k)  # never the last one: a lone coefficient moves away from 0
                signs.pop(k)
            else:
                active.append(j % p)
                signs.append(1.0 if j < p else -1.0)
    raise NonConvergence("gaussian lasso path did not reach the end of the grid")


def _cd_weighted_ls(xs, z, w_work, lam, b0, b, max_sweeps=MAX_SWEEPS, tol=1e-10):
    """Penalized weighted least squares on (z, w_work); intercept updated too."""
    n, p = xs.shape
    wsum = w_work.sum()
    if wsum <= 0:
        raise NonConvergence("degenerate working weights")
    resid = z - b0 - xs @ b
    col_norm = (w_work[:, None] * xs**2).sum(axis=0) / n
    degenerate = col_norm <= 0  # those coefficients stay at zero
    for _ in range(max_sweeps):
        new_b0 = b0 + (w_work * resid).sum() / wsum
        resid -= new_b0 - b0
        delta = abs(new_b0 - b0)
        b0 = new_b0
        for j in range(p):
            if degenerate[j]:
                continue
            rho = (w_work * xs[:, j] * resid).sum() / n + col_norm[j] * b[j]
            new = _soft_threshold(rho, lam) / col_norm[j]
            if new != b[j]:
                resid -= (new - b[j]) * xs[:, j]
                delta = max(delta, abs(new - b[j]))
                b[j] = new
        if delta < tol:
            return b0, b
    raise NonConvergence("inner coordinate descent did not converge")


def _lasso_binomial(xs, y, w, lam, b0, b):
    """IRLS quadratic approximation around the current fit, solved by CD."""
    for _ in range(MAX_OUTER):
        eta = b0 + xs @ b
        mu = np.clip(expit(eta), 1e-5, 1.0 - 1e-5)
        var = mu * (1.0 - mu)
        w_work = w * var
        z = eta + (y - mu) / var
        prev0, prev = b0, b.copy()
        b0, b = _cd_weighted_ls(xs, z, w_work, lam, b0, b)
        moved = max(abs(b0 - prev0), float(np.max(np.abs(b - prev))) if b.size else 0.0)
        if moved < COORD_TOL:
            return b0, b
    raise NonConvergence("binomial lasso did not converge")


def _path_standardized(xs, y, family, w, lambdas):
    """Coefficient path on standardized columns; returns (b0s, B). Gaussian
    paths are exact; binomial ones are warm-started IRLS-CD fits."""
    if family is GlmFamily.GAUSSIAN:
        n = xs.shape[0]
        ybar = float((w * y).sum() / n)
        gram = xs.T @ (xs * w[:, None]) / n
        c = xs.T @ (w * (y - ybar)) / n
        return np.full(len(lambdas), ybar), _gaussian_path(gram, c, lambdas)
    p = xs.shape[1]
    b0s = np.empty(len(lambdas))
    B = np.empty((len(lambdas), p))
    b0, b = 0.0, np.zeros(p)
    for i, lam in enumerate(lambdas):
        b0, b = _lasso_binomial(xs, y, w, lam, b0, b)
        b0s[i] = b0
        B[i] = b
    return b0s, B


def lasso_fit(x, y, family: GlmFamily, lam: float, weights=None) -> np.ndarray:
    """L1-penalized GLM coefficients (intercept first, original scale).

    Minimizes (1/2n) weighted squared loss (gaussian) or (1/n) weighted
    negative log-likelihood (binomial) plus lam * sum |beta_j| over the
    standardized non-intercept coefficients.
    """
    if lam < 0:
        raise ConfigError("lambda must be non-negative")
    return lasso_path(x, y, family, [lam], weights)[0][0]


def lasso_path(x, y, family: GlmFamily, lambdas, weights=None):
    """Coefficient path over descending penalties; returns (coefs, train_deviance).

    `coefs[i]` is the original-scale coefficient vector at `lambdas[i]`.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if np.any(np.diff(lambdas) > 0):
        raise ConfigError("lasso_path needs a non-increasing penalty grid")
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    w = _normalized_weights(weights, n)
    xs, means, sds, _ = _standardize(x, w)
    b0s, B = _path_standardized(xs, y, family, w, lambdas)
    coefs = np.column_stack(
        [b0s - B @ (means / sds), B / sds[None, :]]
    )
    mu = family.inv_link(b0s[None, :] + xs @ B.T)  # (n, n_lambda)
    if family is GlmFamily.GAUSSIAN:
        deviances = (w[:, None] * (y[:, None] - mu) ** 2).sum(axis=0)
    else:
        mu = np.clip(mu, MU_CLIP, 1.0 - MU_CLIP)
        yt = y[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.where(yt > 0, yt * (np.log(yt) - np.log(mu)), 0.0)
            t0 = np.where(yt < 1, (1 - yt) * (np.log1p(-yt) - np.log1p(-mu)), 0.0)
        deviances = 2.0 * (w[:, None] * (t1 + t0)).sum(axis=0)
    return coefs, deviances


def _support_warning(n_selected, n, p):
    threshold = math.sqrt(n) / math.log(max(p, n)) if max(p, n) > 1 else math.inf
    if n_selected > threshold:
        return (
            f"selected {n_selected} columns, above the ultra-sparsity guide "
            f"sqrt(n)/log(max(p,n)) = {threshold:.2f}; inference may degrade",
        )
    return ()


def lasso_cv(
    x,
    y,
    family: GlmFamily,
    k_cv: int = 5,
    seed: int = 0,
    weights=None,
    lambda_rule: str = "1se",
    column_names=None,
) -> SelectionResult:
    """Lasso over a 100-point log-spaced penalty path with K-fold CV.

    The penalty is chosen by the one-standard-error rule by default
    (`lambda_rule="min"` picks the CV minimizer). Zero-variance columns are
    excluded from the candidates and reported in the diagnostics.
    """
    if k_cv < 2:
        raise ConfigError("k_cv must be at least 2")
    if lambda_rule not in ("1se", "min"):
        raise ConfigError(f"unknown lambda_rule {lambda_rule!r}")
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    names = tuple(column_names) if column_names is not None else _default_names(p)
    w_full = _normalized_weights(weights, n)

    _, _, _, degenerate = _standardize(x, w_full)
    keep = ~degenerate
    dropped = tuple(name for name, ok in zip(names, keep) if not ok)
    x_eff = x[:, keep]
    names_eff = tuple(name for name, ok in zip(names, keep) if ok)

    if x_eff.shape[1] == 0:
        return SelectionResult((), "lasso_cv", {"lambdas": [], "note": "no usable candidates"}, dropped)

    lam_max = lasso_lambda_max(x_eff, y, family, weights)
    if lam_max <= 0:
        return SelectionResult(
            (), "lasso_cv", {"lambdas": [], "note": "outcome has no variance"}, dropped
        )
    lambdas = np.geomspace(lam_max, lam_max * PATH_MIN_RATIO, PATH_POINTS)

    folds = make_folds(n, k_cv, z=None, seed=seed, stratified=False)
    fold_losses = np.empty((k_cv, PATH_POINTS))
    for k in range(1, k_cv + 1):
        test = folds.fold_indices(k)
        train = folds.complement_indices(k)
        w_train = _normalized_weights(
            None if weights is None else np.asarray(weights, dtype=float)[train],
            train.size,
        )
        xs_train, means, sds, degenerate = _standardize(x_eff[train], w_train)
        b0s, B = _path_standardized(xs_train, y[train], family, w_train, lambdas)
        xs_test = (x_eff[test] - means) / sds
        xs_test[:, degenerate] = 0.0
        eta = b0s[None, :] + xs_test @ B.T  # (n_test, n_lambda)
        mu = family.inv_link(eta)
        w_test = w_full[test]
        if family is GlmFamily.BINOMIAL:
            mu = np.clip(mu, 1e-10, 1 - 1e-10)
            yt = y[test][:, None]
            loss = -2.0 * (yt * np.log(mu) + (1 - yt) * np.log1p(-mu))
        else:
            loss = (y[test][:, None] - mu) ** 2
        fold_losses[k - 1] = (w_test[:, None] * loss).sum(axis=0) / w_test.sum()

    cv_mean = fold_losses.mean(axis=0)
    cv_se = fold_losses.std(axis=0, ddof=1) / math.sqrt(k_cv)
    idx_min = int(np.argmin(cv_mean))
    if lambda_rule == "min":
        chosen = idx_min
    else:
        cutoff = cv_mean[idx_min] + cv_se[idx_min]
        chosen = int(np.flatnonzero(cv_mean <= cutoff)[0])

    coefs, train_dev = lasso_path(x_eff, y, family, lambdas, weights)
    beta = coefs[chosen][1:]
    selected = tuple(name for name, b in zip(names_eff, beta) if b != 0.0)
    warnings = _support_warning(len(selected), n, p)
    diagnostics = {
        "lambdas": lambdas.tolist(),
        "cv_mean": cv_mean.tolist(),
        "cv_se": cv_se.tolist(),
        "train_deviance": train_dev.tolist(),
        "chosen_index": chosen,
        "chosen_lambda": float(lambdas[chosen]),
        "lambda_rule": lambda_rule,
    }
    return SelectionResult(selected, "lasso_cv", diagnostics, dropped, warnings)


def stepwise_aic(
    x,
    y,
    family: GlmFamily,
    max_terms: int | None = None,
    weights=None,
    column_names=None,
) -> SelectionResult:
    """Forward selection minimizing AIC = deviance + 2 * (number of
    coefficients). Ties break toward the lower column index; candidates
    whose fit separates or is singular are skipped at that step."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    names = tuple(column_names) if column_names is not None else _default_names(p)
    if max_terms is None:
        max_terms = p
    if max_terms > p:
        raise ConfigError("max_terms cannot exceed the number of candidates")

    sds = x.std(axis=0)
    usable = [j for j in range(p) if sds[j] > 0]
    dropped = tuple(names[j] for j in range(p) if sds[j] <= 0)

    current: list[int] = []
    base = fit_ml(None, y, family, weights)
    best_aic = base.deviance + 2.0
    while len(current) < max_terms:
        best_j, best_candidate_aic = None, best_aic
        for j in usable:
            if j in current:
                continue
            cols = current + [j]
            try:
                fit = fit_ml(x[:, cols], y, family, weights)
            except (Separation, Singular, NonConvergence):
                continue
            aic = fit.deviance + 2.0 * (len(cols) + 1)
            if aic < best_candidate_aic - 1e-12:
                best_j, best_candidate_aic = j, aic
        if best_j is None:
            break
        current.append(best_j)
        best_aic = best_candidate_aic

    selected = tuple(names[j] for j in current)
    warnings = _support_warning(len(selected), n, p)
    return SelectionResult(selected, "stepwise_aic", None, dropped, warnings)


def post_selection_refit(
    x,
    y,
    family: GlmFamily,
    selected: SelectionResult,
    forced=(),
    weights=None,
    column_names=None,
) -> GlmFit:
    """Step-1b refit: unpenalized ML GLM on selected plus forced columns.

    Deduplicated, selection order first; an empty union gives the
    intercept-only fit. This is the step that restores the score-zero
    identity after any (possibly wrong) selection.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    names = tuple(column_names) if column_names is not None else _default_names(x.shape[1])
    chosen: list[str] = []
    for name in tuple(selected.selected_columns) + tuple(forced):
        if name not in chosen:
            chosen.append(name)
    index = {name: j for j, name in enumerate(names)}
    missing = [name for name in chosen if name not in index]
    if missing:
        raise ConfigError(f"refit columns not in candidates: {missing}")
    cols = [index[name] for name in chosen]
    design = x[:, cols] if cols else None
    return fit_ml(design, y, family, weights, column_names=tuple(chosen))
