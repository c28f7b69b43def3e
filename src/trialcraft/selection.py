"""Data-adaptive variable selection: lasso with a cross-validated penalty
path, forward stepwise by AIC, and the post-selection maximum-likelihood
refit that restores the prediction unbiasedness identity.

Lasso internals: columns are standardized to unit (population) variance,
the intercept is never penalized, and coefficients are reported on the
original scale. Gaussian problems use Gram-based coordinate descent so a
whole 100-point path costs little more than one fit; binomial problems wrap
the same inner solver in an IRLS quadratic approximation.
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


class _GaussianCd:
    """Gram-based coordinate descent; per-coordinate cost is O(p), so a
    whole penalty path reuses one O(n p^2) precomputation. For small p the
    sweep runs on plain Python floats (lam and the Gram rows included), which
    is several times faster than numpy scalar arithmetic in this regime."""

    PYTHON_KERNEL_MAX_P = 12

    def __init__(self, xs, y, w):
        n = xs.shape[0]
        self.gram = xs.T @ (xs * w[:, None]) / n
        self.ybar = float((w * y).sum() / n)
        self.c = xs.T @ (w * (y - self.ybar)) / n
        self.diag = np.diag(self.gram).copy()
        self.diag[self.diag <= 0] = 1.0  # degenerate columns stay at zero
        self._gram_rows = self.gram.tolist()
        self._c_list = [float(v) for v in self.c]
        self._diag_list = [float(v) for v in self.diag]

    def solve(self, lam, b, max_sweeps=MAX_SWEEPS, tol=COORD_TOL):
        p = b.shape[0]
        if p <= self.PYTHON_KERNEL_MAX_P:
            return self._solve_python(float(lam), b, max_sweeps, tol)
        gram, c, diag = self.gram, self.c, self.diag
        for _ in range(max_sweeps):
            delta = 0.0
            for j in range(p):
                rho = c[j] - gram[j] @ b + diag[j] * b[j]
                new = _soft_threshold(rho, lam) / diag[j]
                if new != b[j]:
                    delta = max(delta, abs(new - b[j]))
                    b[j] = new
            if delta < tol:
                return self.ybar, b
        raise NonConvergence("gaussian coordinate descent did not converge")

    def _solve_python(self, lam, b, max_sweeps, tol):
        p = b.shape[0]
        bl = [float(v) for v in b]
        gram, c, diag = self._gram_rows, self._c_list, self._diag_list
        rng_p = range(p)
        for _ in range(max_sweeps):
            delta = 0.0
            for j in rng_p:
                row = gram[j]
                dot = 0.0
                for l in rng_p:
                    dot += row[l] * bl[l]
                rho = c[j] - dot + diag[j] * bl[j]
                if rho > lam:
                    new = (rho - lam) / diag[j]
                elif rho < -lam:
                    new = (rho + lam) / diag[j]
                else:
                    new = 0.0
                if new != bl[j]:
                    d = new - bl[j]
                    if d < 0:
                        d = -d
                    if d > delta:
                        delta = d
                    bl[j] = new
            if delta < tol:
                b[:] = bl
                return self.ybar, b
        raise NonConvergence("gaussian coordinate descent did not converge")


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


def _destandardize(b0, b, means, sds):
    beta = b / sds
    intercept = b0 - float((b * (means / sds)).sum())
    return np.concatenate([[intercept], beta])


def _path_standardized(xs, y, family, w, lambdas):
    """Warm-started path on standardized columns; returns (b0s, B)."""
    p = xs.shape[1]
    b0s = np.empty(len(lambdas))
    B = np.empty((len(lambdas), p))
    b0, b = 0.0, np.zeros(p)
    solver = _GaussianCd(xs, y, w) if family is GlmFamily.GAUSSIAN else None
    for i, lam in enumerate(lambdas):
        if solver is not None:
            b0, b = solver.solve(lam, b)
        else:
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
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    y = np.asarray(y, dtype=float)
    w = _normalized_weights(weights, y.shape[0])
    xs, means, sds, _ = _standardize(x, w)
    b = np.zeros(x.shape[1])
    if family is GlmFamily.GAUSSIAN:
        b0, b = _GaussianCd(xs, y, w).solve(lam, b)
    else:
        b0, b = _lasso_binomial(xs, y, w, lam, 0.0, b)
    return _destandardize(b0, b, means, sds)


def lasso_path(x, y, family: GlmFamily, lambdas, weights=None):
    """Warm-started coefficient path; returns (coefs, train_deviance).

    `coefs[i]` is the original-scale coefficient vector at `lambdas[i]`
    (descending penalties expected).
    """
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


def _prediction_loss(family, y, mu, w):
    if family is GlmFamily.GAUSSIAN:
        return float(np.sum(w * (y - mu) ** 2) / w.sum())
    return family.deviance(y, mu, w) / float(w.sum())


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
