"""Data-adaptive variable selection (Step 1a): lasso with a cross-validated
penalty path and forward stepwise by AIC, each naming the columns it keeps.
Its callers run Step 1b, the unpenalized `fit_ml` on `_refit_columns`'
indices that restores the prediction unbiasedness identity.

Lasso internals: columns are standardized to unit (population) variance,
the intercept is never penalized, and coefficients are reported on the
original scale. The Gaussian path is piecewise linear in the penalty and
is computed exactly by a homotopy (LARS with the lasso modification) on the
Gram matrix: at each knot the active block's Cholesky factor gains a row
(a column enters) or is rebuilt (one leaves), then every grid penalty on
that segment is written at once. Both kernels update that one factor: up to
PY_PATH_MAX_WIDTH columns the homotopy runs on Python floats, above that on
numpy arrays.
A Gaussian `lasso_cv` needs no pass over the rows per fold: each fit's Gram
matrix and c, and its test loss at every penalty (a quadratic form), come
from per-fold weighted moments of [x, y] taken once. Binomial paths run
IRLS along the grid from secant guesses, each step a penalized weighted
least-squares problem solved exactly on the warm active set (a proximal
Newton step), or by the homotopy on the p x p working Gram matrix where the
active set or a sign changes; `lasso_cv` walks the K fold fits and the
full-data fit through the grid as one stack, one batched solve a step. The
grid starts at lam_max, where every coefficient is zero, so `lasso_cv`
selects nothing at index 0 whatever rounding leaves on a binomial path.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from operator import mul
from typing import Annotated, Literal

import numpy as np

from .data import FoldCount, _zero_variance, make_folds
from .errors import AtLeast, ConfigError, NonConvergence, Separation, Singular, _check, _read
from .glm import GlmFamily, _as_design, expit, fit_ml

COORD_TOL = 1e-9
KNOTS_PER_COLUMN = 20
MAX_OUTER = 200
PATH_POINTS = 100
PATH_MIN_RATIO = 1e-4
# widest design whose Gaussian path runs on Python floats: per path (n=200,
# 2-vCPU x86 VM, median of 7 runs of 20 paths) numpy vs Python took
# 145-263/52-67 us at p=3, 522-765/410-516 at 12, 1302/1484-1490 at 20,
# 1595-1794/2245-2794 at 24 and 3436-3509/11152-11572 at 44. The crossover
# is a little under 20; staying at 20 keeps every narrower design's path,
# and so its last bits, on the kernel it has always used.
PY_PATH_MAX_WIDTH = 20


LambdaRule = Literal["1se", "min"]


@dataclass(frozen=True)
class SelectionConfig:
    """How data_adaptive and tmle select each arm's columns (a plan's
    `selection`): `lasso_cv` with `k_cv` folds and `lambda_rule`,
    `stepwise_aic` adding at most `max_terms` columns, or `none`."""

    method: Literal["lasso_cv", "stepwise_aic", "none"] = "lasso_cv"
    k_cv: FoldCount = 5
    lambda_rule: LambdaRule = "1se"
    max_terms: Annotated[int, AtLeast(0)] | None = None

    __post_init__ = _check


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a selection run. `selected_columns` excludes any forced
    columns (those are appended at refit time)."""

    selected_columns: tuple[str, ...]
    path_diagnostics: dict | None = None
    dropped_zero_variance: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()


def _column_names(names, p: int) -> tuple[str, ...]:
    """`names` as a tuple, or x0, x1, ... for p unnamed columns."""
    return tuple(names) if names is not None else tuple(f"x{j}" for j in range(p))


def _normalized_weights(weights, n):
    if weights is None:
        return np.ones(n)
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("lasso weights must be positive")
    return w * (n / w.sum())


def _standardize(x, w, rows=slice(None)):
    """Every row of x on the scale that gives `rows` (weighted by w) mean 0
    and unit population variance; a constant column becomes 0."""
    n = w.shape[0]
    means = (w[:, None] * x[rows]).sum(axis=0) / n
    centered = x - means
    sds = np.sqrt((w[:, None] * centered[rows] ** 2).sum(axis=0) / n)
    degenerate = _zero_variance(means, sds)
    sds = np.where(degenerate, 1.0, sds)
    xs = centered / sds
    xs[:, degenerate] = 0.0
    return xs, means, sds, degenerate


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
    from the Gram matrix G = xs'W xs / n and c = xs'W(y - ybar) / n: the
    Python-float homotopy up to PY_PATH_MAX_WIDTH columns, numpy above."""
    if c.shape[0] <= PY_PATH_MAX_WIDTH:
        return _gaussian_path_py(gram, c, lambdas)
    return _gaussian_path_np(gram, c, lambdas)


def _gaussian_path_np(gram, c, lambdas):
    """The homotopy on numpy arrays.

    LARS with the lasso modification (Efron et al. 2004): between knots the
    active coefficients are b_A(lam) = u - lam v with u = G_AA^-1 c_A and
    v = G_AA^-1 s_A, so each segment is written to every grid point it
    covers at once. The next knot is the largest lam below the current one
    where an inactive correlation a + lam e reaches +-lam from inside, or
    where an active coefficient moving toward zero reaches it.

    As in `_gaussian_path_py`, G_AA = L L' is kept through its Cholesky
    factor L. With k active columns, the first k rows of T, Linv and W hold
    L^-1 G_A. (every column), L^-1, and (cu, sv) = L^-1 (c_A, s_A); S holds
    s_A. Then a = c - cu'T, e = sv'T, (u, v) = Linv'(cu, sv), and each
    column's Schur complement against the active set, G_jj minus the sum of
    its squares in T, is kept as a running difference. An entering column
    appends one row to each, O(k p) work, with no solve; after a column
    leaves, the others enter again from scratch. Candidates are ranked as
    in the Python kernel, ties to the lower index. Columns with a zero Gram
    diagonal, or with a Schur complement of at most 1e-10 G_jj (inside the
    active span), never enter; so an exact copy of an active column stays at
    zero.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    neg = -lambdas  # ascending, for searchsorted
    p = c.shape[0]
    diag = np.diag(gram)
    usable = diag > 0
    B = np.zeros((lambdas.shape[0], p))
    if not usable.any():
        return B
    T, Linv, W, S = np.zeros((p, p)), np.zeros((p, p)), np.zeros((p, 2)), np.zeros(p)
    active, schur, tiny = [], diag.copy(), 1e-10 * diag
    plus_minus = np.array([[1.0], [-1.0]])

    def admit(j, sign):
        k = len(active)
        t = T[:k, j]
        d = math.sqrt(schur[j])
        T[k] = (gram[j] - t @ T[:k]) / d
        W[k] = (np.array((c[j], sign)) - t @ W[:k]) / d
        Linv[k, :k] = -(t @ Linv[:k, :k]) / d
        Linv[k, k] = 1.0 / d
        np.subtract(schur, T[k] ** 2, out=schur)
        schur[j] = 0.0  # an active column never enters again
        S[k] = sign
        active.append(j)

    first = int(np.argmax(np.where(usable, np.abs(c), -1.0)))
    lam = abs(float(c[first]))
    admit(first, 1.0 if c[first] > 0 else -1.0)
    i = int(np.searchsorted(neg, -lam, side="right"))  # points at lam_max and above stay zero
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(KNOTS_PER_COLUMN * (p + 1)):
            k = len(active)
            u, v = (Linv[:k, :k].T @ W[:k]).T
            ce, e = W[:k].T @ T[:k]
            free = usable & (schur > tiny)
            # row 0 reaches +lam, row 1 -lam; only a positive denominator
            # crosses from inside, and a root at or above lam enters at once (ties)
            den = 1.0 - plus_minus * e
            roots = plus_minus * (c - ce) / den
            enter = np.where(free & (den > 0) & (roots > 0), np.minimum(roots, lam), 0.0).ravel()
            hits = u / v
            leave = np.where((v * S[:k] < 0) & (hits > 0), np.minimum(hits, lam), 0.0)
            j, k = int(enter.argmax()), int(leave.argmax())
            knot = max(float(enter[j]), float(leave[k]))
            i1 = int(np.searchsorted(neg, -knot, side="right"))
            B[i:i1, active] = u - lambdas[i:i1, None] * v
            if i1 == lambdas.shape[0] or knot <= 0.0:
                return B
            i, lam = i1, knot
            if leave[k] >= enter[j]:
                # never the last one: a lone coefficient moves away from 0
                kept = [pair for n, pair in enumerate(zip(active, S.tolist())) if n != k]
                active.clear()
                schur[:] = diag
                for col, sign in kept:
                    admit(col, sign)
            else:
                admit(j % p, 1.0 if j < p else -1.0)
    raise NonConvergence("gaussian lasso path did not reach the end of the grid")


def _backward(L, t):
    """Solve L' x = t for lower-triangular L given as a list of rows."""
    x = []
    for i in range(len(t) - 1, -1, -1):
        x.insert(0, (t[i] - sum(map(mul, [row[i] for row in L[i + 1:]], x))) / L[i][i])
    return x


def _gaussian_path_py(gram, c, lambdas):
    """`_gaussian_path_np` on Python floats, where per-call numpy overhead
    outweighs the arithmetic. G_AA = L L' is kept as the rows of its Cholesky
    factor L, with cu = L^-1 c_A, sv = L^-1 s_A and, for each inactive column,
    t_j = L^-1 G_Aj: then a_j = c_j - t_j'cu, e_j = t_j'sv and the Schur
    complement is G_jj - t_j't_j. An entering column appends the row
    (t_j, sqrt(G_jj - t_j't_j)) to L and one element to each solve; after a
    column leaves, the others enter again from scratch. Candidates are ranked
    as in the numpy kernel, ties to the lower index."""
    G, c, lams = gram.tolist(), c.tolist(), np.asarray(lambdas, dtype=float).tolist()
    neg = [-lam for lam in lams]
    p, n_lam = len(c), len(lams)
    usable = [j for j in range(p) if G[j][j] > 0.0]
    if not usable:
        return np.zeros((n_lam, p))

    def admit(a, sign):
        t = T.pop(a)
        d = math.sqrt(G[a][a] - sum(map(mul, t, t)))
        cu.append((c[a] - sum(map(mul, t, cu))) / d)
        sv.append((sign - sum(map(mul, t, sv))) / d)
        for j, tj in T.items():
            tj.append((G[a][j] - sum(map(mul, t, tj))) / d)
        L.append(t + [d])

    first = max(usable, key=lambda j: abs(c[j]))
    lam = abs(c[first])
    active, signs = [first], [1.0 if c[first] > 0 else -1.0]
    L, cu, sv, T = [], [], [], {j: [] for j in usable}
    admit(first, signs[0])
    i = bisect.bisect_right(neg, -lam)  # points at lam_max and above stay zero
    # grid points i..i1 of a segment get u - lam v, written out at the end
    us, vs, counts = [[0.0] * p], [[0.0] * p], [i]
    for _ in range(KNOTS_PER_COLUMN * (p + 1)):
        u, v = _backward(L, cu), _backward(L, sv)
        # entering: index j reaches +lam, p + j reaches -lam, as in the numpy kernel
        enter, j_in = 0.0, 0
        for j, tj in T.items():
            if G[j][j] - sum(map(mul, tj, tj)) <= 1e-10 * G[j][j]:
                continue  # in the span of the active columns
            a_j = c[j] - sum(map(mul, tj, cu))
            e_j = sum(map(mul, tj, sv))
            for idx, num, den in ((j, a_j, 1.0 - e_j), (p + j, -a_j, 1.0 + e_j)):
                if den > 0.0 and num / den > 0.0:
                    root = min(num / den, lam)
                    if root > enter or (root == enter and idx < j_in):
                        enter, j_in = root, idx
        leave, k_out = 0.0, 0
        for k, (uk, vk, sk) in enumerate(zip(u, v, signs)):
            if vk * sk < 0.0 and uk / vk > 0.0 and min(uk / vk, lam) > leave:
                leave, k_out = min(uk / vk, lam), k
        knot = max(enter, leave)
        i1 = bisect.bisect_right(neg, -knot)
        us.append([0.0] * p)
        vs.append([0.0] * p)
        counts.append(i1 - i)
        for a, uk, vk in zip(active, u, v):
            us[-1][a], vs[-1][a] = uk, vk
        if i1 == n_lam or knot <= 0.0:
            grid = np.asarray(lambdas, dtype=float)[:, None]
            return np.repeat(us, counts, axis=0) - grid * np.repeat(vs, counts, axis=0)
        i, lam = i1, knot
        if leave >= enter:
            active.pop(k_out)  # never the last one: a lone coefficient moves away from 0
            signs.pop(k_out)
            L, cu, sv, T = [], [], [], {j: [] for j in usable}
            for a, sign in zip(active, signs):
                admit(a, sign)
        else:
            active.append(j_in % p)
            signs.append(1.0 if j_in < p else -1.0)
            admit(active[-1], signs[-1])
    raise NonConvergence("gaussian lasso path did not reach the end of the grid")


def _solve_stack(lhs, rhs):
    """np.linalg.solve on a stack of systems, with NaNs for a singular one."""
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        if lhs.shape[0] == 1:
            return np.full_like(rhs, np.nan)
        return np.concatenate([_solve_stack(a[None], r[None]) for a, r in zip(lhs, rhs)])


def _binomial_paths(xs, y, W, lambdas):
    """Logistic lasso paths of m fits sharing the outcome y: fit k has
    standardized columns xs[k] (n x p) and row weights W[k], zero on the rows
    it leaves out. Returns (b0s, B) of shapes (m, L) and (m, L, p).

    At each penalty the fits run IRLS together from a secant guess: 2 b(lam_i-1)
    - b(lam_i-2) for a coefficient or intercept of one sign at both, b(lam_i-1)
    otherwise. A step profiles out the intercept by centering on the working
    weights v and solves the penalized least squares on G = xc'V xc / n_k
    exactly on each fit's warm active set A with signs s, G_AA b_A = c_A - lam s_A,
    in one batched solve. A fit keeps b if its signs are s and |c_j - G_jA b_A|
    <= lam off A, which makes b the step's minimizer; otherwise the homotopy
    `_gaussian_path` solves the step at lam alone. A fit leaves once no
    coefficient moves by COORD_TOL, so each fit gets the iterates it would get
    alone. Grid point 0 may keep about 1e-16 where lam_max is exactly on the KKT
    bound; `lasso_cv` selects nothing there."""
    m, _, p = xs.shape
    counts = (W > 0).sum(axis=1).astype(float)
    b0s, B = np.empty((m, len(lambdas))), np.empty((m, len(lambdas), p))
    b0, b = np.zeros(m), np.zeros((m, p))
    for i, lam in enumerate(np.asarray(lambdas, dtype=float).tolist()):
        if i >= 2:
            for now, before in ((b0, b0s[:, i - 2]), (b, B[:, i - 2])):
                np.copyto(now, 2.0 * now - before, where=now * before > 0.0)
        live = np.arange(m)
        for _ in range(MAX_OUTER):
            xl, bl = xs[live], b[live]
            eta = b0[live, None] + (xl @ bl[:, :, None])[:, :, 0]
            mu = np.clip(expit(eta), 1e-5, 1.0 - 1e-5)
            var = mu * (1.0 - mu)
            v = W[live] * var
            z = eta + (y - mu) / var
            vsum = v.sum(axis=1)
            xbar = (v[:, None, :] @ xl)[:, 0] / vsum[:, None]
            zbar = (v * z).sum(axis=1) / vsum
            xc = xl - xbar[:, None, :]
            xv = (xc * v[:, :, None]).transpose(0, 2, 1)
            gram = xv @ xc / counts[live, None, None]
            c = (xv @ (z - zbar[:, None])[:, :, None])[:, :, 0] / counts[live, None]
            signs = np.sign(bl)
            active = signs != 0.0
            lhs = np.where(active[:, :, None] & active[:, None, :], gram, np.eye(p))
            new_b = _solve_stack(lhs, np.where(active, c - lam * signs, 0.0)[:, :, None])[:, :, 0]
            # a column with G_jj = 0 has c_j = 0, so it meets the bound
            kkt = np.abs(c - (gram @ new_b[:, :, None])[:, :, 0]) <= lam
            exact = ((np.sign(new_b) == signs) & (active | kkt)).all(axis=1)
            for k in np.flatnonzero(~exact).tolist():
                new_b[k] = _gaussian_path(gram[k], c[k], [lam])[0]
            new_b0 = zbar - (xbar * new_b).sum(axis=1)
            moved = np.maximum(np.abs(new_b0 - b0[live]), np.abs(new_b - bl).max(axis=1, initial=0.0))
            b0[live], b[live] = new_b0, new_b
            live = live[moved >= COORD_TOL]
            if live.size == 0:
                break
        else:
            raise NonConvergence("binomial lasso did not converge")
        b0s[:, i], B[:, i] = b0, b
    return b0s, B


def lasso_path(x, y, family: GlmFamily, lambdas, weights=None):
    """Coefficient path over descending penalties; returns (coefs, train_deviance).

    `coefs[i]` is the original-scale coefficient vector at `lambdas[i]`.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if np.any(np.diff(lambdas) > 0) or np.any(lambdas < 0):
        raise ConfigError("lasso_path needs a non-increasing grid of non-negative penalties")
    x = _as_design(x)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    w = _normalized_weights(weights, n)
    xs, means, sds, _ = _standardize(x, w)
    if family is GlmFamily.GAUSSIAN:
        ybar = float((w * y).sum() / n)
        b0s = np.full(len(lambdas), ybar)
        B = _gaussian_path(xs.T @ (xs * w[:, None]) / n, xs.T @ (w * (y - ybar)) / n, lambdas)
    else:
        b0s, B = (a[0] for a in _binomial_paths(xs[None], y, w[None], lambdas))
    coefs = np.column_stack(
        [b0s - B @ (means / sds), B / sds[None, :]]
    )
    mu = family.inv_link(b0s[None, :] + xs @ B.T)  # (n, n_lambda)
    return coefs, family.deviance(y, mu, w)


def _fold_moments(x, y, w, folds):
    """Standardized Gram matrices G, vectors c and column scales 1/sd of the
    K training folds and of the full sample (last), with their means of z
    and each fit's test moments, from weighted sums in one pass over the rows.

    z = [x, y] is centered once on its full-sample weighted means (w sums to
    n), so no sum depends on a column's origin. Test fold k gives the moment
    matrix M_k = sum of w (1, z)(1, z)' over its rows; a training fold adds up
    the other folds' matrices, and the full sample all of them. A column is
    constant in a training fold when its smallest value there equals its
    largest, or by `_zero_variance` on its moments; it gets a zero Gram row
    and scale.
    """
    n, p = x.shape
    z = np.column_stack([np.ones(n), x, y])
    center = w @ z / n
    center[0] = 0.0
    z -= center
    order = np.argsort(folds.assignments, kind="stable")
    bounds = np.cumsum(np.bincount(folds.assignments))  # 0, then each fold's end
    z = z[order]
    wz = z * w[order, None]
    tests = np.array([wz[a:b].T @ z[a:b] for a, b in zip(bounds[:-1], bounds[1:])])
    lo, hi = np.minimum.reduceat(z, bounds[:-1]), np.maximum.reduceat(z, bounds[:-1])
    fits = np.vstack([1.0 - np.eye(folds.k), np.ones(folds.k)])  # the folds each fit trains on
    trains = (fits @ tests.reshape(folds.k, -1)).reshape(-1, p + 2, p + 2)
    m = trains[:, 0, 1:] / trains[:, :1, 0]
    cov = trains[:, 1:, 1:] / trains[:, :1, :1] - m[:, :, None] * m[:, None, :]
    inside = fits[:, :, None] > 0
    flat = np.where(inside, lo, np.inf).min(axis=1) == np.where(inside, hi, -np.inf).max(axis=1)
    sd = np.sqrt(np.maximum(np.diagonal(cov, axis1=1, axis2=2), 0.0))[:, :p]
    flat = flat[:, 1:p + 1] | _zero_variance(center[1:p + 1] + m[:, :p], sd)
    scale = np.where(flat, 0.0, 1.0 / np.where(flat, 1.0, sd))
    grams = cov[:, :p, :p] * scale[:, :, None] * scale[:, None, :]
    return grams, cov[:, :p, p] * scale, scale, m, np.concatenate([tests, trains[-1:]])


def _gaussian_cv(grams, cs, scale, means, tests, lambdas):
    """Fold test losses (K, L), full-data training deviance (L,) and the
    full-data standardized path (L, p) from `_fold_moments`: at standardized
    coefficients b a fit's residual is h'(1, z) with h = (-g'm, g) and
    g = (-b/sd, 1), so its weighted squared error on the test rows is h'M h."""
    B = np.stack([_gaussian_path(gram, c, lambdas) for gram, c in zip(grams, cs)])
    g = np.concatenate([-B * scale[:, None, :], np.ones(B.shape[:2] + (1,))], axis=2)
    h = np.concatenate([-(g @ means[:, :, None]), g], axis=2)
    sse = ((h @ tests) * h).sum(axis=2)
    return sse[:-1] / tests[:-1, :1, 0], sse[-1], B[-1]


def _binomial_cv(x, y, weights, w_full, folds, lambdas):
    """Fold test deviances per unit weight (K, L), full-data training
    deviance (L,) and the full-data standardized path (L, p): the K fold
    fits and the full-data fit walk the grid as one stack."""
    n, k_cv = x.shape[0], folds.k
    # a slice, not an index array, keeps x's memory layout and so its sums' bits
    trains = [folds.complement_indices(k) for k in range(1, k_cv + 1)] + [slice(None)]
    ws = [_normalized_weights(None if weights is None else np.asarray(weights)[rows], rows.size)
          for rows in trains[:-1]] + [w_full]
    xs = np.stack([_standardize(x, w, rows)[0] for rows, w in zip(trains, ws)])
    W = np.zeros((k_cv + 1, n))
    for k, (rows, w) in enumerate(zip(trains, ws)):
        W[k, rows] = w  # zero on the rows the fit leaves out
    b0s, B = _binomial_paths(xs, y, W, lambdas)
    fold_losses = np.empty((k_cv, PATH_POINTS))
    for k in range(k_cv + 1):
        rows = folds.fold_indices(k + 1) if k < k_cv else trains[k]
        mu = expit(b0s[k][None, :] + xs[k][rows] @ B[k].T)  # (rows, n_lambda)
        dev = GlmFamily.BINOMIAL.deviance(y[rows], mu, w_full[rows])
        if k < k_cv:
            fold_losses[k] = dev / w_full[rows].sum()
    return fold_losses, dev, B[-1]  # the last fit is the full-data one


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
    k_cv: FoldCount = 5,
    seed: int = 0,
    weights=None,
    lambda_rule: LambdaRule = "1se",
    column_names=None,
) -> SelectionResult:
    """Lasso over a 100-point log-spaced penalty path with K-fold CV.

    The penalty is chosen by the one-standard-error rule by default
    (`lambda_rule="min"` picks the CV minimizer). Zero-variance columns are
    excluded from the candidates and reported in `dropped_zero_variance`; a
    column identical to an earlier one is excluded without being reported.
    """
    _read(FoldCount, k_cv, "k_cv")
    _read(LambdaRule, lambda_rule, "lambda_rule")
    x = _as_design(x)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    names = _column_names(column_names, p)
    w_full = _normalized_weights(weights, n)

    _, _, _, degenerate = _standardize(x, w_full)
    dropped = tuple(name for name, flat in zip(names, degenerate) if flat)
    keep = ~degenerate
    first = {}
    for j in np.flatnonzero(keep):
        # copies tie at every knot, so rounding would pick the one that enters;
        # only the first of identical columns stays a candidate
        keep[j] = first.setdefault(x[:, j].tobytes(), j) == j
    x_eff = x[:, keep]
    names_eff = tuple(name for name, ok in zip(names, keep) if ok)

    def skipped(note):
        return SelectionResult((), {"lambdas": [], "note": note}, dropped)

    if x_eff.shape[1] == 0:
        return skipped("no usable candidates")
    ybar = float(w_full @ y) / n
    if _zero_variance(ybar, math.sqrt(float(w_full @ (y - ybar) ** 2) / n)):
        return skipped("outcome has no variance")

    folds = make_folds(n, k_cv, z=None, seed=seed, stratified=False)
    if family is GlmFamily.GAUSSIAN:
        moments = _fold_moments(x_eff, y, w_full, folds)
        lam_max = float(np.abs(moments[1][-1]).max())  # the full-data path's own c
    else:
        lam_max = lasso_lambda_max(x_eff, y, family, weights)
    if lam_max == 0.0:
        return skipped("no candidate correlates with the outcome")
    lambdas = np.geomspace(lam_max, lam_max * PATH_MIN_RATIO, PATH_POINTS)
    if family is GlmFamily.GAUSSIAN:
        fold_losses, train_dev, beta = _gaussian_cv(*moments, lambdas)
    else:
        fold_losses, train_dev, beta = _binomial_cv(x_eff, y, weights, w_full, folds, lambdas)

    cv_mean = fold_losses.mean(axis=0)
    cv_se = fold_losses.std(axis=0, ddof=1) / math.sqrt(k_cv)
    idx_min = int(np.argmin(cv_mean))
    if lambda_rule == "min":
        chosen = idx_min
    else:
        cutoff = cv_mean[idx_min] + cv_se[idx_min]
        chosen = int(np.flatnonzero(cv_mean <= cutoff)[0])

    # lam_max zeroes every coefficient, whatever rounding leaves on a binomial path
    selected = tuple(name for name, b in zip(names_eff, beta[chosen]) if b != 0.0) if chosen else ()
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
    return SelectionResult(selected, diagnostics, dropped, warnings)


def stepwise_aic(
    x,
    y,
    family: GlmFamily,
    max_terms: int | None = None,
    column_names=None,
) -> SelectionResult:
    """Forward selection minimizing AIC = deviance + 2 * (number of
    coefficients). Ties break toward the lower column index; candidates
    whose fit separates or is singular are skipped at that step."""
    x = _as_design(x)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    names = _column_names(column_names, p)
    if max_terms is None:
        max_terms = p
    if max_terms > p:
        raise ConfigError("max_terms cannot exceed the number of candidates")

    constant = _zero_variance(x.mean(axis=0), x.std(axis=0))
    usable = [j for j in range(p) if not constant[j]]
    dropped = tuple(names[j] for j in range(p) if constant[j])

    current: list[int] = []
    base = fit_ml(None, y, family)
    best_aic = base.deviance + 2.0
    while len(current) < max_terms:
        best_j, best_candidate_aic = None, best_aic
        for j in usable:
            if j in current:
                continue
            cols = current + [j]
            try:
                fit = fit_ml(x[:, cols], y, family)
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
    return SelectionResult(selected, None, dropped, warnings)


def _refit_columns(names, selected: SelectionResult, forced=()):
    """The selected then the forced column names, deduplicated in that order,
    and their indices in `names`: Step 1b's design is x[:, indices], and an
    empty union gives the intercept-only fit."""
    chosen = list(dict.fromkeys(tuple(selected.selected_columns) + tuple(forced)))
    index = {name: j for j, name in enumerate(names)}
    missing = [name for name in chosen if name not in index]
    if missing:
        raise ConfigError(f"refit columns not in candidates: {missing}")
    return chosen, [index[name] for name in chosen]
