"""Data-adaptive variable selection (Step 1a): lasso with a cross-validated
penalty path and forward stepwise by AIC, each naming the columns it keeps.
Its callers run Step 1b, the unpenalized `fit_ml` on `_refit_columns`'
indices that restores the prediction unbiasedness identity.

Lasso internals: columns are standardized to unit (population) variance,
the intercept is never penalized, and coefficients are reported on the
original scale. The Gaussian path is piecewise linear in the penalty and
is computed exactly by one homotopy, `_gaussian_paths` (LARS with the lasso
modification on the Gram matrix), for a stack of fits at once: at each knot
a column enters or leaves by a rank-one update of the inverse active Gram
block, and every grid penalty on that segment is written at once.
A Gaussian `lasso_cv` needs no pass over the rows per fold: each fit's Gram
matrix and c, and its test loss at every penalty (a quadratic form), come
from per-fold weighted moments of [x, y] taken once. Binomial paths run
IRLS along the grid, each penalty from a cubic, quadratic or secant
extrapolation of the last solutions; a step's working Gram matrix and score
come from one weighted moment product of [1, x, z], z the working response,
and it is solved exactly on the warm active set (a proximal Newton step), or
by the homotopy where the active set or a sign changes. A penalty ends when a step
moves no coefficient by IRLS_MOVE_TOL, or when Newton's quadratic rate
bounds the next move of an exact step well below it. `lasso_cv`
walks the K fold fits and the full-data fit through the grid as one stack,
for either family: one homotopy, or one moment product and one batched
solve an IRLS step. `lasso_cvs` runs many problems at once, and those of
one family and column count share one stack, each fit on its own
problem's grid: an estimate's lassos (both arms of data_adaptive and tmle,
every post_lasso training of a cross-fit) are one stack; if it fails, each
problem is replayed alone when its caller reaches it. A binomial stack
runs a step's elementwise work once, each problem's rows zero-padded to
the longest problem's, and its two sums over rows (the linear predictor
and the moment product) per problem on its own rows, so each fit gets the
bits it gets alone. The grid starts at lam_max, where every coefficient is
zero, so `lasso_cv` selects nothing at index 0. `_stepwise` also hands its
caller the last winning fit, the unweighted Step 1b refit on its selection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated, Iterator, Literal

import numpy as np

from .data import FoldCount, _column_moments, _zero_variance, make_folds
from .errors import AtLeast, ConfigError, DataError, EstimationError, NonConvergence, Separation
from .errors import Singular, TrialcraftError, _check, _read, _set_fields
from .glm import GlmFamily, _as_design, _fitted, _solve, expit, fit_ml, fit_mls

# a binomial fit ends a penalty once a step moves no coefficient by this, or
# once Newton's rate bounds its next move below a tenth of it (`_binomial_paths`)
IRLS_MOVE_TOL = 1e-9
MAX_NEWTON_RATE = 1e6  # the largest rate that bound trusts, also before any is measured
# the most IRLS steps a fit's last penalty may take for its next to start from the
# cubic (`_binomial_paths`); without it, comparison problem 90052 does not converge
CUBIC_MAX_STEPS = 2
KNOTS_PER_COLUMN = 20
MAX_IRLS_STEPS = 200
PATH_POINTS = 100
PATH_MIN_RATIO = 1e-4
SIGNS = np.array([0.0, 1.0, -1.0])  # a column's sign after a knot of each kind


LambdaRule = Literal["1se", "min"]
# the fields of SelectionConfig each method reads, by keyword
METHOD_READS = {"lasso_cv": ("k_cv", "lambda_rule"), "stepwise_aic": ("max_terms",), "none": ()}


@dataclass(frozen=True)
class SelectionConfig:
    """How data_adaptive and tmle select each arm's columns (a plan's
    `selection`): `lasso_cv` with `k_cv` folds and `lambda_rule`,
    `stepwise_aic` adding at most `max_terms` columns, or `none`. A field
    its method does not read must keep its default."""

    method: Literal["lasso_cv", "stepwise_aic", "none"] = "lasso_cv"
    k_cv: FoldCount = 5
    lambda_rule: LambdaRule = "1se"
    max_terms: Annotated[int, AtLeast(0)] | None = None

    def __post_init__(self) -> None:
        _check(self)
        for name in _set_fields(self):
            if name not in ("method", *METHOD_READS[self.method]):
                raise ConfigError(f"{name}: method {self.method!r} does not read it")


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


def _gaussian_paths(grams, cs, lambdas):
    """Exact Gaussian lasso paths of a stack of m fits, each at its own
    descending penalties, from each fit's Gram matrix G = xs'W xs / n and
    c = xs'W(y - ybar) / n: (m, p, p), (m, p) and a grid per fit (m, L)
    in; (m, L, p) out.

    LARS with the lasso modification (Efron et al. 2004): between knots a
    fit's active coefficients are b_A(lam) = u - lam v, (u, v) = G_AA^-1
    (c_A, s_A), so a segment covers every grid point down to the next knot at
    once. That knot is the largest lam below the current one where an
    inactive c_j - (G u)_j + lam (G v)_j reaches +-lam from inside, or an
    active coefficient moving toward zero reaches 0; ties go to a leaving
    coefficient, then to the lower column. Each fit keeps G_AA^-1 and
    G G_AA^-1, zero off the active columns, and each column's Schur
    complement against the active set: a column j entering or leaving is one
    rank-one update of all three, by x = (G_AA^-1 G_Aj - e_j) / sqrt(schur_j)
    or x = G_AA^-1 e_j / sqrt((G_AA^-1)_jj), and nothing is rebuilt.
    A column with a zero Gram diagonal, or a Schur complement of at most
    1e-10 G_jj (in the active span), never enters, so an exact copy of an
    active column stays at zero. A fit leaves the stack at the end of its
    grid; every operation, the count of its grid points at or above a knot
    among them, acts on each fit alone, so it gets the same bits in any
    stack: `lasso_cvs` stacks every fit of an estimate's Gaussian lassos.
    """
    m, p = cs.shape
    n_lam = lambdas.shape[1]
    diag = grams.diagonal(axis1=1, axis2=2)
    k = np.arange(m)
    top = np.where(diag > 0, np.abs(cs), -1.0)
    col = top.argmax(axis=1)  # the first column to enter, with the sign of its c
    kind = 2 - (cs[k, col] > 0)  # col leaves (0) or enters with sign + (1) or - (2)
    lam = top[k, col]

    def reached(grids, lam):  # each fit's grid points at lam and above; all of them at NaN
        return n_lam - (grids < lam[:, None]).sum(axis=1)

    start = reached(lambdas, lam)  # points at lam_max and above stay zero
    grids = lambdas
    ids, G, schur, tiny = k, grams, diag.copy(), np.where(diag > 0, 1e-10 * diag, np.inf)
    H = np.zeros((m, 2 * p, p))  # [G_AA^-1; G G_AA^-1], zero off the active columns
    rhs = np.concatenate([cs[:, :, None], np.zeros((m, p, 1))], axis=2)  # (c, s), s = 0 off A
    # each segment's (m,) ends and (m, p, 2) values (u, v), first the zeros before the start
    ends, segments = [start], [np.zeros((m, p, 2))]
    live, knots_left = start < n_lam, KNOTS_PER_COLUMN * (p + 1)
    n_live = np.count_nonzero(live)
    while n_live:
        if n_live < ids.size:
            ids, G, H, rhs, schur, tiny, lam, kind, col, grids = (
                a[live] for a in (ids, G, H, rhs, schur, tiny, lam, kind, col, grids))
            k = np.arange(n_live)
        if not knots_left:
            raise NonConvergence("gaussian lasso path did not reach the end of the grid")
        knots_left -= 1
        # xg = (x, G x); an entering column adds xg x' to H and takes (G x)^2 off
        # the Schur complements, a leaving one takes xg x' off and adds (G x)^2
        g = G[k, col]
        xg = (H @ g[:, :, None])[:, :, 0]
        xg[:, p:] -= g
        xg[k, col] = -1.0
        d = schur[k, col]
        out = kind == 0
        leaving = np.count_nonzero(out) > 0
        if leaving:
            xg[out], d[out] = H[k[out], :, col[out]], H[k[out], col[out], col[out]]
        xg /= np.sqrt(d)[:, None]
        sxg = np.where(out, -1.0, 1.0)[:, None] * xg if leaving else xg
        H += sxg[:, :, None] * xg[:, None, :p]
        schur -= sxg[:, p:] * xg[:, p:]
        schur[k, col] = schur[k, col] * out if leaving else 0.0  # active: never enters again
        rhs[k, col, 1] = SIGNS[kind]
        if leaving:
            H[k[out], col[out]] = H[k[out], :, col[out]] = 0.0
            schur[out] *= rhs[out, :, 1] == 0.0  # nor do the others, whatever rounding
        uv_ae = H @ rhs  # (u, v) = G_AA^-1 (c, s) and (a, e) = G (u, v)
        uv, r = uv_ae[:, :p], uv_ae[:, p:] - rhs  # r = (a - c, e) off the active set
        # knots at lam = num / den where both are negative, from (num, den) of
        # row 0: (s u, s v), b_j reaching 0; rows 1, 2: (a - c, e - 1) and
        # (c - a, -e - 1), c_j - a_j + lam e_j reaching +lam and -lam
        nd = np.concatenate([(rhs[:, :, 1:] * uv)[:, None], r[:, None], -r[:, None]], axis=1)
        nd[:, 1:, :, 1] -= 1.0
        np.copyto(nd[:, 1:, :, 0], np.inf, where=(schur <= tiny)[:, None])  # may not enter
        hits = np.zeros((n_live, 3, p))
        np.divide(nd[..., 0], nd[..., 1], out=hits, where=nd[..., 1] < 0.0)
        hits = np.minimum(hits, lam[:, None, None]).reshape(n_live, 3 * p)
        pick = hits.argmax(axis=1)  # ties: a leaving column, then the lower column
        lam = hits[k, pick]
        kind, col = np.divmod(pick, p)
        i1 = reached(grids, lam)
        live = i1 < n_lam
        if n_live < m:
            i1_all, uv_all = np.full(m, n_lam), np.zeros((m, p, 2))
            i1_all[ids], uv_all[ids] = i1, uv
            i1, uv = i1_all, uv_all
        ends.append(i1)
        segments.append(uv)
        n_live = np.count_nonzero(live)
    # grid point l of a fit lies on the fit's segment t with ends[t - 1] <= l < ends[t]
    grid = np.arange(n_lam)
    t = (np.array(ends)[:, :, None] <= grid).sum(axis=0)
    segments = np.array(segments)
    u, v = (segments[..., j][t, np.arange(m)[:, None]] for j in (0, 1))
    v *= lambdas[:, :, None]
    u -= v  # u - lam v, in place
    return u


def _binomial_paths(blocks, lambdas):
    """Logistic lasso paths of a stack of m fits, each at its own descending
    penalties (m, L), from the row blocks of the problems they fit: a block
    (xs, y, W) holds m_j fits of one outcome y over its n_j rows, fit k
    with standardized columns xs[k] (n_j x p) and row weights W[k], zero on
    the rows it leaves out. Returns (b0s, B) of shapes (m, L) and (m, L, p).

    At each penalty the fits run IRLS together from a guess on the grid,
    which is evenly spaced in log lam: the cubic 4 b(lam_i-1) - 6 b(lam_i-2)
    + 4 b(lam_i-3) - b(lam_i-4) for a coefficient or intercept of one sign at
    all four when the guess keeps that sign and the fit's last penalty took
    at most CUBIC_MAX_STEPS steps; else 3 b(lam_i-1) - 3 b(lam_i-2) +
    b(lam_i-3) for one of one sign at the last three when the guess keeps
    that sign; 2 b(lam_i-1) - b(lam_i-2) for one of one sign at the last
    two; b(lam_i-1) otherwise. A step writes the working response z beside
    each fit's rows [1, xs] and takes one batched moment product
    M = [1, xs]'V [1, xs, z], V the working weights over the fit's row count
    n_k. Row 0 of M, t, holds sum(v) and the weighted sums of x and z;
    profiling out the intercept b0 = zbar - xbar'b leaves the Gram matrix G
    and score c as S - t t'/sum(v), S the rest of M. The step is solved
    exactly on each fit's warm active set A with signs s_A, G_AA b_A =
    c_A - lam s_A, in one `glm._solve` (NaN for a singular G_AA). A fit
    keeps b if its signs are s_A and |c_j - G_jA b_A| <= lam off A, which
    makes b the step's minimizer; the fits where it does not solve the step
    at lam by `_gaussian_paths`, as one stack.
    A fit's move d_k is the largest change of its (b0, b) at step k, and its
    Newton rate r = d_k / d_(k-1)^2 comes from its last two moves at one
    penalty, carried to the next (+inf before the first). A fit ends the
    penalty when d_k < IRLS_MOVE_TOL or, past grid point 0, when its step
    was exact (kept, no homotopy) and min(r, MAX_NEWTON_RATE) d_k^2 <
    IRLS_MOVE_TOL / 10: quadratic convergence puts its next move an order of
    magnitude below the tolerance. Its later steps are dropped, so each fit
    gets the iterates it would get alone. Grid point 0 may keep about 1e-16
    at lam_max; `lasso_cv` selects nothing there.
    The elementwise work of a step runs once on the stack, each block's rows
    zero-padded at the end to the longest block. The two sums over rows, the
    linear predictor [1, xs] b and M, run per block on its own rows: a
    padded product rounds differently. So each fit gets the bits it gets
    alone, in any stack: `lasso_cvs` stacks every binomial problem of an
    estimate with the same column count."""
    lambdas = np.asarray(lambdas, dtype=float)
    sizes = [xs.shape[0] for xs, _, _ in blocks]
    m, n, p = sum(sizes), max(xs.shape[1] for xs, _, _ in blocks), blocks[0][0].shape[2]
    Y, W = np.zeros((m, n)), np.zeros((m, n))  # each fit's outcome and weights, padded
    starts, parts = np.cumsum([0] + sizes[:-1]), []  # parts: each block's fits, n_j and rows
    for (xs, y, w), start, size in zip(blocks, starts.tolist(), sizes):
        fits, n_j = slice(start, start + size), xs.shape[1]
        Y[fits, :n_j] = y
        W[fits, :n_j] = w / (w > 0).sum(axis=1, keepdims=True)  # each fit's weights over n_k
        rows = np.concatenate([np.ones((size, n_j, 1)), xs, np.zeros((size, n_j, 1))], axis=2)
        parts.append((fits, n_j, rows, np.ascontiguousarray(rows[:, :, :p + 1].transpose(0, 2, 1))))
    eta, M = np.zeros((m, n)), np.empty((m, p + 1, p + 2))
    path = np.empty((m, lambdas.shape[1], p + 1))
    beta = np.zeros((m, p + 1))  # each fit's (b0, b)
    rate = np.full(m, np.inf)  # each fit's Newton rate, d_k / d_(k-1)^2 of its moves d
    eye = np.eye(p)
    for i, lam in enumerate(lambdas.T[:, :, None]):  # each fit's penalty, (m, 1)
        if i >= 2:
            older = path[:, i - 2]
            kept = beta * older > 0.0
            guess = 2.0 * beta - older
            if i >= 3:
                oldest = path[:, i - 3]
                kept3 = kept & (older * oldest > 0.0)  # of one sign at the last three
                quad = 3.0 * (beta - older) + oldest
                np.copyto(guess, quad, where=kept3 & (quad * beta > 0.0))
                if i >= 4:  # `taken` holds each fit's IRLS steps at penalty i - 1
                    cubic = 4.0 * (beta + oldest) - 6.0 * older - path[:, i - 4]
                    np.copyto(guess, cubic, where=kept3 & (oldest * path[:, i - 4] > 0.0)
                              & (cubic * beta > 0.0) & (taken <= CUBIC_MAX_STEPS)[:, None])
            np.copyto(beta, guess, where=kept)
        live, taken = np.ones(m, dtype=bool), np.zeros(m, dtype=int)
        for step in range(MAX_IRLS_STEPS):
            taken += live
            # a block none of whose fits is live is done with the penalty
            on = [part for part, any_live in
                  zip(parts, np.logical_or.reduceat(live, starts).tolist()) if any_live]
            for fits, n_j, _, rows_t in on:
                eta[fits, :n_j] = (beta[fits, None, :] @ rows_t)[:, 0]
            mu = np.minimum(np.maximum(expit(eta), 1e-5), 1.0 - 1e-5)  # .clip, one call cheaper
            var = mu * (1.0 - mu)
            z = eta + (Y - mu) / var
            wv = W * var
            for fits, n_j, rows, rows_t in on:
                rows[:, :, -1] = z[fits, :n_j]
                np.matmul(rows_t * wv[fits, None, :n_j], rows, out=M[fits])
            gc = M[:, 1:, 1:] - M[:, 1:, :1] * M[:, :1, 1:] / M[:, :1, :1]
            gram, c = gc[:, :, :p], gc[:, :, p]
            signs = np.sign(beta[:, 1:])
            active = signs != 0.0
            lhs = np.where(active[:, :, None] & active[:, None, :], gram, eye)
            new_b = _solve(lhs, np.where(active, c - lam * signs, 0.0)[:, :, None])[0][:, :, 0]
            # a column with G_jj = 0 has c_j = 0, so it meets the bound
            kkt = np.abs(c - (gram @ new_b[:, :, None])[:, :, 0]) <= lam
            exact = ((np.sign(new_b) == signs) & (active | kkt)).all(axis=1)
            bad = live & ~exact
            if np.count_nonzero(bad):
                new_b[bad] = _gaussian_paths(gram[bad], c[bad], lam[bad])[:, 0]
            b0 = (M[:, 0, -1] - (M[:, 0, 1:-1] * new_b).sum(axis=1)) / M[:, 0, 0]
            new = np.concatenate([b0[:, None], new_b], axis=1)
            move = np.abs(new - beta).max(axis=1)
            np.copyto(beta, new, where=live[:, None])
            if step:  # a live fit's last move was at least IRLS_MOVE_TOL
                np.divide(move, last * last, out=rate, where=live)
            last = move
            done = move < IRLS_MOVE_TOL
            if i:  # the next move is about rate * move^2
                done |= exact & (np.minimum(rate, MAX_NEWTON_RATE) * move**2 < 0.1 * IRLS_MOVE_TOL)
            live &= ~done
            if not np.count_nonzero(live):
                break
        else:
            raise NonConvergence("binomial lasso did not converge")
        path[:, i] = beta
    return path[:, :, 0], path[:, :, 1:]


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
        gram, c = xs.T @ (xs * w[:, None]) / n, xs.T @ (w * (y - ybar)) / n
        B = _gaussian_paths(gram[None], c[None], lambdas[None])[0]
    else:
        b0s, B = (a[0] for a in _binomial_paths([(xs[None], y, w[None])], lambdas[None]))
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


def _binomial_fits(x, y, weights, w_full, folds):
    """A binomial `lasso_cv`'s row block for `_binomial_paths`: the K fold
    fits and the full-data fit (last), their standardized columns
    (K + 1, n, p), the outcome and their row weights (K + 1, n), zero on the
    rows a fit leaves out."""
    n, k_cv = x.shape[0], folds.k
    # a slice, not an index array, keeps x's memory layout and so its sums' bits
    trains = [folds.complement_indices(k) for k in range(1, k_cv + 1)] + [slice(None)]
    ws = [_normalized_weights(None if weights is None else np.asarray(weights)[rows], rows.size)
          for rows in trains[:-1]] + [w_full]
    xs = np.stack([_standardize(x, w, rows)[0] for rows, w in zip(trains, ws)])
    W = np.zeros((k_cv + 1, n))
    for k, (rows, w) in enumerate(zip(trains, ws)):
        W[k, rows] = w
    return xs, y, W


def _binomial_losses(xs, y, w_full, folds, b0s, B):
    """Fold test deviances per unit weight (K, L), full-data training
    deviance (L,) and the full-data standardized path (L, p) from the paths
    (b0s, B) of `_binomial_fits`' stack."""
    k_cv = folds.k
    fold_losses = np.empty((k_cv, PATH_POINTS))
    for k in range(k_cv + 1):
        rows = folds.fold_indices(k + 1) if k < k_cv else slice(None)
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


def _lasso_problem(x, y, family: GlmFamily, k_cv: FoldCount = 5, seed: int = 0, weights=None,
                   lambda_rule: LambdaRule = "1se", column_names=None):
    """`lasso_cv`'s checks and preparation of one problem: its SelectionResult
    when it skips the path, else its family, its fits (a Gaussian problem's
    `_fold_moments`, a binomial one's `_binomial_fits` row block), its grid
    and `finish`. A Gaussian `finish` makes the result from the fold test
    losses (K, L), the full-data training deviance (L,) and the full-data
    standardized path (L, p); a binomial one from the fits' paths (b0s, B)."""
    _read(FoldCount, k_cv, "k_cv")
    _read(LambdaRule, lambda_rule, "lambda_rule")
    x = _as_design(x)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    if n == 0:
        raise DataError("lasso_cv: no rows")
    names = _column_names(column_names, p)
    w_full = _normalized_weights(weights, n)

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        _, means, sds, degenerate = _standardize(x, w_full)
        ybar = float(w_full @ y) / n
        y_sd = math.sqrt(float(w_full @ (y - ybar) ** 2) / n)
    if not (np.isfinite(means).all() and np.isfinite(sds).all()):  # not a constant column
        raise EstimationError("lasso_cv: weighted moments overflow float64; rescale the data")
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
    if math.isfinite(y_sd) and _zero_variance(ybar, y_sd):  # an overflow is not a constant
        return skipped("outcome has no variance")

    folds = make_folds(n, k_cv, z=None, seed=seed, stratified=False)
    if family is GlmFamily.GAUSSIAN:
        with np.errstate(over="ignore", invalid="ignore"):
            moments = _fold_moments(x_eff, y, w_full, folds)
        if not (np.isfinite(moments[0]).all() and np.isfinite(moments[-1]).all()):  # G, tests
            raise EstimationError("lasso_cv: weighted moments overflow float64; rescale the data")
        lam_max = float(np.abs(moments[1][-1]).max())  # the full-data path's own c
    else:
        block = _binomial_fits(x_eff, y, weights, w_full, folds)
        xs = block[0][-1]  # lasso_lambda_max on the full-data fit's standardized columns
        lam_max = float(np.abs(xs.T @ (w_full * (y - (w_full * y).sum() / n)) / n).max())
    if lam_max == 0.0:
        return skipped("no candidate correlates with the outcome")
    lambdas = np.geomspace(lam_max, lam_max * PATH_MIN_RATIO, PATH_POINTS)

    def finish(fold_losses, train_dev, beta):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            cv_mean = fold_losses.mean(axis=0)
            cv_se = fold_losses.std(axis=0, ddof=1) / math.sqrt(k_cv)
        if not (np.isfinite(fold_losses).all() and np.isfinite(cv_se).all()):
            raise EstimationError("lasso_cv: cross-validation losses overflow float64; "
                                  "rescale the data")
        idx_min = int(np.argmin(cv_mean))
        if lambda_rule == "min":
            chosen = idx_min
        else:
            cutoff = cv_mean[idx_min] + cv_se[idx_min]
            chosen = int(np.flatnonzero(cv_mean <= cutoff)[0])
        # lam_max zeroes every coefficient, whatever rounding leaves on a binomial path
        selected = (tuple(name for name, b in zip(names_eff, beta[chosen]) if b != 0.0)
                    if chosen else ())
        diagnostics = {
            "lambdas": lambdas.tolist(),
            "cv_mean": cv_mean.tolist(),
            "cv_se": cv_se.tolist(),
            "train_deviance": train_dev.tolist(),
            "chosen_index": chosen,
            "chosen_lambda": float(lambdas[chosen]),
            "lambda_rule": lambda_rule,
        }
        warnings = _support_warning(len(selected), n, p)
        return SelectionResult(selected, diagnostics, dropped, warnings)

    if family is GlmFamily.GAUSSIAN:
        return family, moments, lambdas, finish
    return family, block, lambdas, lambda b0s, B: finish(
        *_binomial_losses(block[0], y, w_full, folds, b0s, B))


def _lasso_stacks(problems) -> list[SelectionResult]:
    """`lasso_cvs`' stacks, run at once: a list of results. At standardized
    coefficients b a Gaussian fit's residual is h'(1, z), h = (-g'm, g) and
    g = (-b/sd, 1), so its weighted squared error on its test rows
    (`_fold_moments`' M) is h'M h, one stacked quadratic form for every fit."""
    results = [_lasso_problem(**problem) for problem in problems]
    stacks = {}
    for i, result in enumerate(results):
        if isinstance(result, tuple):  # (family, fits, grid, finish)
            family, fits = result[:2]
            stacks.setdefault((family, fits[0].shape[-1]), []).append(i)
    for (family, _), members in stacks.items():
        sizes = [results[i][1][0].shape[0] for i in members]  # K + 1 fits each
        grids = np.repeat([results[i][2] for i in members], sizes, axis=0)
        ends = np.cumsum(sizes)
        if family is GlmFamily.BINOMIAL:
            b0s, B = _binomial_paths([results[i][1] for i in members], grids)
            for i, size, end in zip(members, sizes, ends):
                results[i] = results[i][3](b0s[end - size:end], B[end - size:end])
            continue
        grams, cs, scale, means, tests = (
            np.concatenate(parts) for parts in zip(*(results[i][1] for i in members)))
        B = _gaussian_paths(grams, cs, grids)
        full = B[ends - 1]  # each problem's full-data path
        # the stack's (m, L, p + 2) temporaries set its memory peak: each is
        # freed once used, and h'M h is formed in place
        g = np.concatenate([-B * scale[:, None, :], np.ones(B.shape[:2] + (1,))], axis=2)
        del B
        h = np.concatenate([-(g @ means[:, :, None]), g], axis=2)
        del g
        sse = h @ tests
        sse *= h
        sse = sse.sum(axis=2)
        loss = sse / tests[:, :1, 0]  # per unit test weight; the last fit of each is the full data
        for i, size, end, beta in zip(members, sizes, ends, full):
            results[i] = results[i][3](loss[end - size:end - 1], sse[end - 1], beta)
    return results


def lasso_cvs(problems) -> Iterator[SelectionResult]:
    """`lasso_cv` on each of an iterable of problems, each a dict of its
    keyword arguments: an iterator of the SelectionResult `lasso_cv` gives
    each alone. Each problem is checked and prepared in turn, and the fits of
    all problems of one family and column count walk one stack, each on its
    problem's grid. If that raises a TrialcraftError, each problem instead
    runs alone when reached: a caller acting on each result in turn meets
    the error a loop of `lasso_cv` meets first."""
    problems = list(problems)
    try:
        return iter(_lasso_stacks(problems))
    except TrialcraftError:
        return (_lasso_stacks([problem])[0] for problem in problems)


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
    A column whose weighted mean or SD overflows float64 is an
    EstimationError, and so is a CV loss or its standard error that
    overflows. `lasso_cvs` runs many problems at once.
    """
    return _lasso_stacks([dict(x=x, y=y, family=family, k_cv=k_cv, seed=seed, weights=weights,
                               lambda_rule=lambda_rule, column_names=column_names)])[0]


def stepwise_aic(
    x,
    y,
    family: GlmFamily,
    max_terms: int | None = None,
    column_names=None,
) -> SelectionResult:
    """Forward selection minimizing AIC = deviance + 2 * (number of
    coefficients). At each step the remaining candidates' fits walk one
    `fit_mls` stack; ties break toward the lower column index, and a
    candidate whose own fit separates, is singular or does not converge is
    skipped at that step. A column whose mean or SD overflows float64 is an
    EstimationError. `_stepwise` returns the last winning fit beside it."""
    return _stepwise(x, y, family, max_terms, column_names)[0]


def _stepwise(x, y, family: GlmFamily, max_terms=None, column_names=None):
    """`stepwise_aic`'s result and its last winning fit (the intercept-only one
    if no column enters), bit for bit `fit_ml` on the selected columns."""
    x = _as_design(x)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    names = _column_names(column_names, p)
    if max_terms is None:
        max_terms = p
    if max_terms > p:
        raise ConfigError("max_terms cannot exceed the number of candidates")

    means, sds = _column_moments(x, "stepwise_aic", names)
    constant = _zero_variance(means, sds)
    usable = [j for j in range(p) if not constant[j]]
    dropped = tuple(names[j] for j in range(p) if constant[j])

    current: list[int] = []
    best = fit_ml(None, y, family)
    best_aic = best.deviance + 2.0
    while len(current) < max_terms:
        candidates = [j for j in usable if j not in current]
        fits = fit_mls([(x[:, current + [j]], y) for j in candidates], family)
        best_j, best_candidate_aic = None, best_aic
        for j, fit in zip(candidates, fits):
            if isinstance(fit, (Separation, Singular, NonConvergence)):
                continue
            aic = _fitted(fit).deviance + 2.0 * (len(current) + 2)
            if aic < best_candidate_aic - 1e-12:
                best_j, best_candidate_aic, best_fit = j, aic, fit
        if best_j is None:
            break
        current.append(best_j)
        best_aic, best = best_candidate_aic, best_fit

    selected = tuple(names[j] for j in current)
    warnings = _support_warning(len(selected), n, p)
    return SelectionResult(selected, None, dropped, warnings), best


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
