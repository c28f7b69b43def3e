"""Canonical generalized linear models fitted by IRLS or least squares.

Two families are supported, each with its canonical link: gaussian/identity
and binomial/logit. Maximum-likelihood fits satisfy the weighted score
equations sum_i w_i c_ij (y_i - mu_i) = 0 for every design column c_j
(including the intercept); that identity is what makes the standardization
estimators robust to model misspecification, so it is the contract this
module is built around. Least-squares fitting of the logistic model is
provided for the minimal-MSE (empirical efficiency maximization) route and
deliberately does NOT satisfy the score equations.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonConvergence, Separation, Singular

DEVIANCE_RTOL = 1e-10
MAX_IRLS_ITERATIONS = 100
MAX_GAUSS_NEWTON_ITERATIONS = 200
SEPARATION_BOUND = 30.0
MU_FLOOR = 1e-10
SEPARATION_ETA = math.log((1.0 - MU_FLOOR) / MU_FLOOR)


def expit(eta: np.ndarray) -> np.ndarray:
    """Numerically stable inverse logit: 1 / (1 + e) where eta >= 0 and
    e / (1 + e) below, with e = exp(-|eta|) never overflowing."""
    eta = np.asarray(eta, dtype=float)
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


def logit(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    return np.log(p) - np.log1p(-p)


class GlmFamily(enum.Enum):
    """A family and its canonical link; a plan may name it by its value or
    by the family alone (`GlmFamily("gaussian")`)."""

    GAUSSIAN = "gaussian_identity"
    BINOMIAL = "binomial_logit"

    @classmethod
    def _missing_(cls, value):
        return {"gaussian": cls.GAUSSIAN, "binomial": cls.BINOMIAL}.get(value)

    def link(self, mu: np.ndarray) -> np.ndarray:
        if self is GlmFamily.GAUSSIAN:
            return np.asarray(mu, dtype=float)
        return logit(mu)

    def inv_link(self, eta: np.ndarray) -> np.ndarray:
        if self is GlmFamily.GAUSSIAN:
            return np.asarray(eta, dtype=float)
        return expit(eta)

    def deviance(self, y: np.ndarray, mu: np.ndarray, weights: np.ndarray):
        """Weighted deviance; a 2-D `mu` (a column per fit) gives one per column."""
        if np.ndim(mu) == 2:
            y, weights = y[:, None], weights[:, None]
        if self is GlmFamily.GAUSSIAN:
            dev = (weights * (y - mu) ** 2).sum(axis=0)
        else:
            mu = np.clip(mu, MU_FLOOR, 1.0 - MU_FLOOR)
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = np.where(y > 0, y * (np.log(y) - np.log(mu)), 0.0)
                t0 = np.where(y < 1, (1 - y) * (np.log1p(-y) - np.log1p(-mu)), 0.0)
            dev = 2.0 * (weights * (t1 + t0)).sum(axis=0)
        return dev if np.ndim(mu) == 2 else float(dev)


@dataclass(frozen=True)
class GlmFit:
    """A fitted GLM, its coefficients matched to the design's columns by
    position, the intercept first when built by `fit_ml`/`fit_least_squares`
    (`has_intercept`). Only a converged fit is returned; `iterations` counts
    its IRLS or Gauss-Newton steps."""

    family: GlmFamily
    coefficients: np.ndarray
    iterations: int
    deviance: float
    has_intercept: bool = True


def _as_design(x: np.ndarray | None, n: int | None = None) -> np.ndarray:
    if x is None:
        if n is None:
            raise DimensionMismatch(
                "cannot infer number of rows; pass an (n, 0) matrix for intercept-only fits"
            )
        return np.empty((n, 0))
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    return x


def _prepare(x, y, weights, offset):
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    x = _as_design(x, n)
    if x.shape[0] != n:
        raise DimensionMismatch(f"x has {x.shape[0]} rows but y has {n}")
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape[0] != n:
            raise DimensionMismatch("weights length must match y")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
    if offset is None:
        off = np.zeros(n)
    else:
        off = np.asarray(offset, dtype=float)
        if off.shape[0] != n:
            raise DimensionMismatch("offset length must match y")
    return x, y, w, off


def _solve_wls(design: np.ndarray, w: np.ndarray, target: np.ndarray) -> np.ndarray:
    xtwx = design.T @ (design * w[:, None])
    try:
        np.linalg.cholesky(xtwx)
        return np.linalg.solve(xtwx, design.T @ (w * target))
    except np.linalg.LinAlgError:
        raise Singular("rank-deficient weighted design matrix") from None


def _start_mean(y, family, w):
    ybar = float(np.sum(w * y) / np.sum(w)) if np.sum(w) > 0 else float(np.mean(y))
    if family is GlmFamily.BINOMIAL:
        ybar = min(max(ybar, 1e-6), 1.0 - 1e-6)
    return ybar


def _check_diverged(family, design, y, offset, w, coef, converged):
    """Flag a logistic fit on separated data: the linear predictor runs off
    (its weighted mean or standard deviation exceeds SEPARATION_BOUND), or
    both outcome classes are present and every fitted probability is pinned
    at the MU_FLOOR clip. Both read the linear predictor, so they do not
    depend on the covariates' units or origins.

    The MU_FLOOR clip sits at |eta| = SEPARATION_ETA (about 23); past it the
    likelihood no longer moves, so IRLS stops wherever the clip stalls the
    deviance. A mean or standard deviation above 30 needs some row with
    |eta| > 30, beyond the clip, which a fit the data determine does not
    reach. A single-class outcome (an arm with no events) pins every
    probability at the clip with a finite intercept (about -24.8) and is a
    valid fit, so it is not flagged."""
    if family is GlmFamily.BINOMIAL:
        eta = design @ coef
        center = float(w @ eta) / w.sum()
        spread = math.sqrt(float(w @ (eta - center) ** 2) / w.sum())
        ybar = float(w @ y) / w.sum()
        pinned = 0.0 < ybar < 1.0 and bool(
            np.all(np.abs(eta + offset)[w > 0] >= SEPARATION_ETA)
        )
        if max(abs(center), spread) > SEPARATION_BOUND or pinned:
            raise Separation("logistic linear predictor diverged; the data are likely separated")
    if not converged:
        raise NonConvergence("IRLS did not converge within the iteration budget")


def fit_ml_design(
    design: np.ndarray,
    y: np.ndarray,
    family: GlmFamily,
    weights: np.ndarray | None = None,
    offset: np.ndarray | None = None,
    has_intercept: bool = False,
) -> GlmFit:
    """Maximum-likelihood fit on an explicit design matrix (no implicit
    intercept). Building block for `fit_ml` and for the TMLE update models.
    """
    design, y, w, off = _prepare(design, y, weights, offset)
    n, q = design.shape
    if family is GlmFamily.BINOMIAL and (np.any(y < 0) or np.any(y > 1)):
        raise ValueError("binomial outcomes must lie in [0, 1]")

    coef = np.zeros(q)
    if has_intercept and q > 0:
        ybar = _start_mean(y, family, w)
        coef[0] = float(family.link(np.array([ybar]))[0])

    def fitted(c):  # the linear predictor, mean and deviance at coefficients c
        eta = design @ c + off
        mu = family.inv_link(eta)
        return eta, mu, family.deviance(y, mu, w)

    if q == 0:
        return GlmFit(family, coef, 0, fitted(coef)[2], has_intercept)

    dev_prev = np.inf
    iterations = 0
    eta = design @ coef + off
    mu = family.inv_link(eta)
    for iterations in range(1, MAX_IRLS_ITERATIONS + 1):
        if family is GlmFamily.BINOMIAL:
            mu = np.clip(mu, MU_FLOOR, 1.0 - MU_FLOOR)
            var = mu * (1.0 - mu)
        else:
            var = np.ones(n)
        w_work = w * var
        working = eta - off + (y - mu) / var
        new_coef = _solve_wls(design, w_work, working)

        # step-halve if the deviance increased (keeps separation paths tame)
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
    return GlmFit(family, coef, iterations, float(dev_prev), has_intercept)


def fit_ml(
    x: np.ndarray | None,
    y: np.ndarray,
    family: GlmFamily,
    weights: np.ndarray | None = None,
) -> GlmFit:
    """Fit y ~ 1 + x by maximum likelihood with the canonical link.

    The returned fit satisfies the weighted score equations sum_i w_i (1, x_i)
    (y_i - mu_i) = 0 to numerical tolerance. Raises Separation, Singular or
    NonConvergence instead of returning a silently bad fit.
    """
    y = np.asarray(y, dtype=float)
    x = _as_design(x, y.shape[0])
    design = np.column_stack([np.ones(y.shape[0]), x])
    return fit_ml_design(design, y, family, weights, has_intercept=True)


def fit_least_squares(
    x: np.ndarray | None,
    y: np.ndarray,
    family: GlmFamily,
    weights: np.ndarray | None = None,
) -> GlmFit:
    """Minimize sum_i w_i (y_i - g^{-1}(b0 + x_i b))^2.

    Identical to `fit_ml` for the gaussian family. For the logistic model
    this is a damped Gauss-Newton solve of the nonlinear least-squares
    problem; the prediction unbiasedness identity is NOT guaranteed.
    """
    if family is GlmFamily.GAUSSIAN:
        return fit_ml(x, y, family, weights)

    design, y, w, _ = _prepare(x, y, weights, None)
    design = np.column_stack([np.ones(y.shape[0]), design])
    coef = np.zeros(design.shape[1])
    coef[0] = float(logit(np.array([_start_mean(y, family, w)]))[0])

    def sse(c):  # the weighted squared error and the mean at coefficients c
        mu = expit(design @ c)
        return float(np.sum(w * (y - mu) ** 2)), mu

    current, mu = sse(coef)
    iterations = 0
    for iterations in range(1, MAX_GAUSS_NEWTON_ITERATIONS + 1):
        dmu = np.clip(mu * (1.0 - mu), MU_FLOOR, None)
        jac = design * dmu[:, None]
        delta = _solve_wls(jac, w, y - mu)
        step = 1.0
        trial = coef + delta
        value, trial_mu = sse(trial)
        while value > current + 1e-14 and step > 1e-10:
            step /= 2.0
            trial = coef + step * delta
            value, trial_mu = sse(trial)
        moved = np.max(np.abs(trial - coef))
        coef, mu = trial, trial_mu
        converged = abs(current - value) <= 1e-12 * (abs(value) + 1e-3) and moved < 1e-10
        current = value
        if converged:
            break

    _check_diverged(family, design, y, 0.0, w, coef, converged)
    return GlmFit(family, coef, iterations, current)


def predict(fit: GlmFit, x: np.ndarray) -> np.ndarray:
    """Response-scale predictions g^{-1}(b0 + x b).

    Intercept-only fits take an (n, 0) matrix so the row count is explicit.
    """
    slopes = fit.coefficients[1:] if fit.has_intercept else fit.coefficients
    q = slopes.shape[0]
    x = _as_design(x)
    if x.shape[1] != q:
        raise DimensionMismatch(
            f"fit expects {q} covariate columns, got {x.shape[1]}"
        )
    eta = np.full(x.shape[0], fit.coefficients[0]) if fit.has_intercept else np.zeros(x.shape[0])
    if q > 0:
        eta = eta + x @ slopes
    return fit.family.inv_link(eta)


def clamp_probabilities(p: np.ndarray):
    """Clamp probabilities into [0.01, 0.99]; returns (clamped, count clamped).

    Used before inverting propensity scores, honoring the positivity bound.
    """
    p = np.asarray(p, dtype=float)
    out = np.clip(p, 0.01, 0.99)
    return out, int(np.count_nonzero(out != p))
