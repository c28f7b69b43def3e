"""Pluggable prediction learners for the cross-fitting estimators.

A learner turns training rows into an immutable Predictor; the cross-fit
driver guarantees the training rows never include the evaluation fold, and
each learner is a pure function of (training data, seed). The shipped set
spans the cases the estimator theory cares about: a post-lasso canonical
GLM, a ridge shrinker, a genuinely nonparametric kNN, a constant (the
canonical "poor" predictor), and a deliberately misspecified main-effects
GLM for robustness experiments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated, Literal

import numpy as np

from .data import FoldCount, _zero_variance
from .errors import AtLeast, ConfigError, _check, _read, _section
from .glm import GlmFamily, GlmFit, _as_design, fit_ml, predict
from .selection import LambdaRule, SelectionResult, _column_names, _refit_columns, lasso_cv


class _ClampMixin:
    """Binomial-family predictions are forced into [0, 1]."""

    family: GlmFamily

    def _finalize(self, values: np.ndarray) -> np.ndarray:
        if self.family is GlmFamily.BINOMIAL:
            return np.clip(values, 0.0, 1.0)
        return values


@dataclass
class GlmPredictor(_ClampMixin):
    """A GLM fit on the design columns at indices `columns` (post_lasso's
    selection), or on every column when `columns` is None (wrong_model): `x`
    itself, as a selected copy is laid out in Fortran order and its product
    with the coefficients can then differ in the last bit."""

    fit: GlmFit
    family: GlmFamily
    columns: tuple[int, ...] | None = None

    def predict(self, x) -> np.ndarray:
        x = _as_design(x)
        if self.columns is not None:
            x = x[:, list(self.columns)]
        return self._finalize(predict(self.fit, x))


@dataclass
class PostLassoLearner:
    """Step 1a + Step 1b composed: lasso with CV penalty, then an
    unpenalized canonical ML refit on the selected support.

    The internal CV fold count is capped at the training size so the
    learner keeps working inside cross-fitting when a training arm gets
    small; below two rows selection is skipped and the refit is the
    training mean."""

    k_cv: FoldCount = 5
    lambda_rule: LambdaRule = "1se"
    name: str = field(default="post_lasso", init=False)

    __post_init__ = _check

    def train(self, x, y, family: GlmFamily, seed: int = 0):
        x = _as_design(x)
        if x.shape[0] >= 2:
            selection = lasso_cv(
                x, y, family, k_cv=min(self.k_cv, x.shape[0]), seed=seed,
                lambda_rule=self.lambda_rule,
            )
        else:
            selection = SelectionResult(())
        _, cols = _refit_columns(_column_names(None, x.shape[1]), selection)
        return GlmPredictor(fit_ml(x[:, cols], y, family), family, tuple(cols))


@dataclass
class RidgePredictor(_ClampMixin):
    intercept: float
    beta: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    family: GlmFamily

    def predict(self, x) -> np.ndarray:
        x = _as_design(x)
        xs = (x - self.means) / self.sds
        return self._finalize(self.intercept + xs @ self.beta)


def _cv_losses(xs, yc, lams, k_cv, seed):
    """Each penalty's summed squared CV error over `k_cv` folds drawn from
    `seed`, by one stacked solve per fold. The stacked matvec rounds as one
    matvec per penalty does; `betas @ x_test.T`, a gemm, would not."""
    assignment = np.random.default_rng(seed).permutation(len(yc)) % k_cv
    eye = np.eye(xs.shape[1])
    losses = np.zeros(len(lams))
    for k in range(k_cv):
        test = assignment == k
        train = ~test
        xbar = xs[train].mean(axis=0)
        x_train, x_test = xs[train] - xbar, xs[test] - xbar
        y_mean = yc[train].mean()
        gram, rhs = x_train.T @ x_train, x_train.T @ (yc[train] - y_mean)
        betas = np.linalg.solve(gram + lams[:, None, None] * eye, rhs[:, None])
        pred = y_mean + (x_test @ betas)[:, :, 0]
        losses += ((yc[test] - pred) ** 2).sum(axis=1)
    return losses


@dataclass
class RidgeLearner:
    """Closed-form gaussian ridge on standardized columns. The penalty is
    picked by K-fold CV over the grid, with one stacked solve of every
    penalty's system per fold; the losses, and so the pick, have the bits of
    one solve per penalty. Used on binomial outcomes it simply clamps the
    linear predictions into [0, 1] (the theory permits arbitrary, even
    misspecified, predictions)."""

    lambda_grid: tuple[float, ...] = tuple(np.geomspace(1e-4, 1e4, 25))
    k_cv: FoldCount = 5
    name: str = field(default="ridge", init=False)

    def __post_init__(self):
        _check(self)
        if not self.lambda_grid or not all(0.0 <= lam < math.inf for lam in self.lambda_grid):
            raise ConfigError("ridge needs a non-empty lambda_grid of finite non-negative values")

    def train(self, x, y, family: GlmFamily, seed: int = 0):
        x = _as_design(x)
        y = np.asarray(y, dtype=float)
        n, p = x.shape
        means = x.mean(axis=0)
        sds = x.std(axis=0)
        sds = np.where(_zero_variance(means, sds), 1.0, sds)
        xs = (x - means) / sds
        ybar = float(y.mean())
        yc = y - ybar
        lams = np.asarray(self.lambda_grid)
        if len(lams) == 1 or n < 2 * self.k_cv:
            lam = lams[0]
        else:
            lam = lams[int(np.argmin(_cv_losses(xs, yc, lams, self.k_cv, seed)))]
        beta = np.linalg.solve(xs.T @ xs + lam * np.eye(p), xs.T @ yc)
        return RidgePredictor(ybar, beta, means, sds, family)


@dataclass
class KnnPredictor(_ClampMixin):
    """The mean outcome of the k nearest training rows, on columns
    standardized by the training rows. A distance tie goes to the lower
    training row, and the neighbours are averaged in distance order: the
    bits of a full stable sort of each row's distances."""

    x_train: np.ndarray
    y_train: np.ndarray
    k: int
    means: np.ndarray
    sds: np.ndarray
    family: GlmFamily

    def predict(self, x) -> np.ndarray:
        x = _as_design(x)
        xq = (x - self.means) / self.sds
        xt = (self.x_train - self.means) / self.sds
        # squared Euclidean distances, (n_query, n_train)
        d2 = ((xq**2).sum(axis=1)[:, None] - 2.0 * xq @ xt.T + (xt**2).sum(axis=1)[None, :])
        # Any sort orders a row as the stable sort does if its k + 1 nearest
        # distances strictly increase; the other rows (a tie, a NaN) are
        # sorted stably.
        order = np.argsort(d2, axis=1)[:, : self.k + 1]
        near = d2[np.arange(len(d2))[:, None], order]
        increasing = near[:, 1:] > near[:, :-1]
        if not increasing.all():
            redo = ~increasing.all(axis=1)
            order[redo] = np.argsort(d2[redo], axis=1, kind="stable")[:, : self.k + 1]
        return self._finalize(self.y_train[order[:, : self.k]].mean(axis=1))


@dataclass
class KnnLearner:
    """k-nearest-neighbour mean outcome; k defaults to ceil(sqrt(n_train)).
    Standardization parameters come from the training rows only."""

    k: Annotated[int, AtLeast(1)] | None = None
    name: str = field(default="knn", init=False)

    __post_init__ = _check

    def train(self, x, y, family: GlmFamily, seed: int = 0):
        x = _as_design(x)
        y = np.asarray(y, dtype=float)
        n = x.shape[0]
        k = self.k if self.k is not None else math.ceil(math.sqrt(n))
        if k > n or n == 0:
            raise ConfigError(f"knn needs a training row and k <= n_train, got k={k}, n={n}")
        means = x.mean(axis=0)
        sds = x.std(axis=0)
        sds = np.where(_zero_variance(means, sds), 1.0, sds)
        return KnnPredictor(x.copy(), y.copy(), k, means, sds, family)


@dataclass
class ConstantPredictor(_ClampMixin):
    value: float
    family: GlmFamily

    def predict(self, x) -> np.ndarray:
        x = _as_design(x)
        return self._finalize(np.full(x.shape[0], self.value))


@dataclass
class ConstantLearner:
    """Predicts the training mean everywhere: the canonical misspecified
    predictor for robustness tests (cross-fit AIPW built on it collapses to
    roughly the unadjusted estimator)."""

    name: str = field(default="constant", init=False)

    def train(self, x, y, family: GlmFamily, seed: int = 0):
        return ConstantPredictor(float(np.asarray(y, dtype=float).mean()), family)


@dataclass
class WrongModelLearner:
    """Plain main-effects canonical GLM, no selection, no transformations.
    Deliberately misspecified whenever the data-generating process is not
    linear in the raw covariates."""

    name: str = field(default="wrong_model", init=False)

    def train(self, x, y, family: GlmFamily, seed: int = 0):
        x = _as_design(x)
        fit = fit_ml(x, y, family)
        return GlmPredictor(fit, family)


LEARNERS = {
    "post_lasso": PostLassoLearner,
    "ridge": RidgeLearner,
    "knn": KnnLearner,
    "constant": ConstantLearner,
    "wrong_model": WrongModelLearner,
}
LearnerName = Literal[tuple(LEARNERS)]


def get_learner(name: LearnerName, /, **params):
    """Resolve a learner by its config identifier; `params` set its fields,
    each read by the field's annotation as a plan's JSON is (errors._read)."""
    _read(LearnerName, name, "learner")
    return _section(params, LEARNERS[name], "plan.learner.params")
