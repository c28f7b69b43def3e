"""Canonical generalized linear models fitted by IRLS or least squares.

Two families are supported, each with its canonical link: gaussian/identity
and binomial/logit. Maximum-likelihood fits satisfy the weighted score
equations sum_i w_i c_ij (y_i - mu_i) = 0 for every design column c_j
(including the intercept); that identity is what makes the standardization
estimators robust to model misspecification, so it is the contract this
module is built around. Least-squares fitting of the logistic model is
provided for the minimal-MSE (empirical efficiency maximization) route and
deliberately does NOT satisfy the score equations.

The deviance has one formula, `_deviance_rows`, shared by
`GlmFamily.deviance` and the IRLS; its terms in the outcome alone (log y,
log1p(-y) and 1 - y for the binomial family) are computed once per fit.

There is one IRLS, `_irls`, and it fits a stack of problems of one shape
and memory layout at once, each with its own start, step-halving,
convergence test and outcome; each gets the bits it gets alone.
`fit_ml_design` (and so `fit_ml`) is a stack of one. `fit_mls` stacks many
`fit_ml` problems whose fits no lazily raised step separates, one stack per
shape: the candidates of a `stepwise_aic` step, the 2K trainings of a
`wrong_model` cross-fit and the per-fold propensity models of a
parametric-pi cross-fit. An arm refit, a `post_lasso` refit and a TMLE
update stay lone fits, as their callers interleave them with lassos whose
errors a failed stack replays. A fit whose X'WX, working response or
deviance is not finite ends at once, without a warning.

Every factorization and solve in the package goes through `_cholesky_refused`
and `_solve`, and their callers make a system they refuse Singular. A
refusal sets numpy's invalid flag, so each runs its batched gufunc with that
flag raising and checks members one by one only when it is raised.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatch, EstimationError, NonConvergence, Separation, Singular

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
        dev = _deviance(_outcome_terms(self, y), _clipped(self, mu), weights)
        return dev if np.ndim(mu) == 2 else float(dev)


def _clipped(family: GlmFamily, mu: np.ndarray) -> np.ndarray:
    """mu as the deviance and the IRLS weights take it: a binomial mean
    clipped into [MU_FLOOR, 1 - MU_FLOOR]."""
    if family is GlmFamily.GAUSSIAN:
        return mu
    return np.minimum(np.maximum(mu, MU_FLOOR), 1.0 - MU_FLOOR)  # np.clip, cheaper


def _outcome_terms(family: GlmFamily, y: np.ndarray) -> tuple:
    """The deviance's terms in y alone, computed once per fit: (y,) for the
    gaussian family; for the binomial, y, log y, log1p(-y) and 1 - y, the
    logs zeroed at y = 0 and y = 1, where y or 1 - y multiplies them."""
    if family is GlmFamily.GAUSSIAN:
        return (y,)
    with np.errstate(divide="ignore", invalid="ignore"):
        return y, np.where(y > 0, np.log(y), 0.0), np.where(y < 1, np.log1p(-y), 0.0), 1.0 - y


def _deviance_rows(terms: tuple, mu: np.ndarray, w: np.ndarray | None):
    """Each row's weighted deviance, from `_outcome_terms` and a `_clipped`
    mean, halved for the binomial family: the module's one deviance formula.
    `w` None is unit weights."""
    if len(terms) == 1:
        rows = (terms[0] - mu) ** 2
    else:
        y, log_y, log1m_y, one_minus_y = terms
        rows = y * (log_y - np.log(mu)) + one_minus_y * (log1m_y - np.log1p(-mu))
    return rows if w is None else w * rows


def _deviance(terms: tuple, mu: np.ndarray, w: np.ndarray):
    """The weighted deviance, `_deviance_rows` summed over axis 0."""
    dev = _deviance_rows(terms, mu, w).sum(axis=0)
    return dev if len(terms) == 1 else 2.0 * dev


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
        if (w < 0).any():
            raise ValueError("weights must be non-negative")
    if offset is None:
        off = np.zeros(n)
    else:
        off = np.asarray(offset, dtype=float)
        if off.shape[0] != n:
            raise DimensionMismatch("offset length must match y")
    return x, y, w, off


def _start_mean(y, family, w):
    total = np.add.reduce(w)
    ybar = float(np.add.reduce(w * y) / total) if total > 0 else float(np.mean(y))
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
        eta, total = design @ coef, w.sum()
        center = float(w @ eta) / total
        spread = math.sqrt(float(w @ (eta - center) ** 2) / total)
        ybar = float(w @ y) / total
        pinned = 0.0 < ybar < 1.0 and bool((np.abs(eta + offset)[w > 0] >= SEPARATION_ETA).all())
        if max(abs(center), spread) > SEPARATION_BOUND or pinned:
            raise Separation("logistic linear predictor diverged; the data are likely separated")
    if not converged:
        raise NonConvergence("IRLS did not converge within the iteration budget")


def _fit_stack(problems, family: GlmFamily) -> list:
    """`fit_ml_design` on each problem, a dict of its keyword arguments, as
    one stack: a list of each problem's outcome, the GlmFit or the error
    `fit_ml_design` raises on it alone. Problems of one shape and memory
    layout walk one `_irls` stack."""
    outcomes, stacks = [None] * len(problems), {}
    with np.errstate(all="ignore"):  # a non-finite fit ends in `_irls`, without a warning
        for i, problem in enumerate(problems):
            weights, offset = problem.get("weights"), problem.get("offset")
            try:
                design, y, w, off = _prepare(problem["design"], problem["y"], weights, offset)
                if family is GlmFamily.BINOMIAL and ((y < 0).any() or (y > 1).any()):
                    raise ValueError("binomial outcomes must lie in [0, 1]")
            except (EstimationError, ValueError) as exc:
                outcomes[i] = exc
                continue
            has_intercept, q = problem.get("has_intercept", False), design.shape[1]
            coef = np.zeros(q)
            if has_intercept and q > 0:
                coef[0] = float(family.link(np.array([_start_mean(y, family, w)]))[0])
            if q == 0:
                mu = _clipped(family, family.inv_link(design @ coef + off))
                dev = _deviance(_outcome_terms(family, y), mu, w)
                outcomes[i] = GlmFit(family, coef, 0, float(dev), has_intercept)
            else:
                stacks.setdefault((design.shape, _fortran(design)), []).append(
                    _Fit(i, design, y, w, off, weights is not None, offset is not None, coef,
                         has_intercept))
        for fits in stacks.values():
            for i, outcome in _irls(fits, family):
                outcomes[i] = outcome
    return outcomes


class _Fit(NamedTuple):
    """One problem of an `_irls` stack: its index among the stack's problems,
    its prepared arrays, whether it has weights and an offset, its start."""

    index: int
    design: np.ndarray
    y: np.ndarray
    w: np.ndarray
    off: np.ndarray
    weighted: bool
    offset: bool
    start: np.ndarray
    has_intercept: bool


def _irls(fits: list[_Fit], family: GlmFamily) -> list:
    """IRLS for a stack of fits of one shape, (n, q) with q >= 1, and one
    memory layout (a Fortran-ordered design's products round differently):
    each fit's (index, outcome), in the order they end. A step's work runs
    once on the stack; each fit keeps its own step-halving and convergence
    test, leaves the stack when it ends, and gets the bits it gets alone.
    Unit weights and a zero offset are left out of the arithmetic, which
    they would not change. A fit whose X'WX is refused by its Cholesky
    factorization or its solve is Singular; one whose X'WX, X'Wz or
    deviance is not finite ends at once as NonConvergence, the end IRLS
    would reach after its iteration budget."""
    binomial = family is GlmFamily.BINOMIAL
    fortran = _fortran(fits[0].design)  # then stacked as its C-ordered transpose
    x = _stacked([fit.design.T if fortran else fit.design for fit in fits])
    x = x.transpose(0, 2, 1) if fortran else x
    y = _stacked([fit.y for fit in fits])
    w = _stacked([fit.w for fit in fits]) if any(fit.weighted for fit in fits) else None
    off = _stacked([fit.off for fit in fits]) if any(fit.offset for fit in fits) else None
    coef = _stacked([fit.start for fit in fits])
    terms = _outcome_terms(family, y)

    def mean(c):  # each fit's linear predictor and `_clipped` mean at coefficients c
        eta = (x @ c[:, :, None])[:, :, 0]
        if off is not None:
            eta += off
        return eta, _clipped(family, expit(eta)) if binomial else eta

    def deviance(mu):  # each fit's deviance, a list
        dev = np.add.reduce(_deviance_rows(terms, mu, w), axis=1)
        return [2.0 * d for d in dev.tolist()] if binomial else dev.tolist()

    def gram(weights):  # each fit's X'WX; a fit it is refused or not finite for fails
        g = _weighted_gram(x, weights)
        for k in _cholesky_refused(g):
            failed[k] = Singular("rank-deficient weighted design matrix")
        for k in _not_finite(g):
            failed.setdefault(k, NonConvergence("IRLS weighted design matrix is not finite; "
                                                "rescale the data"))
        return g

    failed = {}  # position in the stack: the error its fit ends with at this step
    outcomes = []
    eta, mu = mean(coef)
    fixed = None if binomial else gram(w)  # a gaussian fit's weights stay w
    prev = [math.inf] * len(fits)  # each fit's deviance at its last step
    for iterations in range(1, MAX_IRLS_ITERATIONS + 1):
        if binomial:
            var = mu * (1.0 - mu)
            w_work, residual = var if w is None else w * var, (y - mu) / var
            xtwx = gram(w_work)
        else:
            w_work, residual, xtwx = w, y - mu, fixed
        working = eta + residual if off is None else eta - off + residual
        xtwz = _weighted_score(x, working if w_work is None else w_work * working)
        # a gaussian fit's deviance at this step is not finite when its X'Wz is not;
        # a binomial one's need not be, as the clip keeps an infinite eta's mean finite
        for k in _not_finite(xtwz) if binomial else ():
            failed.setdefault(k, NonConvergence("IRLS working response is not finite; "
                                                "rescale the data"))
        new, refused = _solve(xtwx, xtwz)  # a refused fit's coefficients and deviance are NaN
        new = new[:, :, 0]

        # step-halve a fit whose deviance increased (keeps separation paths tame)
        eta, mu = mean(new)
        dev = deviance(mu)
        halving = [k for k, d in enumerate(dev) if d > prev[k] + 1e-12 and k not in failed]
        if halving:
            direction, step = new - coef, [1.0] * len(fits)
        while halving:
            for k in halving:
                step[k] /= 2.0
            steps = np.array([step[k] for k in halving])[:, None]
            new[halving] = coef[halving] + steps * direction[halving]
            eta, mu = mean(new)
            dev = deviance(mu)
            halving = [k for k in halving if dev[k] > prev[k] + 1e-12 and step[k] > 1e-8]
        coef = new

        ended = []
        for k, d in enumerate(dev):
            if not math.isfinite(d) and k not in failed:
                # rounding can pass a singular X'WX through the Cholesky check
                failed[k] = (Singular("rank-deficient weighted design matrix") if k in refused
                             else NonConvergence("IRLS deviance is not finite; rescale the data"))
            converged = abs(d - prev[k]) <= DEVIANCE_RTOL * (abs(d) + 0.1)
            prev[k] = d
            if k in failed:
                ended.append(k)
                outcomes.append((fits[k].index, failed.pop(k)))
            elif converged or iterations == MAX_IRLS_ITERATIONS:
                ended.append(k)
                fit = fits[k]
                try:
                    _check_diverged(family, fit.design, fit.y, fit.off, fit.w, coef[k], converged)
                    outcome = GlmFit(family, coef[k].copy(), iterations, d, fit.has_intercept)
                except (Separation, NonConvergence) as exc:
                    outcome = exc
                outcomes.append((fit.index, outcome))
        if len(ended) == len(fits):
            return outcomes
        if ended:  # the fits left
            keep = [k for k in range(len(fits)) if k not in set(ended)]
            fits, prev = [fits[k] for k in keep], [prev[k] for k in keep]
            x, coef, fixed = x[keep], coef[keep], None if binomial else fixed[keep]
            eta, mu, y, w, off = (None if a is None else a[keep] for a in (eta, mu, y, w, off))
            terms = tuple(t[keep] for t in terms)


def _weighted_gram(x, v):
    """X'VX of each of a stack of designs x, unit weights when v is None; the
    copy keeps x's layout, as a product with v would."""
    return x.transpose(0, 2, 1) @ (x.copy(order="K") if v is None else x * v[:, :, None])


def _weighted_score(x, v):
    """X'v of each of a stack of designs x and vectors v, as (m, q, 1)."""
    return x.transpose(0, 2, 1) @ v[:, :, None]


def _not_finite(a) -> list[int]:
    """The members of a stack `a` (its first axis) holding an inf or a NaN."""
    if math.isfinite(np.add.reduce(a, axis=None)):  # then so is every term
        return []
    return np.flatnonzero(~np.isfinite(a).reshape(len(a), -1).all(axis=1)).tolist()


def _fortran(design) -> bool:
    """Whether a design is laid out in Fortran order only."""
    return design.flags.f_contiguous and not design.flags.c_contiguous


def _stacked(arrays) -> np.ndarray:
    """A C-contiguous stack of equally shaped arrays; a stack of one is a
    view of a C-contiguous array."""
    return np.ascontiguousarray(arrays[0])[None] if len(arrays) == 1 else np.stack(arrays)


def _cholesky_refused(a) -> list[int]:
    """The members of a stack of symmetric matrices that np.linalg.cholesky
    refuses, by one batched factorization. A refusal sets the invalid flag,
    which raises here, and only then is each member factored again alone."""
    try:
        with np.errstate(all="ignore", invalid="raise"):
            _umath_linalg.cholesky_lo(a, signature="d->d")
        return []
    except FloatingPointError:
        return [k for k in range(len(a)) if _refused(np.linalg.cholesky, a[k])]


def _solve(a, b):
    """np.linalg.solve(a[k], b[k]) of each member k of a stack of systems, b
    broadcast against a, by one batched solve: the solutions, NaN where
    np.linalg.solve refuses a member, and those members. A refusal sets the
    invalid flag, which raises here, and only then is the stack solved again
    and each member whose solution is not finite solved alone."""
    try:
        with np.errstate(all="ignore", invalid="raise"):
            return _umath_linalg.solve(a, b, signature="dd->d"), []
    except FloatingPointError:
        with np.errstate(all="ignore"):  # a refused member is NaN, without a warning
            x = _umath_linalg.solve(a, b, signature="dd->d")
    return x, [k for k in _not_finite(x)
               if _refused(np.linalg.solve, a[k], np.broadcast_to(b, x.shape)[k])]


def _refused(call, *matrices) -> bool:
    """Whether `call` (a numpy.linalg function) refuses `matrices`."""
    try:
        call(*matrices)
        return False
    except np.linalg.LinAlgError:
        return True


def fit_ml_design(
    design: np.ndarray,
    y: np.ndarray,
    family: GlmFamily,
    weights: np.ndarray | None = None,
    offset: np.ndarray | None = None,
    has_intercept: bool = False,
) -> GlmFit:
    """Maximum-likelihood fit on an explicit design matrix (no implicit
    intercept): a stack of one of `_irls`. Building block for `fit_ml` and
    for the TMLE update models.
    """
    problem = dict(design=design, y=y, weights=weights, offset=offset, has_intercept=has_intercept)
    return _fitted(_fit_stack([problem], family)[0])


def _fitted(outcome):
    """A stacked fit's outcome: its GlmFit, or the error it ended with, raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _with_intercept(x, y) -> dict:
    """`fit_ml`'s problem for `fit_ml_design`: the design [1, x] and y."""
    y = np.asarray(y, dtype=float)
    x = _as_design(x, y.shape[0])
    return dict(design=np.column_stack([np.ones(y.shape[0]), x]), y=y, has_intercept=True)


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
    problem = _with_intercept(x, y)
    return fit_ml_design(problem["design"], problem["y"], family, weights, has_intercept=True)


def fit_mls(sets, family: GlmFamily) -> list:
    """`fit_ml` on each (x, y) of `sets`, as one `_irls` stack per shape and
    layout: a list of each set's outcome, the GlmFit or the error `fit_ml`
    raises on it alone (not raised). A caller that raises on an error as it
    reaches each outcome meets the error a loop of `fit_ml` meets first."""
    return _fit_stack([_with_intercept(x, y) for x, y in sets], family)


@np.errstate(all="ignore")  # a non-finite J'WJ ends the fit below, without a warning
def fit_least_squares(
    x: np.ndarray | None,
    y: np.ndarray,
    family: GlmFamily,
    weights: np.ndarray | None = None,
) -> GlmFit:
    """Minimize sum_i w_i (y_i - g^{-1}(b0 + x_i b))^2.

    Identical to `fit_ml` for the gaussian family. For the logistic model
    this is a damped Gauss-Newton solve of the nonlinear least-squares
    problem; the prediction unbiasedness identity is NOT guaranteed. A step
    whose J'WJ is not finite ends it as NonConvergence, the end it would
    reach after its iteration budget.
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
        jac = (design * dmu[:, None])[None]  # a stack of one
        jtwj = _weighted_gram(jac, w[None])
        if _cholesky_refused(jtwj):
            raise Singular("rank-deficient weighted design matrix")
        if not np.isfinite(jtwj).all():
            raise NonConvergence("least-squares weighted design matrix is not finite; "
                                 "rescale the data")
        delta, refused = _solve(jtwj, _weighted_score(jac, (w * (y - mu))[None]))
        if refused:  # rounding can pass a singular J'WJ through the Cholesky check
            raise Singular("rank-deficient weighted design matrix")
        delta = delta[0, :, 0]
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
