"""The AIPW core shared by every estimator: arm means and influence values.

For outcome predictions h1, h0 and a randomization probability pi, each
participant's arm-1 and arm-0 values are

    v1_i = Z_i/pi (Y_i - h1_i) + h1_i,    v0_i = (1-Z_i)/(1-pi) (Y_i - h0_i) + h0_i,

and the standard error of a treatment-effect estimate is sqrt of (1/n times
the sample variance) of v1 - v0, with the n-1 divisor. Every estimator takes
its influence values from `aipw`; the AIPW and strong-null estimators also
take their arm means from it, while the plug-in estimators average their own
predictions.
"""
from __future__ import annotations

import math

import numpy as np

from .data import FoldPlan
from .errors import DegenerateFold, DegeneratePi, DimensionMismatch, EstimationError, Singular
from .glm import _cholesky_refused, _solve


def se_from_values(values: np.ndarray) -> float:
    """sqrt( sample-variance(values) / n ); zero for constant values. One
    that overflows float64 is an EstimationError, not an inf or NaN SE."""
    n = values.shape[0]
    if n < 2:
        raise DimensionMismatch("need at least 2 values for a standard error")
    with np.errstate(over="ignore", invalid="ignore"):
        se = math.sqrt(float(np.var(values, ddof=1)) / n)
    if not math.isfinite(se):
        raise EstimationError("standard error overflows float64; rescale the outcome")
    return se


def _score_corrections(z, res1, res0, pg, xg):
    """Score-correction addends for a logistic propensity model fitted on
    one group, with x~ the propensity design row (intercept included):

        s_i = x~_i (Z_i - p_i)                      score at the group MLE
        A   = -mean_j p_j (1-p_j) x~_j x~_j'        observed information
        c1  =  mean_j Z_j (Y_j - h1_j) (1-p_j)/p_j x~_j
        c0  =  mean_j (1-Z_j)(Y_j - h0_j) p_j/(1-p_j) x~_j

    The arm-1 values gain +c1' A^{-1} s_i and the arm-0 values gain
    -c0' A^{-1} s_i. Returns (corr1, corr0); `aipw` computes them under its
    `np.errstate`, so an overflow fails the SE.
    """
    info = pg * (1 - pg)
    a = (-(xg * info[:, None]).T @ xg / xg.shape[0])[None]  # a stack of one
    scores = xg * (z - pg)[:, None]
    a_inv_s, refused = _solve(a, scores.T[None])
    if refused or _cholesky_refused(-a):
        raise Singular("singular propensity information matrix")
    c1 = (xg * (z * res1 * (1 - pg) / pg)[:, None]).mean(axis=0)
    c0 = (xg * ((1 - z) * res0 * pg / (1 - pg))[:, None]).mean(axis=0)
    return a_inv_s[0].T @ c1, -(a_inv_s[0].T @ c0)


@np.errstate(over="ignore", invalid="ignore")  # an overflowed value fails the SE
def aipw(y, z, pred1, pred0, pi=None, folds: FoldPlan | None = None, ps_design=None):
    """Per-group AIPW arm means and per-participant influence values.

    The groups are the folds of `folds`, or the whole sample. A known `pi`,
    scalar or per participant, enters with no correction terms. `pi=None`
    plugs in each group's treated share pi_g and adds the group-mean
    corrections -m1 (Z_i - pi_g) and +m0 (Z_i - pi_g), with
    m1 = mean_g Z (Y - h1) / pi_g^2 and m0 = mean_g (1-Z)(Y - h0) / (1-pi_g)^2.
    `ps_design` (intercept included) is the design of a logistic propensity
    model fitted within each group, with fitted probabilities `pi`; its score
    correction c'A^{-1}s replaces the (Z_i - pi_g) terms.

    Returns (mu1, mu0, v1, v0): one mean per group of the uncorrected values
    (every correction has mean zero within its group), and the corrected
    values.
    """
    if folds is None:
        groups = [slice(None)]
    else:
        groups = [folds.fold_indices(k) for k in range(1, folds.k + 1)]
    if pi is not None:
        pi = np.asarray(pi, dtype=float)
        if np.any(pi <= 0.0) or np.any(pi >= 1.0):
            raise DegeneratePi("randomization probability must lie strictly in (0, 1)")
        pi = np.broadcast_to(pi, y.shape)

    mu1 = np.empty(len(groups))
    mu0 = np.empty(len(groups))
    v1 = np.empty(y.shape)
    v0 = np.empty(y.shape)
    for j, g in enumerate(groups):
        zg = z[g]
        res1 = y[g] - pred1[g]
        res0 = y[g] - pred0[g]
        if pi is None:
            pg = float(zg.mean())
            if pg <= 0.0 or pg >= 1.0:
                raise DegenerateFold(f"fold {j + 1} contains a single arm; use stratified folds")
        else:
            pg = pi[g]
        v1[g] = zg / pg * res1 + pred1[g]
        v0[g] = (1.0 - zg) / (1.0 - pg) * res0 + pred0[g]
        mu1[j] = v1[g].mean()
        mu0[j] = v0[g].mean()
        if ps_design is not None:
            corr1, corr0 = _score_corrections(zg, res1, res0, pg, ps_design[g])
        elif pi is None:
            m1 = float(np.mean(zg / pg**2 * res1))
            m0 = float(np.mean((1 - zg) / (1 - pg) ** 2 * res0))
            corr1 = -m1 * (zg - pg)
            corr0 = m0 * (zg - pg)
        else:
            continue
        v1[g] += corr1
        v0[g] += corr0
    return mu1, mu0, v1, v0
