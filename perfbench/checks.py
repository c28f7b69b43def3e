"""Correctness checks and the references they compare against.

The references are computed here, apart from the program: effects of the
continuous mechanisms from their definition, binary-outcome effects by
Gauss-Hermite quadrature, and the analyze_wide estimate by an independent
least-squares refit. Every check returns a list of failure messages (empty
when the result is correct) or raises ContractViolation.
"""
from __future__ import annotations

import math

import numpy as np

Z_CRIT = 1.959964
# |bias| may be at most this many Monte Carlo standard errors
BIAS_MC_SE = 4.0
# two-sided tail probability at which a strong-null rejection count is
# declared incompatible with a 5% test
NULL_TAIL = 1e-6
NULL_LEVEL = 0.05
# relative tolerance of the analyze_wide recomputation
ANALYZE_RTOL = 1e-8
# relative tolerance of the per-estimate identities (rounding only)
IDENTITY_RTOL = 1e-12
GAUSS_HERMITE_NODES = 80


class ContractViolation(Exception):
    """An estimate broke the result contract. Deliberately not a
    TrialcraftError, so the Monte Carlo harness does not count it as a failed
    replicate but lets it end the run."""


def _expit(eta):
    return 1.0 / (1.0 + np.exp(-eta))


def _logit(p: float) -> float:
    return math.log(p) - math.log1p(-p)


def normal_expectation(f) -> float:
    """E[f(U)] for U ~ N(0, 1) by Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite.hermgauss(GAUSS_HERMITE_NODES)
    return float(np.sum(weights * f(math.sqrt(2.0) * nodes)) / math.sqrt(math.pi))


def true_effect(dgp: dict, contrast: str | None = None) -> float:
    """The effect a plan estimates on a DGP of trialcraft.simulation.

    Continuous mechanisms add mean-zero terms to the arm offset, so the
    effect is `effect_size` (0 under `null_effect`). For binary outcomes of
    the linear mechanism the arm means are E[expit(a + U)] and E[expit(U)]
    with U = sum(x)/sqrt(p) ~ N(0, 1).
    """
    if dgp["mechanism"] == "null_effect":
        return 0.0
    if dgp["outcome_kind"] == "continuous":
        return float(dgp["effect_size"])
    if dgp["mechanism"] != "linear":
        raise ValueError(f"no reference for binary mechanism {dgp['mechanism']!r}")
    alpha = float(dgp["effect_size"])
    mu1 = normal_expectation(lambda u: _expit(alpha + u))
    mu0 = normal_expectation(_expit)
    if contrast == "log_odds_ratio":
        return _logit(mu1) - _logit(mu0)
    if contrast in (None, "risk_difference"):
        return mu1 - mu0
    raise ValueError(f"no reference for contrast {contrast!r}")


def _close(a: float, b: float, rtol: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= rtol * max(scale, abs(a), abs(b))


def estimate_contract(theta, mu1, mu0, se, ci_low, ci_high, contrast=None) -> list[str]:
    """theta = mu1 - mu0 (logit(mu1) - logit(mu0) on the log odds-ratio
    scale), the interval is theta -/+ 1.959964 se, and se is finite and > 0."""
    failures = []
    if not (math.isfinite(se) and se > 0):
        failures.append(f"se={se!r} is not finite and positive")
        return failures
    if contrast == "log_odds_ratio":
        expected = _logit(mu1) - _logit(mu0)
    else:
        expected = mu1 - mu0
    scale = abs(mu1) + abs(mu0)
    if not _close(theta, expected, IDENTITY_RTOL, scale):
        failures.append(f"theta_hat={theta!r} but the arm means give {expected!r}")
    for bound, sign in ((ci_low, -1.0), (ci_high, 1.0)):
        want = theta + sign * Z_CRIT * se
        if not _close(bound, want, IDENTITY_RTOL, abs(theta) + se):
            failures.append(f"interval bound {bound!r} != theta {sign:+.0f} {Z_CRIT}*se = {want!r}")
    return failures


class CheckedEstimator:
    """The estimator a workload hands to run_monte_carlo: the plan's own
    estimator, with the result contract checked on every estimate."""

    def __init__(self, estimate, contrast=None):
        self.estimate = estimate
        self.contrast = contrast

    def __call__(self, dataset, seed):
        r = self.estimate(dataset, seed)
        failures = estimate_contract(r.theta_hat, r.mu1_hat, r.mu0_hat, r.se,
                                     r.ci_low, r.ci_high, self.contrast)
        if failures:
            raise ContractViolation(f"{r.method}: " + "; ".join(failures))
        return r


def mc_se(estimates, ses) -> float:
    """Monte Carlo SE of the mean estimate. The larger of the empirical SD and
    the mean estimated SE is used, so that an empirical SD that is small by
    chance at a few dozen replicates cannot fail a correct program."""
    r = len(estimates)
    return max(float(np.std(estimates, ddof=1)), float(np.mean(ses))) / math.sqrt(r)


def bias_check(label, estimates, ses, truth) -> list[str]:
    estimates = np.asarray(estimates, dtype=float)
    if estimates.size < 2:
        return [f"{label}: {estimates.size} estimates, too few to check the bias"]
    bias = float(estimates.mean()) - truth
    bound = BIAS_MC_SE * mc_se(estimates, ses)
    if not abs(bias) <= bound:
        return [f"{label}: |bias| = {abs(bias):.5f} > {BIAS_MC_SE:g} MC-SE = {bound:.5f} "
                f"(truth {truth:.6f}, R={estimates.size})"]
    return []


def _binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P[X <= k], P[X >= k]) for X ~ Binomial(n, p)."""
    log_p, log_q = math.log(p), math.log1p(-p)
    pmf = [math.exp(math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                    + i * log_p + (n - i) * log_q) for i in range(n + 1)]
    return math.fsum(pmf[: k + 1]), math.fsum(pmf[k:])


def null_rejection_check(label, estimates, ses) -> list[str]:
    """Under the strong null the Wald test of theta = 0 rejects with
    probability 0.05; the count of rejections must not sit in either
    binomial tail beyond NULL_TAIL."""
    estimates = np.asarray(estimates, dtype=float)
    ses = np.asarray(ses, dtype=float)
    half = Z_CRIT * ses
    k = int(np.count_nonzero((estimates - half > 0.0) | (estimates + half < 0.0)))
    n = estimates.size
    lower, upper = _binomial_tails(k, n, NULL_LEVEL)
    if min(lower, upper) < NULL_TAIL:
        return [f"{label}: {k}/{n} rejections under the null; binomial tail "
                f"{min(lower, upper):.2e} < {NULL_TAIL:g} at level {NULL_LEVEL}"]
    return []


def efficiency_check(label, adjusted, unadjusted) -> list[str]:
    adjusted = np.asarray(adjusted, dtype=float)
    unadjusted = np.asarray(unadjusted, dtype=float)
    re = float(np.var(unadjusted, ddof=1) / np.var(adjusted, ddof=1))
    if not re >= 1.0:
        return [f"{label}: relative efficiency vs unadjusted {re:.3f} < 1 (R={adjusted.size})"]
    return []


def difference_in_means(y, z) -> float:
    return float(y[z == 1].mean() - y[z == 0].mean())


# --- analyze_wide ------------------------------------------------------------

def expanded_column(name: str, base: dict) -> np.ndarray:
    """An expanded column from its name: `a`, `a^k` or `a:b`."""
    if ":" in name:
        a, b = name.split(":")
        return base[a] * base[b]
    if "^" in name:
        a, k = name.split("^")
        return base[a] ** int(k)
    return base[name]


def analyze_reference(y, z, x, names, refit_1, refit_0) -> dict:
    """The data_adaptive estimate recomputed from the raw data and the
    reported refit columns: mean imputation, per-arm OLS by lstsq,
    standardization, and the influence-function SE with pi = n1/n."""
    x = np.array(x, dtype=float)
    for j in range(x.shape[1]):
        missing = np.isnan(x[:, j])
        x[missing, j] = x[~missing, j].mean()
    base = {name: x[:, j] for j, name in enumerate(names)}
    preds = {}
    for arm, columns in ((1, refit_1), (0, refit_0)):
        design = np.column_stack([np.ones(y.size)] + [expanded_column(c, base) for c in columns])
        rows = z == arm
        beta = np.linalg.lstsq(design[rows], y[rows], rcond=None)[0]
        preds[arm] = design @ beta
    pi = float(z.mean())
    v1 = z / pi * (y - preds[1]) + preds[1]
    v0 = (1 - z) / (1 - pi) * (y - preds[0]) + preds[0]
    mu1, mu0 = float(preds[1].mean()), float(preds[0].mean())
    return {"theta_hat": mu1 - mu0, "mu1_hat": mu1, "mu0_hat": mu0,
            "se": math.sqrt(float(np.var(v1 - v0, ddof=1)) / y.size)}


def analyze_report_check(report: dict, reference: dict, prognostic) -> list[str]:
    est = report["estimate"]
    failures = estimate_contract(est["theta_hat"], est["mu1_hat"], est["mu0_hat"], est["se"],
                                 est["ci_low"], est["ci_high"])
    for key, want in reference.items():
        if not _close(est[key], want, ANALYZE_RTOL, 0.0):
            failures.append(f"{key}={est[key]!r} but the least-squares recomputation gives {want!r}")
    diag = est["diagnostics"]
    for arm in (1, 0):
        missing = sorted(set(prognostic) - set(diag[f"selected_{arm}"]))
        if missing:
            failures.append(f"prognostic columns {missing} not selected in arm {arm}")
    return failures
