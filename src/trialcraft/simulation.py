"""Data-generating processes and the Monte Carlo harness.

The harness turns asymptotic estimator claims into desk-scale empirical
checks: bias against the true effect, empirical vs estimated standard
errors, 95% CI coverage, Type I error, and relative efficiency against the
unadjusted estimator on the same simulated datasets.

Covariates are iid standard normal and assignment is Bernoulli(pi)
independent of the covariates (simple randomization), so every mechanism
below has an analytic true effect for continuous outcomes; binary-outcome
effects are computed by Gauss-Hermite quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated, Literal

import numpy as np

from .data import TrialDataset, derived_seed
from .errors import AtLeast, AtMost, ConfigError, DimensionMismatch, EstimationError
from .errors import TrialcraftError, _check
from .estimators import Z_CRIT, estimate_unadjusted
from .glm import expit

# mechanism shape constants; the quadratic terms are centered so the
# continuous treatment effect stays exactly effect_size
QUADRATIC_COEF = {1: (0.8, 0.4), 0: (0.3, 0.15)}
NULL_QUADRATIC_COEF = 0.5
PS_INFORMATIVE_LOADING = 1.5
# Gauss-Hermite nodes per standard normal in the binary-truth rule; 80 nodes
# move no mechanism's truth by more than 4e-8 (p 1-10, effect_size -2 to 3)
TRUTH_NODES = 60
# share of replicates that may fail before the run is an error
MAX_FAILURE_FRACTION = 0.01


@dataclass(frozen=True)
class DgpSpec:
    """A named data-generating process for the Monte Carlo harness; a field
    its outcome or mechanism does not read must keep its default."""

    name: str
    n: Annotated[int, AtLeast(2)]
    p: Annotated[int, AtLeast(1)]
    pi: Annotated[float, AtLeast(0.05), AtMost(0.95)]
    outcome_kind: Literal["continuous", "binary"] = "continuous"
    mechanism: Literal["linear", "quadratic", "null_effect", "ps_informative"] = "linear"
    effect_size: float = 0.0
    noise_sd: float = 1.0
    true_theta: float | None = None

    def __post_init__(self) -> None:
        _check(self)
        if self.mechanism in ("quadratic", "null_effect") and self.p < 2:
            raise ConfigError(f"mechanism {self.mechanism!r} needs p >= 2")
        if self.noise_sd <= 0:
            raise ConfigError("noise_sd must be positive")
        if self.outcome_kind == "binary" and self.noise_sd != 1.0:
            raise ConfigError("noise_sd: a binary outcome does not read it")
        if self.mechanism == "null_effect" and self.effect_size != 0.0:
            raise ConfigError("effect_size: mechanism 'null_effect' does not read it")
        if self.mechanism == "null_effect" and self.true_theta not in (None, 0.0):
            raise ConfigError("null_effect implies true_theta = 0")
        if self.outcome_kind == "continuous" and self.true_theta is not None:
            raise ConfigError("a continuous truth is the difference effect_size; do not pin it")


def mean_function(spec: DgpSpec, x: np.ndarray, arm: int) -> np.ndarray:
    """Conditional mean m_arm(x) on the linear-predictor scale."""
    u = x.sum(axis=1) / math.sqrt(spec.p)
    alpha = spec.effect_size if arm == 1 else 0.0
    if spec.mechanism == "linear":
        return alpha + u
    if spec.mechanism == "quadratic":
        a, b = QUADRATIC_COEF[arm]
        return alpha + u + a * (x[:, 0] ** 2 - 1.0) + b * x[:, 0] * x[:, 1]
    if spec.mechanism == "null_effect":
        return u + NULL_QUADRATIC_COEF * (x[:, 0] ** 2 - 1.0)
    # ps_informative: the first covariate carries most of the signal, so a
    # propensity model on it captures chance imbalance
    rest = (x[:, 1:].sum(axis=1) / math.sqrt(spec.p)) if spec.p > 1 else 0.0
    return alpha + PS_INFORMATIVE_LOADING * x[:, 0] + 0.3 * rest


def true_theta(spec: DgpSpec) -> float:
    """The effect as a difference of arm means: for continuous outcomes
    `effect_size` (every nonlinear term is mean zero), or 0 under
    `null_effect`. A binary outcome's pinned `true_theta` wins; otherwise its
    truth E[expit(m1(X))] - E[expit(m0(X))] (exactly 0 under `null_effect`)
    is a tensor Gauss-Hermite rule on at most three standard normals pushed
    through `mean_function`: m depends on X only through x1, x2 and the sum
    of the rest, which is sqrt(p - 2) times a standard normal."""
    if spec.outcome_kind == "continuous":
        return 0.0 if spec.mechanism == "null_effect" else spec.effect_size
    if spec.true_theta is not None:
        return float(spec.true_theta)
    nodes, weights = np.polynomial.hermite.hermgauss(TRUTH_NODES)
    d = min(spec.p, 3)
    x = np.stack(np.meshgrid(*[math.sqrt(2.0) * nodes] * d, indexing="ij"), -1).reshape(-1, d)
    x[:, 2:] *= math.sqrt(max(spec.p - 2, 1))  # x3 + ... + xp, for p >= 3
    w = np.prod(np.meshgrid(*[weights / math.sqrt(math.pi)] * d, indexing="ij"), axis=0).ravel()
    return float(w @ (expit(mean_function(spec, x, 1)) - expit(mean_function(spec, x, 0))))


def generate_dataset(spec: DgpSpec, seed) -> TrialDataset:
    """One simulated trial. `seed` may be an int or a SeedSequence."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((spec.n, spec.p))
    z = (rng.uniform(size=spec.n) < spec.pi).astype(float)
    m = np.where(z == 1, mean_function(spec, x, 1), mean_function(spec, x, 0))
    if spec.outcome_kind == "binary":
        y = (rng.uniform(size=spec.n) < expit(m)).astype(float)
    else:
        y = m + spec.noise_sd * rng.standard_normal(spec.n)
    names = tuple(f"x{j + 1}" for j in range(spec.p))
    return TrialDataset(y, z, x, names)


@dataclass(frozen=True)
class MonteCarloReport:
    replicates: int
    true_theta: float
    bias: float
    mc_se_of_bias: float
    empirical_sd: float
    mean_estimated_se: float
    coverage_95: float
    rejection_rate: float
    relative_efficiency_vs_unadjusted: float | None
    n_failed: int
    failed_indices: tuple[int, ...]
    replicate_seeds: tuple[int, ...]
    estimates: np.ndarray = field(repr=False)
    ses: np.ndarray = field(repr=False)


def compute_metrics(estimates, ses, true_theta_value: float) -> dict:
    """Bias, MC-SE of the bias, empirical SD, mean estimated SE, 95%
    coverage and rejection of zero, from aligned estimate/SE vectors."""
    estimates = np.asarray(estimates, dtype=float)
    ses = np.asarray(ses, dtype=float)
    if estimates.shape != ses.shape:
        raise DimensionMismatch("estimates and ses must have the same length")
    r = estimates.shape[0]
    if r < 2:
        raise DimensionMismatch("need at least 2 replicates")
    half = Z_CRIT * ses
    lo, hi = estimates - half, estimates + half
    sd = float(np.std(estimates, ddof=1))
    return {
        "bias": float(estimates.mean() - true_theta_value),
        "mc_se_of_bias": sd / math.sqrt(r),
        "empirical_sd": sd,
        "mean_estimated_se": float(ses.mean()),
        "coverage_95": float(np.mean((lo <= true_theta_value) & (true_theta_value <= hi))),
        "rejection_rate": float(np.mean((0.0 < lo) | (0.0 > hi))),
    }


def replicate_seed_sequences(master_seed: int, replicates: int):
    """Non-overlapping per-replicate streams: replicate r gets children of
    SeedSequence(master_seed).spawn(replicates)[r]."""
    return np.random.SeedSequence(master_seed).spawn(replicates)


def run_monte_carlo(
    spec: DgpSpec,
    estimate,
    replicates: int,
    master_seed: int,
    paired_unadjusted: bool = False,
) -> MonteCarloReport:
    """Run `estimate(dataset, seed) -> EstimateResult` on `replicates`
    simulated datasets.

    Replicates run one after another in replicate order, and replicate r
    draws only from its own RNG stream, so the report is a pure function of
    (spec, estimate, replicates, master_seed). A TrialcraftError from a
    replicate's data, estimate or paired unadjusted estimate fails that
    replicate and is recorded as "Class: message"; it is fatal only when
    more than MAX_FAILURE_FRACTION of replicates fail.
    """
    if replicates < 2:
        raise ConfigError("need at least 2 replicates")
    theta = true_theta(spec)
    sequences = replicate_seed_sequences(master_seed, replicates)

    def one(r: int):
        data_ss, est_ss = sequences[r].spawn(2)
        est_seed = derived_seed(est_ss)
        try:
            dataset = generate_dataset(spec, data_ss)
            result = estimate(dataset, est_seed)
            unadj = estimate_unadjusted(dataset).theta_hat if paired_unadjusted else math.nan
        except TrialcraftError as exc:
            return (math.nan, math.nan, math.nan, f"{type(exc).__name__}: {exc}", est_seed)
        return (result.theta_hat, result.se, unadj, None, est_seed)

    estimates, ses, unadjusted, errors, seeds = zip(*(one(r) for r in range(replicates)))
    estimates, ses, unadjusted = np.array(estimates), np.array(ses), np.array(unadjusted)
    failures = tuple(r for r, err in enumerate(errors) if err is not None)

    if len(failures) > MAX_FAILURE_FRACTION * replicates:
        examples = "; ".join(errors[r] for r in failures[:3])
        raise EstimationError(
            f"{len(failures)}/{replicates} replicates failed (> "
            f"{MAX_FAILURE_FRACTION:.0%}): {examples}"
        )

    ok = np.flatnonzero(np.isfinite(estimates))

    relative_efficiency = None
    if paired_unadjusted:
        var_adj = float(np.var(estimates[ok], ddof=1))
        var_unadj = float(np.var(unadjusted[ok], ddof=1))
        relative_efficiency = var_unadj / var_adj if var_adj > 0 else math.inf

    return MonteCarloReport(
        replicates=replicates,
        true_theta=theta,
        **compute_metrics(estimates[ok], ses[ok], theta),
        relative_efficiency_vs_unadjusted=relative_efficiency,
        n_failed=len(failures),
        failed_indices=failures,
        replicate_seeds=seeds,
        estimates=estimates,
        ses=ses,
    )
