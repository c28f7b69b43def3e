import numpy as np
import pytest
from hypothesis import settings

from trialcraft.data import TrialDataset
from trialcraft.glm import GlmFamily, expit

# a fixed example sequence and no per-example deadline: the suite gives the
# same verdict on every run, however slow or noisy the machine
settings.register_profile("trialcraft", derandomize=True, deadline=None, database=None)
settings.load_profile("trialcraft")


def kkt_violation(x, y, family, lam, coef, weights=None):
    """Independent KKT checker for the penalized GLM solution.

    Recomputes the standardized-scale gradient from scratch: for inactive
    coordinates |g_j| must not exceed lam, for active ones g_j must equal
    -lam * sign(b_j). Returns the largest violation.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    w = w * (n / w.sum())
    means = (w[:, None] * x).sum(axis=0) / n
    sds = np.sqrt((w[:, None] * (x - means) ** 2).sum(axis=0) / n)
    sds = np.where(sds <= 0, 1.0, sds)
    xs = (x - means) / sds
    eta = coef[0] + x @ coef[1:]
    mu = expit(eta) if family is GlmFamily.BINOMIAL else eta
    grad = xs.T @ (w * (mu - y)) / n
    b_std = coef[1:] * sds
    worst = 0.0
    for j in range(x.shape[1]):
        if b_std[j] == 0.0:
            worst = max(worst, abs(grad[j]) - lam)
        else:
            worst = max(worst, abs(grad[j] + lam * np.sign(b_std[j])))
    # the intercept is unpenalized: its score must vanish
    worst = max(worst, abs(float(np.sum(w * (mu - y)) / n)))
    return worst


def simulate_trial(rng, n=80, p=3, family=GlmFamily.GAUSSIAN, effect=0.5,
                   beta_scale=1.0, noise_sd=1.0):
    """Small linear trial for property loops; both arms guaranteed non-empty."""
    x = rng.standard_normal((n, p))
    z = np.zeros(n)
    z[: n // 2] = 1.0
    z = rng.permutation(z)
    m = effect * z + beta_scale * x.sum(axis=1) / np.sqrt(p)
    if family is GlmFamily.BINOMIAL:
        y = (rng.uniform(size=n) < expit(m)).astype(float)
    else:
        y = m + noise_sd * rng.standard_normal(n)
    names = tuple(f"x{j + 1}" for j in range(p))
    return TrialDataset(y, z, x, names)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
