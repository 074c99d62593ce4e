"""Oracles that only the tests use: the Monte Carlo variance-of-variance
oracle behind c01-c03 and the frozen-affine fusion toy behind c05.

They exercise the package's estimators (``aggregate_naive``,
``aggregate_moment_matching``) but are no part of a run, so they live
beside the tests that call them rather than in ``bnlab``.
"""

from dataclasses import dataclass

import numpy as np

from bnlab.errors import InvalidParams
from bnlab.stats import aggregate_moment_matching, aggregate_naive
from bnlab.tensor import ChannelStats


@dataclass(frozen=True)
class VarVarOracleReport:
    analytic_var: float
    empirical_var: float
    sigma: float
    kurtosis: float
    trials: int


def _draw_samples(rng, sigma, kurtosis, shape):
    """Samples with the requested sd and kurtosis.

    kurtosis == 3 uses Gaussians.  Other kurtosis values use a scaled
    Bernoulli mixture: 0 with probability 1 - p, +-sigma*sqrt(kappa) with
    probability p/2 each, where p = 1/kappa.  This has E[x^2] = sigma^2 and
    normalized fourth moment kappa, and requires kappa >= 1.
    """
    if kurtosis == 3.0:
        return sigma * rng.standard_normal(shape)
    if kurtosis < 1.0:
        raise InvalidParams(f"mixture construction needs kurtosis >= 1, got {kurtosis}")
    p = 1.0 / kurtosis
    hit = rng.random(shape) < p
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return sigma * np.sqrt(kurtosis) * hit * signs


def simulate_variance_estimates(
    sigma: float,
    kurtosis: float,
    k: int,
    batch_size: int,
    trials: int,
    seed: int,
    estimator: str = "naive",
) -> np.ndarray:
    """Variance estimates from `trials` independent draws of k batches of B."""
    if batch_size < 2 or k < 1 or trials < 1:
        raise InvalidParams("need batch_size >= 2, k >= 1, trials >= 1")
    rng = np.random.default_rng(seed)
    x = _draw_samples(rng, sigma, kurtosis, (trials, k, batch_size))
    # the biased moments of batch j are channel t of its ChannelStats, for
    # each trial t: the estimators pool all trials at once
    mu, var = x.mean(axis=2), x.var(axis=2)
    batches = [ChannelStats(mu[:, j], var[:, j], batch_size) for j in range(k)]
    if estimator == "naive":
        return aggregate_naive(batches).var
    if estimator == "moment_matching":
        return aggregate_moment_matching(batches, bessel=True).var
    raise InvalidParams(f"unknown estimator {estimator!r}")


def var_of_var_oracle(
    sigma: float,
    kurtosis: float,
    n_total: int,
    batch_size: int,
    trials: int,
    seed: int,
) -> VarVarOracleReport:
    """Compare the analytic Var[naive estimate] against Monte Carlo.

    analytic = sigma^4 / N * (kappa - 1 + 2 / (B - 1)), the variance of the
    B/(B-1)-corrected mean-of-batch-variances estimator.
    """
    if batch_size < 2 or n_total % batch_size != 0:
        raise InvalidParams("need B >= 2 and N divisible by B")
    if trials < 1000:
        raise InvalidParams("need at least 10^3 trials")
    k = n_total // batch_size
    analytic = sigma**4 / n_total * (kurtosis - 1.0 + 2.0 / (batch_size - 1))
    estimates = simulate_variance_estimates(
        sigma, kurtosis, k, batch_size, trials, seed, estimator="naive"
    )
    empirical = float(estimates.var(ddof=1))
    return VarVarOracleReport(
        analytic_var=float(analytic),
        empirical_var=empirical,
        sigma=sigma,
        kurtosis=kurtosis,
        trials=trials,
    )


def fusion_finetune_demo(lambda_: float, x0: float, step: float, iters: int):
    """Gradient descent on J = (lambda * x)^2, unfused vs fused.

    The unfused run keeps lambda as a frozen constant and descends on x.
    The fused run absorbs lambda into the optimized variable, so the task
    becomes minimizing J = x^2 from the same starting value.  Returns the
    two trajectories (including the start point).
    """
    if x0 == 0:
        raise InvalidParams("x0 must be nonzero")
    if iters < 0:
        raise InvalidParams("iters must be >= 0")
    unfused = [x0]
    x = x0
    for _ in range(iters):
        x = x - step * 2.0 * lambda_**2 * x
        unfused.append(x)
    fused = [x0]
    z = x0
    for _ in range(iters):
        z = z - step * 2.0 * z
        fused.append(z)
    return unfused, fused
