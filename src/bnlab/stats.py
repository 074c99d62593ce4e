"""Population-statistics estimators: EMA, the two batch-moment aggregators,
and a Monte Carlo oracle for the variance of the variance estimator."""

import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateBatch,
    EmptyLog,
    InvalidParams,
    MalformedCsv,
    ShapeMismatch,
)
from .tensor import ChannelStats

__all__ = [
    "EmaState",
    "ema_update",
    "BatchMomentLog",
    "aggregate_moment_matching",
    "aggregate_naive",
    "VarVarOracleReport",
    "var_of_var_oracle",
    "simulate_variance_estimates",
]


@dataclass(frozen=True)
class EmaState:
    """Exponentially averaged channel statistics with momentum in [0, 1]."""

    mean: np.ndarray
    var: np.ndarray
    momentum: float
    update_count: int = 0

    def __post_init__(self):
        if not 0.0 <= self.momentum <= 1.0:
            raise InvalidParams(f"momentum must be in [0, 1], got {self.momentum}")
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "var", np.asarray(self.var, dtype=np.float64))

    @classmethod
    def initial(cls, channels: int, momentum: float) -> "EmaState":
        # mean 0 / var 1 start, the common library convention
        return cls(np.zeros(channels), np.ones(channels), momentum, 0)

    def as_channel_stats(self, count: int = 1) -> ChannelStats:
        return ChannelStats(mean=self.mean.copy(), var=self.var.copy(), count=count)


def ema_update(state: EmaState, batch: ChannelStats) -> EmaState:
    """One EMA step per cohort: new = momentum * old + (1 - momentum) * batch.

    (G, C) moments of a cohort stack fold in closed form as G sequential
    steps in cohort order, lam^G * old + (1 - lam) * sum_g lam^(G-1-g) * s_g,
    which equals the sequential steps to rounding.  A single cohort takes
    exactly the one-step formula.
    """
    if batch.channels != state.mean.shape[0]:
        raise ShapeMismatch(
            f"EMA has {state.mean.shape[0]} channels, batch has {batch.channels}"
        )
    lam = state.momentum
    means = batch.mean.reshape(-1, batch.channels)
    variances = batch.var.reshape(-1, batch.channels)
    g = means.shape[0]
    decay = lam ** np.arange(g - 1, -1, -1)[:, None]
    return replace(
        state,
        mean=lam**g * state.mean + (1.0 - lam) * (decay * means).sum(axis=0),
        var=lam**g * state.var + (1.0 - lam) * (decay * variances).sum(axis=0),
        update_count=state.update_count + g,
    )


@dataclass
class BatchMomentLog:
    """Ordered per-mini-batch channel statistics collected during a pass."""

    entries: list = field(default_factory=list)

    def append(self, stats: ChannelStats) -> None:
        if self.entries and stats.channels != self.entries[0].channels:
            raise ShapeMismatch("log entries disagree on channel count")
        self.entries.append(stats)

    def __len__(self) -> int:
        return len(self.entries)

    CSV_HEADER = ["batch_index", "channel", "mean", "var", "count"]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.CSV_HEADER)
        for i, entry in enumerate(self.entries):
            for c in range(entry.channels):
                writer.writerow([i, c, repr(float(entry.mean[c])),
                                 repr(float(entry.var[c])), entry.count])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "BatchMomentLog":
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedCsv("empty moments file") from None
        if header != cls.CSV_HEADER:
            raise MalformedCsv(f"expected header {cls.CSV_HEADER}, got {header}")
        rows = {}
        counts = {}
        for line in reader:
            if not line:
                continue
            try:
                idx, chan = int(line[0]), int(line[1])
                mean, var = float(line[2]), float(line[3])
                count = int(line[4])
            except (ValueError, IndexError) as exc:
                raise MalformedCsv(f"bad row {line!r}") from exc
            rows.setdefault(idx, {})[chan] = (mean, var)
            counts[idx] = count
        log = cls()
        for idx in sorted(rows):
            chans = rows[idx]
            if sorted(chans) != list(range(len(chans))):
                raise MalformedCsv(f"batch {idx} has missing channels")
            mean = np.array([chans[c][0] for c in sorted(chans)])
            var = np.array([chans[c][1] for c in sorted(chans)])
            log.append(ChannelStats(mean=mean, var=var, count=counts[idx]))
        if not log.entries:
            raise MalformedCsv("moments file contains no data rows")
        return log


def aggregate_moment_matching(log: BatchMomentLog, bessel: bool = False) -> ChannelStats:
    """Pool a moment log through per-batch E[mu], E[mu^2 + var].

    Entries with unequal element counts are weighted by count, which makes
    the result identical (to rounding) to the moments of the concatenated
    population.  With ``bessel`` the pooled variance is rescaled by
    N / (N - 1) where N is the total element count.
    """
    if not log.entries:
        raise EmptyLog("cannot aggregate an empty moment log")
    total = sum(e.count for e in log.entries)
    mean = sum(e.count * e.mean for e in log.entries) / total
    second = sum(e.count * (e.mean**2 + e.var) for e in log.entries) / total
    var = second - mean**2
    if bessel:
        if total < 2:
            raise DegenerateBatch("bessel correction needs at least 2 elements")
        var = var * total / (total - 1)
    return ChannelStats(mean=mean, var=np.maximum(var, 0.0), count=total)


def aggregate_naive(log: BatchMomentLog) -> ChannelStats:
    """The original aggregation: mean of means, B/(B-1) * mean of variances.

    Requires every entry to carry the same per-batch element count B >= 2.
    """
    if not log.entries:
        raise EmptyLog("cannot aggregate an empty moment log")
    counts = {e.count for e in log.entries}
    if len(counts) != 1:
        raise DegenerateBatch(f"naive aggregation needs equal batch counts, got {counts}")
    b = counts.pop()
    if b < 2:
        raise DegenerateBatch(f"naive aggregation needs batch count >= 2, got {b}")
    k = len(log.entries)
    mean = sum(e.mean for e in log.entries) / k
    var = (b / (b - 1)) * sum(e.var for e in log.entries) / k
    return ChannelStats(mean=mean, var=var, count=b * k)


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
    mu = x.mean(axis=2)
    var = x.var(axis=2)  # biased per-batch variance
    if estimator == "naive":
        return (batch_size / (batch_size - 1)) * var.mean(axis=1)
    if estimator == "moment_matching":
        n = k * batch_size
        pooled = (mu**2 + var).mean(axis=1) - mu.mean(axis=1) ** 2
        return (n / (n - 1)) * pooled
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
