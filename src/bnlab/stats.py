"""Population-statistics estimators: EMA and the two batch-moment
aggregators, as runs and ``bnlab estimate`` use them.  Each estimate is a
ChannelStats; an EMA is one of count 1, which ``ema_update`` replaces with
a new one per step.  Batch moments are a plain list of ChannelStats, as a
pass or a moments CSV (``read_moments_csv``) gives them; ``stack_moments``
stacks the list.  A ``MomentFold`` takes the same entries one at a time
into the running sums of moment matching, each added in log order, so a
pass keeps no list.  The Monte Carlo oracle for the variance of the
variance estimator, which only the tests use, lives in
``tests/oracles.py``."""

import csv
import functools
import io

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
    "ema_update",
    "stack_moments",
    "read_moments_csv",
    "MomentFold",
    "aggregate_moment_matching",
    "aggregate_naive",
]


@functools.lru_cache(maxsize=64)
def _decay(lam: float, g: int) -> np.ndarray:
    """The (g, 1) column lam^(g-1), ..., lam, 1 that weighs g cohorts' moments
    in one EMA step.  Built once per (momentum, cohort count) and shared by
    every caller, so it is read-only."""
    decay = lam ** np.arange(g - 1, -1, -1)[:, None]
    decay.flags.writeable = False
    return decay


def ema_update(ema: ChannelStats, batch: ChannelStats,
               momentum: float) -> ChannelStats:
    """One EMA step per cohort: new = momentum * old + (1 - momentum) * batch,
    as new (C,) statistics of count 1; ``ema`` is left as it was.

    (G, C) moments of a cohort stack fold in closed form as G sequential
    steps in cohort order, lam^G * old + (1 - lam) * sum_g lam^(G-1-g) * s_g,
    which equals the sequential steps to rounding.  A single cohort takes
    exactly the one-step formula.
    """
    # a chained comparison makes no Python call
    if not 0.0 <= momentum <= 1.0:
        raise InvalidParams(f"momentum must be in [0, 1], got {momentum}")
    c = batch.mean.shape[-1]
    if c != ema.mean.shape[0]:
        raise ShapeMismatch(f"EMA has {ema.mean.shape[0]} channels, batch has {c}")
    lam = momentum
    if batch.mean.ndim == 1:
        return ChannelStats(lam * ema.mean + (1.0 - lam) * batch.mean,
                            lam * ema.var + (1.0 - lam) * batch.var, 1)
    g = batch.mean.shape[0]
    decay = _decay(lam, g)
    return ChannelStats(
        lam**g * ema.mean + (1.0 - lam) * np.add.reduce(decay * batch.mean, axis=0),
        lam**g * ema.var + (1.0 - lam) * np.add.reduce(decay * batch.var, axis=0),
        1,
    )


def stack_moments(entries):
    """(K, C) means, (K, C) variances and (K,) element counts of a list of
    batch moments, one row per mini-batch in order; an entry is (C,) moments
    or the (G, C) moments of a pass over a stack of G mini-batches."""
    if not entries:
        raise EmptyLog("no batch moments to stack")
    c = entries[0].channels
    if len({e.channels for e in entries}) != 1:
        raise ShapeMismatch("batch moments disagree on channel count")
    return (np.concatenate([e.mean.reshape(-1, c) for e in entries]),
            np.concatenate([e.var.reshape(-1, c) for e in entries]),
            np.repeat([e.count for e in entries],
                      [e.mean.size // c for e in entries]))


_CSV_HEADER = ["batch_index", "channel", "mean", "var", "count"]


def read_moments_csv(text):
    """The (C,) ChannelStats of each ``batch_index`` of a moments CSV (README,
    ``bnlab estimate``), in ascending order.  Raises MalformedCsv on a bad
    header or row, a batch with a missing or repeated channel or with
    channels of different counts, batches of different channel counts, and
    counts that sum above 2**53."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedCsv("empty moments file") from None
    if header != _CSV_HEADER:
        raise MalformedCsv(f"expected header {_CSV_HEADER}, got {header}")
    batches = {}  # batch index -> (count, {channel: (mean, var)})
    for line in reader:
        if not line:
            continue
        try:  # a row of other than 5 fields fails to unpack: ValueError
            idx, chan, mean, var, count = line
            idx, chan, count = int(idx), int(chan), int(count)
            mean, var = float(mean), float(var)
        except ValueError as exc:
            raise MalformedCsv(f"bad row {line!r}") from exc
        if not (np.isfinite(mean) and np.isfinite(var)) or var < 0 or count < 1:
            raise MalformedCsv(f"bad row {line!r}: mean and var must be finite, "
                               "var >= 0 and count >= 1")
        first_count, chans = batches.setdefault(idx, (count, {}))
        if chan in chans:
            raise MalformedCsv(f"batch {idx} repeats channel {chan}")
        if count != first_count:
            raise MalformedCsv(f"batch {idx} has channels with different counts")
        chans[chan] = (mean, var)
    if not batches:
        raise MalformedCsv("moments file contains no data rows")
    entries, total = [], 0
    for idx in sorted(batches):
        count, chans = batches[idx]
        # int64 sums and float64 weights pool counts exactly up to 2**53
        total += count
        if total > 2**53:
            raise MalformedCsv(f"batch {idx} takes the count total above 2**53")
        c = len(chans)
        if sorted(chans) != list(range(c)):
            raise MalformedCsv(f"batch {idx} has missing channels")
        if entries and c != entries[0].channels:
            raise MalformedCsv(f"batch {idx} has {c} channels, not "
                               f"{entries[0].channels} as the first batch")
        mean, var = np.array([chans[j] for j in range(c)]).T
        entries.append(ChannelStats(mean=mean, var=var, count=count))
    return entries


class MomentFold:
    """Batch moments folded into count-weighted running sums as they come,
    so a pass holds no log of them: ``total`` elements, ``first`` = sum of
    count * mean and ``second`` = sum of count * (mean^2 + var), (C,) each.
    ``append`` takes one entry of a moment log, so a fold is a moment sink
    of ``Network.evaluate``; ``aggregate_moment_matching`` pools the sums.

    Each sum adds its mini-batch rows one after another in log order, from
    zero, at every channel count, so a log folded in any split has the bits
    of one in-order sum over all its rows.
    """

    def __init__(self):
        self.total = 0
        self.first = self.second = None

    def append(self, moments):
        """Fold in one entry of a moment log: (C,) moments, or the (G, C)
        moments of G mini-batches, in order."""
        c = moments.mean.shape[-1]
        means = moments.mean.reshape(-1, c)
        k = means.shape[0]
        if self.first is None:
            self.first, self.second = np.zeros(c), np.zeros(c)
        elif c != self.first.shape[0]:
            raise ShapeMismatch("batch moments disagree on channel count")
        # the running sums' row, then the K new count-weighted rows, each
        # summed by an accumulate, which adds rows in order at any C; the
        # sums are copied out so that they pin no block
        first = np.empty((1 + k, c))
        second = np.empty_like(first)
        first[0], second[0] = self.first, self.second
        np.multiply(means, moments.count, out=first[1:])
        rows = np.square(means, out=second[1:])
        rows += moments.var.reshape(-1, c)
        rows *= moments.count
        self.total += moments.count * k
        self.first[:] = np.add.accumulate(first, axis=0, out=first)[-1]
        self.second[:] = np.add.accumulate(second, axis=0, out=second)[-1]


def aggregate_moment_matching(entries, bessel: bool = False) -> ChannelStats:
    """Pool batch moments through per-batch E[mu], E[mu^2 + var]: a list of
    them, folded one entry at a time, or a ``MomentFold`` of them.

    Mini-batches with unequal element counts are weighted by count, which
    makes the result identical (to rounding) to the moments of the
    concatenated population.  With ``bessel`` the pooled variance is
    rescaled by N / (N - 1) where N is the total element count.
    """
    fold = entries
    if not isinstance(fold, MomentFold):
        fold = MomentFold()
        for entry in entries:
            fold.append(entry)
    if fold.first is None:
        raise EmptyLog("no batch moments to pool")
    total = fold.total
    mean = fold.first / total
    second = fold.second / total
    var = second - mean**2
    if bessel:
        if total < 2:
            raise DegenerateBatch("bessel correction needs at least 2 elements")
        var = var * total / (total - 1)
    return ChannelStats(mean=mean, var=np.maximum(var, 0.0), count=total)


def aggregate_naive(entries) -> ChannelStats:
    """The original aggregation: mean of means, B/(B-1) * mean of variances.

    Requires every mini-batch to carry the same element count B >= 2.
    """
    means, variances, counts = stack_moments(entries)
    b = int(counts[0])
    if (counts != b).any():
        # two of the counts, not numpy's line-wrapped print of them all
        raise DegenerateBatch("naive aggregation needs equal batch counts, got "
                              f"{b} and {counts[counts != b][0]}")
    if b < 2:
        raise DegenerateBatch(f"naive aggregation needs batch count >= 2, got {b}")
    k = len(means)
    mean = np.add.reduce(means, axis=0) / k
    var = (b / (b - 1)) * np.add.reduce(variances, axis=0) / k
    return ChannelStats(mean=mean, var=var, count=b * k)
