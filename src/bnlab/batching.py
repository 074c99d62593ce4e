"""Ways to carve samples into normalization batches: ghost and shuffled
cohorts."""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, InvalidPlan

__all__ = ["NormBatchPlan", "cohort_indices"]

STRATEGIES = ("ghost", "shuffle")


@dataclass
class NormBatchPlan:
    """Which rows share statistics: cohorts of ``sub_batch`` rows, the last
    one ragged, in order (ghost) or from a permutation drawn per call
    (shuffle).  Training (``train(plan=)``; no plan is the whole batch, as
    SyncBN), mini-batch evaluation and precise BN all say it this way."""

    strategy: str
    sub_batch: int

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise InvalidPlan(f"unknown strategy {self.strategy!r}; "
                              f"expected one of {list(STRATEGIES)}")
        if self.sub_batch is None or self.sub_batch < 1:
            raise InvalidPlan(f"{self.strategy} needs a positive sub_batch")


def cohort_indices(plan: NormBatchPlan, n: int, rng=None):
    """Index arrays into ``n`` rows, one per cohort of the plan (a shuffle
    draws one ``rng.permutation(n)``): the one map from rows to cohorts."""
    if n < 1:
        raise EmptyBatch("cannot plan cohorts for an empty batch")
    if plan.strategy == "shuffle" and rng is None:
        raise InvalidPlan("shuffle needs an rng for the per-step permutation")
    order = rng.permutation(n) if plan.strategy == "shuffle" else np.arange(n)
    return [order[i : i + plan.sub_batch] for i in range(0, n, plan.sub_batch)]

