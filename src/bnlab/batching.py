"""Ways to carve samples into normalization batches: ghost and shuffled
cohorts, and domain-specific policies."""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, InvalidPlan, InvalidPolicy

__all__ = [
    "NormBatchPlan",
    "cohort_indices",
    "cohort_runs",
    "even_sizes",
    "DomainPolicy",
]

SHARED = "shared"
PER_DOMAIN = "per_domain"
STRATEGIES = ("ghost", "shuffle")


@dataclass
class NormBatchPlan:
    """How a logical SGD batch becomes normalization cohorts of ``sub_batch``
    rows, the last one ragged: ghost takes the rows in batch order, shuffle
    in a fresh permutation drawn each step.  No plan (``train(plan=None)``)
    normalizes the whole batch as one cohort, as SyncBN does."""

    strategy: str
    sub_batch: int

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise InvalidPlan(f"unknown strategy {self.strategy!r}; "
                              f"expected one of {list(STRATEGIES)}")
        if self.sub_batch is None or self.sub_batch < 1:
            raise InvalidPlan(f"{self.strategy} needs a positive sub_batch")


def cohort_indices(plan: NormBatchPlan, n: int, rng=None):
    """Index arrays (into the logical batch) for each normalization cohort."""
    if n < 1:
        raise EmptyBatch("cannot plan cohorts for an empty batch")
    if plan.strategy == "shuffle" and rng is None:
        raise InvalidPlan("shuffle needs an rng for the per-step permutation")
    order = rng.permutation(n) if plan.strategy == "shuffle" else np.arange(n)
    return [order[i : i + plan.sub_batch] for i in range(0, n, plan.sub_batch)]


def even_sizes(n: int, size: int) -> list:
    """``size``-row chunks covering n rows, the last one ragged."""
    return [size] * (n // size) + ([n % size] if n % size else [])


def cohort_runs(sizes, max_rows=None) -> list:
    """Split cohort sizes into runs of consecutive equal sizes, as (first
    cohort, cohort count, size) triples.  With ``max_rows`` a run holds at
    most max_rows // size cohorts, and at least one."""
    runs = []
    first = 0
    for size, run in itertools.groupby(sizes):
        end = first + len(list(run))
        per = end - first if max_rows is None else max(1, max_rows // max(size, 1))
        runs += [(k, min(per, end - k), size) for k in range(first, end, per)]
        first = end
    return runs


@dataclass(frozen=True)
class DomainPolicy:
    """Shared vs per-domain choices for the three BN knobs."""

    sgd_stats: str = SHARED
    pop_stats: str = SHARED
    affine: str = SHARED

    def __post_init__(self):
        for name in ("sgd_stats", "pop_stats", "affine"):
            if getattr(self, name) not in (SHARED, PER_DOMAIN):
                raise InvalidPolicy(f"{name} must be 'shared' or 'per_domain'")

