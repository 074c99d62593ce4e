"""Ways to carve samples into normalization batches: per-worker, ghost,
simulated sync, shuffle, and domain-specific policies."""

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


@dataclass
class NormBatchPlan:
    """How a logical SGD batch becomes normalization batches.

    strategy: per_worker | ghost | sync | shuffle
    worker_sizes carve the logical batch into workers (defaults to a single
    worker).  ghost needs sub_batch; shuffle draws a fresh permutation per
    step.
    """

    strategy: str = "sync"
    worker_sizes: list | None = None
    sub_batch: int | None = None

    def __post_init__(self):
        known = {"per_worker", "ghost", "sync", "shuffle"}
        if self.strategy not in known:
            raise InvalidPlan(f"unknown strategy {self.strategy!r}; expected one of {sorted(known)}")
        if self.strategy == "ghost" and (self.sub_batch is None or self.sub_batch < 1):
            raise InvalidPlan("ghost needs a positive sub_batch")

    def sizes_for(self, n: int):
        if self.worker_sizes is None:
            return [n]
        if sum(self.worker_sizes) != n:
            raise InvalidPlan(
                f"worker sizes {self.worker_sizes} do not sum to batch size {n}"
            )
        return list(self.worker_sizes)


def cohort_indices(plan: NormBatchPlan, n: int, rng=None):
    """Index arrays (into the logical batch) for each normalization cohort."""
    if n < 1:
        raise EmptyBatch("cannot plan cohorts for an empty batch")
    sizes = plan.sizes_for(n)
    order = np.arange(n)
    if plan.strategy == "shuffle":
        if rng is None:
            raise InvalidPlan("shuffle needs an rng for the per-step permutation")
        order = rng.permutation(n)
    cohorts = []
    start = 0
    for s in sizes:
        worker = order[start : start + s]
        start += s
        if plan.strategy == "ghost":
            for i in range(0, s, plan.sub_batch):
                cohorts.append(worker[i : i + plan.sub_batch])
        else:
            cohorts.append(worker)
    if plan.strategy == "sync":
        cohorts = [np.concatenate(cohorts)]
    return cohorts


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

