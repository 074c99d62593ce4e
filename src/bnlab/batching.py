"""Ways to carve samples into normalization batches: per-worker, ghost,
simulated sync, virtual, shuffle, and domain-specific policies."""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyBatch,
    InvalidPlan,
    InvalidPolicy,
    MissingDomainId,
    ShapeMismatch,
)
from .tensor import (
    as_tensor4,
    channel_moments,
    concat_batch,
    flatten_spatial_concat,
    normalize,
)

__all__ = [
    "WorkerLayout",
    "NormBatchPlan",
    "NormBatch",
    "plan_normalization_batches",
    "cohort_indices",
    "cohort_runs",
    "even_sizes",
    "DomainPolicy",
    "apply_domain_policy",
]

SHARED = "shared"
PER_DOMAIN = "per_domain"


@dataclass
class WorkerLayout:
    """One tensor per simulated worker; workers may hold unequal sample counts."""

    worker_batches: list

    def __post_init__(self):
        if not self.worker_batches:
            raise InvalidPlan("layout needs at least one worker")
        self.worker_batches = [as_tensor4(b) for b in self.worker_batches]
        chw = self.worker_batches[0].shape[1:]
        for b in self.worker_batches:
            if b.shape[1:] != chw:
                raise ShapeMismatch("workers disagree on (C, H, W)")

    @property
    def sizes(self):
        return [b.shape[0] for b in self.worker_batches]


@dataclass
class NormBatchPlan:
    """How a logical SGD batch becomes normalization batches.

    strategy: per_worker | ghost | sync | virtual | shuffle
    worker_sizes carve the logical batch into workers (defaults to a single
    worker).  ghost needs sub_batch; virtual needs an extra-sample source
    (callable rng -> tensor); shuffle draws a fresh permutation per step.
    """

    strategy: str = "sync"
    worker_sizes: list | None = None
    sub_batch: int | None = None
    extra_source: object = None
    extra_count: int = 0

    def __post_init__(self):
        known = {"per_worker", "ghost", "sync", "virtual", "shuffle"}
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


@dataclass
class NormBatch:
    """One normalization cohort plus the routing back to source positions.

    ``indices`` maps each cohort row to its position in the logical batch;
    virtual extra rows carry index -1 and are excluded from gradient flow.
    """

    data: np.ndarray
    indices: np.ndarray
    n_real: int = field(default=-1)

    def __post_init__(self):
        if self.n_real < 0:
            self.n_real = len(self.indices)


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


def plan_normalization_batches(layout: WorkerLayout, plan: NormBatchPlan, rng=None):
    """Materialize the normalization batches for a worker layout.

    Returns a list of NormBatch whose ``indices`` route rows back to the
    flattened (worker-concatenated) sample order.
    """
    full = concat_batch(layout.worker_batches)
    sized_plan = NormBatchPlan(
        strategy=plan.strategy,
        worker_sizes=layout.sizes,
        sub_batch=plan.sub_batch,
        extra_source=plan.extra_source,
        extra_count=plan.extra_count,
    )
    cohorts = cohort_indices(sized_plan, full.shape[0], rng=rng)
    out = []
    for idx in cohorts:
        data = full[idx]
        if plan.strategy == "virtual":
            if plan.extra_source is None or plan.extra_count < 1:
                raise InvalidPlan("virtual needs an extra-sample source and count")
            extra = as_tensor4(plan.extra_source(rng))
            if extra.shape[0] != plan.extra_count:
                raise InvalidPlan("extra source returned the wrong sample count")
            data = concat_batch([data, extra])
            idx = np.concatenate([idx, -np.ones(plan.extra_count, dtype=int)])
            out.append(NormBatch(data=data, indices=idx, n_real=len(idx) - plan.extra_count))
        else:
            out.append(NormBatch(data=data, indices=idx))
    return out


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


def apply_domain_policy(
    features: list,
    policy: DomainPolicy,
    *,
    eps: float = 1e-5,
    mode: str = "minibatch",
    pop_stats=None,
    affine_params=None,
    domain_ids=None,
):
    """Normalize one batch of features per domain under a sharing policy.

    mode="minibatch" computes statistics from the inputs themselves: shared
    pools every domain's elements into one moment set, per_domain computes
    moments per input.  mode="population" normalizes by supplied stats:
    either a single ChannelStats (shared) or a mapping domain id -> stats
    (per_domain, which requires ``domain_ids``).  ``affine_params`` is
    either one (gamma, beta) pair or a mapping domain id -> pair.
    """
    if not features:
        raise EmptyBatch("no domain features")
    features = [as_tensor4(f) for f in features]
    if mode not in ("minibatch", "population"):
        raise InvalidPolicy(f"unknown mode {mode!r}")

    def _domain_id(i):
        if domain_ids is None:
            raise MissingDomainId(
                "per-domain state requires explicit domain ids on the batch"
            )
        return domain_ids[i]

    if mode == "minibatch":
        if policy.sgd_stats == SHARED:
            combined = flatten_spatial_concat(features)
            stats = [channel_moments(combined.combined)] * len(features)
        else:
            stats = [channel_moments(f) for f in features]
    else:
        if policy.pop_stats == SHARED:
            if pop_stats is None:
                raise InvalidPolicy("population mode requires pop_stats")
            stats = [pop_stats] * len(features)
        else:
            if pop_stats is None:
                raise InvalidPolicy("population mode requires pop_stats")
            stats = [pop_stats[_domain_id(i)] for i in range(len(features))]

    outputs = [normalize(f, s, eps) for f, s in zip(features, stats)]

    if affine_params is not None:
        from .tensor import affine as affine_op

        if policy.affine == SHARED:
            gamma, beta = affine_params
            outputs = [affine_op(y, gamma, beta) for y in outputs]
        else:
            outputs = [
                affine_op(y, *affine_params[_domain_id(i)])
                for i, y in enumerate(outputs)
            ]
    return outputs
