"""Normalization-batch construction: cohort planning and domain sharing
policies."""

import numpy as np
import pytest

from bnlab.batching import DomainPolicy, NormBatchPlan, cohort_indices
from bnlab.errors import EmptyBatch, InvalidPlan, InvalidPolicy


def test_plan_validation():
    with pytest.raises(InvalidPlan):
        NormBatchPlan(strategy="bogus")
    with pytest.raises(InvalidPlan):
        NormBatchPlan(strategy="ghost")  # needs sub_batch
    with pytest.raises(InvalidPlan):
        NormBatchPlan(strategy="virtual")  # not a strategy (no extra rows)
    plan = NormBatchPlan(strategy="per_worker", worker_sizes=[3, 5])
    with pytest.raises(InvalidPlan):
        plan.sizes_for(9)


def test_cohort_indices_per_worker_and_ghost():
    plan = NormBatchPlan(strategy="per_worker", worker_sizes=[3, 5])
    cohorts = cohort_indices(plan, 8)
    assert [list(c) for c in cohorts] == [[0, 1, 2], [3, 4, 5, 6, 7]]
    ghost = NormBatchPlan(strategy="ghost", worker_sizes=[4, 4], sub_batch=2)
    cohorts = cohort_indices(ghost, 8)
    assert [list(c) for c in cohorts] == [[0, 1], [2, 3], [4, 5], [6, 7]]


def test_cohort_indices_sync_pools_everything():
    plan = NormBatchPlan(strategy="sync", worker_sizes=[2, 3])
    (cohort,) = cohort_indices(plan, 5)
    assert list(cohort) == [0, 1, 2, 3, 4]


def test_cohort_indices_shuffle_permutes_and_needs_rng():
    plan = NormBatchPlan(strategy="shuffle", worker_sizes=[4, 4])
    with pytest.raises(InvalidPlan):
        cohort_indices(plan, 8)
    rng = np.random.default_rng(0)
    cohorts = cohort_indices(plan, 8, rng)
    joined = sorted(np.concatenate(cohorts).tolist())
    assert joined == list(range(8))
    with pytest.raises(EmptyBatch):
        cohort_indices(plan, 0, rng)


def test_domain_policy_validation():
    with pytest.raises(InvalidPolicy):
        DomainPolicy(sgd_stats="global")
    policy = DomainPolicy()
    assert policy.sgd_stats == "shared"

