"""Normalization-batch construction: cohort planning and domain sharing
policies."""

import numpy as np
import pytest

from bnlab.batching import DomainPolicy, NormBatchPlan, cohort_indices
from bnlab.errors import EmptyBatch, InvalidPlan, InvalidPolicy


def test_plan_validation():
    with pytest.raises(InvalidPlan):
        NormBatchPlan(strategy="bogus", sub_batch=2)
    with pytest.raises(InvalidPlan):
        NormBatchPlan(strategy="virtual", sub_batch=2)  # not a strategy (no extra rows)
    # per-worker cohorts are ghost cohorts; the whole batch is no plan
    for strategy in ("per_worker", "sync"):
        with pytest.raises(InvalidPlan, match="unknown strategy"):
            NormBatchPlan(strategy=strategy, sub_batch=2)
    for strategy in ("ghost", "shuffle"):
        for sub_batch in (None, 0, -1):
            with pytest.raises(InvalidPlan, match="positive sub_batch"):
                NormBatchPlan(strategy=strategy, sub_batch=sub_batch)


def test_cohort_indices_ghost_keeps_the_ragged_tail():
    cohorts = cohort_indices(NormBatchPlan(strategy="ghost", sub_batch=3), 8)
    assert [list(c) for c in cohorts] == [[0, 1, 2], [3, 4, 5], [6, 7]]
    ghost = NormBatchPlan(strategy="ghost", sub_batch=2)
    cohorts = cohort_indices(ghost, 8)
    assert [list(c) for c in cohorts] == [[0, 1], [2, 3], [4, 5], [6, 7]]


def test_cohort_indices_shuffle_permutes_and_needs_rng():
    plan = NormBatchPlan(strategy="shuffle", sub_batch=4)
    with pytest.raises(InvalidPlan):
        cohort_indices(plan, 8)
    rng = np.random.default_rng(0)
    cohorts = cohort_indices(plan, 8, rng)
    joined = sorted(np.concatenate(cohorts).tolist())
    assert joined == list(range(8))
    with pytest.raises(EmptyBatch):
        cohort_indices(plan, 0, rng)


def test_shuffle_cohorts_are_sub_batch_slices_of_one_permutation():
    # the cohorts two shuffled workers of 16 rows each got
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    cohorts = cohort_indices(NormBatchPlan("shuffle", 16), 32, rng)
    expected = np.split(ref_rng.permutation(32), 2)
    assert len(cohorts) == 2
    for got, want in zip(cohorts, expected):
        np.testing.assert_array_equal(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_domain_policy_validation():
    with pytest.raises(InvalidPolicy):
        DomainPolicy(sgd_stats="global")
    policy = DomainPolicy()
    assert policy.sgd_stats == "shared"

