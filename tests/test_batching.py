"""Normalization-batch construction: cohort planning, cohort stacking and
domain sharing policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnlab.batching import STRATEGIES, DomainPolicy, NormBatchPlan, cohort_indices
from bnlab.errors import EmptyBatch, InvalidPlan, InvalidPolicy
from bnlab.net import cohort_stacks


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



# a plan over n rows and the seed of the rng a shuffle draws from
plans = st.tuples(st.sampled_from(STRATEGIES), st.integers(1, 300),
                  st.integers(1, 64), st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(plans)
def test_cohort_indices_partitions_the_rows_into_sub_batches(case):
    strategy, n, sub_batch, seed = case
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    cohorts = cohort_indices(NormBatchPlan(strategy, sub_batch), n, rng)
    sizes = [len(c) for c in cohorts]
    # sub_batch rows each, but a ragged last one
    assert sizes[:-1] == [sub_batch] * (len(sizes) - 1)
    assert 1 <= sizes[-1] <= sub_batch and sum(sizes) == n
    order = np.concatenate(cohorts)
    if strategy == "ghost":
        # the batch order, and no draw
        np.testing.assert_array_equal(order, np.arange(n))
    else:
        # the cohorts are consecutive slices of one permutation(n) draw
        np.testing.assert_array_equal(order, twin.permutation(n))
    assert rng.bit_generator.state == twin.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(plans, st.one_of(st.none(), st.integers(1, 100)))
def test_cohort_stacks_hold_each_cohort_in_order(case, max_rows):
    strategy, n, sub_batch, seed = case
    plan = NormBatchPlan(strategy, sub_batch)
    x = np.arange(n * 6, dtype=np.float64).reshape(n, 3, 2, 1)
    labels = np.arange(n) * 7
    cohorts = cohort_indices(plan, n, np.random.default_rng(seed))
    stacks = cohort_stacks(x, plan, cohorts, max_rows=max_rows)
    got_x, got_labels = [], []
    for rows, stack in stacks:
        g, size = stack.shape[:2]
        assert stack.shape[2:] == x.shape[1:]
        # at most max_rows rows, or one cohort
        assert max_rows is None or g * size <= max_rows or g == 1
        got_x += list(stack)
        got_labels += list(labels[rows].reshape(g, size))
    assert len(got_x) == len(got_labels) == len(cohorts)
    for cohort, xs, ys in zip(cohorts, got_x, got_labels):
        np.testing.assert_array_equal(xs, x[cohort])
        np.testing.assert_array_equal(ys, labels[cohort])
    if max_rows is None:
        # one stack per run of equal-size cohorts
        assert len(stacks) == len(set(map(len, cohorts)))
