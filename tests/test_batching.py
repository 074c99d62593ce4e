"""Normalization-batch construction: cohort planning and the BN layer's
cohort view."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnlab.batching import STRATEGIES, NormBatchPlan, cohort_indices
from bnlab.errors import EmptyBatch, InvalidPlan
from bnlab.layer import BnLayer, BnMode
from conftest import drawn


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



# a plan over n rows and the seed of the rng a shuffle draws from
plans = st.tuples(st.sampled_from(STRATEGIES), st.integers(1, 300),
                  st.integers(1, 64), st.integers(0, 2**32 - 1))


@drawn(100)
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


@drawn(100)
@given(plans)
def test_bn_cohort_view_normalizes_each_cohort_alone(case):
    # the rows in cohort_indices' order, as a step or an evaluation gathers
    # them, viewed per cohort by BN: each cohort's rows, moments and EMA
    # step are those of a forward over that cohort alone
    strategy, n, sub_batch, seed = case
    x = np.random.default_rng(seed).standard_normal((n, 3, 2, 1))
    cohorts = cohort_indices(NormBatchPlan(strategy, sub_batch), n,
                             np.random.default_rng(seed))
    rows = np.concatenate(cohorts)
    layer, alone = BnLayer(3), BnLayer(3)
    y, cache = layer.forward(x[rows], mode=BnMode.EVAL_MINIBATCH,
                             cohort=sub_batch)
    moments = [cache.moments] + ([] if cache.tail is None
                                 else [cache.tail.moments])
    means = np.concatenate([m.mean.reshape(-1, 3) for m in moments])
    assert len(means) == len(cohorts)
    start = 0
    for k, cohort in enumerate(cohorts):
        y_alone, c_alone = alone.forward(x[cohort], mode=BnMode.EVAL_MINIBATCH)
        np.testing.assert_array_equal(y[start : start + len(cohort)], y_alone)
        np.testing.assert_array_equal(means[k], c_alone.moments.mean)
        start += len(cohort)
