"""Normalization-batch construction: cohort planning, sync pooling, virtual
samples, and domain sharing policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnlab.batching import (
    DomainPolicy,
    NormBatchPlan,
    WorkerLayout,
    apply_domain_policy,
    cohort_indices,
    plan_normalization_batches,
)
from bnlab.errors import (
    EmptyBatch,
    InvalidPlan,
    InvalidPolicy,
    MissingDomainId,
    ShapeMismatch,
)
from bnlab.tensor import channel_moments, normalize, pooled_moments


def test_plan_validation():
    with pytest.raises(InvalidPlan):
        NormBatchPlan(strategy="bogus")
    with pytest.raises(InvalidPlan):
        NormBatchPlan(strategy="ghost")  # needs sub_batch
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


def test_worker_layout_validation():
    with pytest.raises(InvalidPlan):
        WorkerLayout([])
    with pytest.raises(ShapeMismatch):
        WorkerLayout([np.zeros((2, 3, 1, 1)), np.zeros((2, 4, 1, 1))])
    layout = WorkerLayout([np.zeros((2, 3, 1, 1)), np.zeros((5, 3, 1, 1))])
    assert layout.sizes == [2, 5]


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 7), min_size=1, max_size=4),
    seed=st.integers(0, 10**6),
)
def test_sync_moments_equal_concat(sizes, seed):
    rng = np.random.default_rng(seed)
    parts = [rng.standard_normal((s, 2, 2, 1)) for s in sizes]
    pooled = pooled_moments([channel_moments(p) for p in parts])
    ref = channel_moments(np.concatenate(parts, axis=0))
    np.testing.assert_allclose(pooled.mean, ref.mean, atol=1e-12)
    np.testing.assert_allclose(pooled.var, ref.var, atol=1e-12)


def test_plan_normalization_batches_virtual_rows():
    rng = np.random.default_rng(1)
    extra = rng.standard_normal((2, 3, 1, 1))
    plan = NormBatchPlan(strategy="virtual", extra_source=lambda r: extra,
                         extra_count=2)
    layout = WorkerLayout([rng.standard_normal((4, 3, 1, 1))])
    (batch,) = plan_normalization_batches(layout, plan, rng)
    assert batch.data.shape[0] == 6
    assert batch.n_real == 4
    assert list(batch.indices[4:]) == [-1, -1]
    np.testing.assert_array_equal(batch.data[4:], extra)


def test_plan_normalization_batches_virtual_validation():
    rng = np.random.default_rng(2)
    layout = WorkerLayout([rng.standard_normal((4, 3, 1, 1))])
    with pytest.raises(InvalidPlan):
        plan_normalization_batches(
            layout, NormBatchPlan(strategy="virtual"), rng)
    bad = NormBatchPlan(strategy="virtual",
                        extra_source=lambda r: rng.standard_normal((3, 3, 1, 1)),
                        extra_count=2)
    with pytest.raises(InvalidPlan):
        plan_normalization_batches(layout, bad, rng)


def test_domain_policy_validation():
    with pytest.raises(InvalidPolicy):
        DomainPolicy(sgd_stats="global")
    policy = DomainPolicy()
    assert policy.sgd_stats == "shared"


def test_apply_domain_policy_shared_minibatch_pools_domains():
    rng = np.random.default_rng(3)
    # equal (N, C) per domain; spatial extent may differ
    feats = [rng.standard_normal((4, 3, 2, 2)), rng.standard_normal((4, 3, 1, 5))]
    outs = apply_domain_policy(feats, DomainPolicy(sgd_stats="shared"))
    union = np.concatenate([f.reshape(4, 3, -1) for f in feats], axis=2)
    pooled = channel_moments(union[:, :, :, None])
    for f, y in zip(feats, outs):
        np.testing.assert_allclose(y, normalize(f, pooled, 1e-5), atol=1e-12)


def test_apply_domain_policy_per_domain_minibatch():
    rng = np.random.default_rng(4)
    feats = [rng.standard_normal((4, 3, 1, 1)), rng.standard_normal((6, 3, 1, 1))]
    outs = apply_domain_policy(feats, DomainPolicy(sgd_stats="per_domain"))
    for f, y in zip(feats, outs):
        np.testing.assert_allclose(y, normalize(f, channel_moments(f), 1e-5),
                                   atol=1e-12)


def test_apply_domain_policy_population_modes():
    rng = np.random.default_rng(5)
    feats = [rng.standard_normal((4, 2, 1, 1)) for _ in range(2)]
    shared_stats = channel_moments(np.concatenate(feats, axis=0))
    outs = apply_domain_policy(feats, DomainPolicy(pop_stats="shared"),
                               mode="population", pop_stats=shared_stats)
    np.testing.assert_allclose(outs[0], normalize(feats[0], shared_stats, 1e-5))
    per = {0: channel_moments(feats[0]), 1: channel_moments(feats[1])}
    outs = apply_domain_policy(feats, DomainPolicy(pop_stats="per_domain"),
                               mode="population", pop_stats=per,
                               domain_ids=[0, 1])
    np.testing.assert_allclose(outs[1], normalize(feats[1], per[1], 1e-5))
    with pytest.raises(MissingDomainId):
        apply_domain_policy(feats, DomainPolicy(pop_stats="per_domain"),
                            mode="population", pop_stats=per)
    with pytest.raises(InvalidPolicy):
        apply_domain_policy(feats, DomainPolicy(), mode="population")
    with pytest.raises(InvalidPolicy):
        apply_domain_policy(feats, DomainPolicy(), mode="weird")
    with pytest.raises(EmptyBatch):
        apply_domain_policy([], DomainPolicy())


def test_apply_domain_policy_affine_sharing():
    rng = np.random.default_rng(6)
    feats = [rng.standard_normal((4, 2, 1, 1)) for _ in range(2)]
    gamma, beta = np.array([2.0, 3.0]), np.array([-1.0, 1.0])
    shared = apply_domain_policy(feats, DomainPolicy(affine="shared"),
                                 affine_params=(gamma, beta))
    plain = apply_domain_policy(feats, DomainPolicy())
    for y, p in zip(shared, plain):
        np.testing.assert_allclose(
            y, p * gamma[None, :, None, None] + beta[None, :, None, None])
    per = apply_domain_policy(
        feats, DomainPolicy(affine="per_domain"),
        affine_params={0: (gamma, beta), 1: (2 * gamma, beta)},
        domain_ids=[0, 1])
    np.testing.assert_allclose(
        per[1], plain[1] * (2 * gamma)[None, :, None, None]
        + beta[None, :, None, None])
