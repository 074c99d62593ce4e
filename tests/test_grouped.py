"""Grouped cohort passes against the per-cohort loops they replace.

The reference functions below run one network pass per normalization
cohort (or per mini-batch), the way training, precise-BN and mini-batch
evaluation worked before cohorts were stacked.  Every grouped result must be
bit-identical to them; only the EMA, folded in closed form, may differ by
rounding.
"""

import numpy as np
import pytest

from bnlab.batching import NormBatchPlan, cohort_indices
from bnlab.layer import BnLayer, BnMode
from bnlab.net import (
    Affine,
    Linear,
    MeanPool,
    Network,
    Relu,
    SgdConfig,
    classification_error,
    softmax_cross_entropy,
    train,
)
from bnlab.precise import precise_bn, precise_bn_layerwise
from bnlab.stats import BatchMomentLog, aggregate_moment_matching
from bnlab.tensor import ChannelStats, as_tensor4

CHANNELS, SITES, HIDDEN, CLASSES = 8, 4, 16, 5


def _net(seed=0):
    rng = np.random.default_rng(seed)
    return Network([
        Linear.init(rng, CHANNELS, HIDDEN),
        BnLayer(HIDDEN),
        Affine.identity(HIDDEN),
        Relu(),
        Linear.init(rng, HIDDEN, HIDDEN),
        BnLayer(HIDDEN),
        Affine.identity(HIDDEN),
        Relu(),
        MeanPool(),
        Linear.init(rng, HIDDEN, CLASSES),
    ])


def _data(n, seed=1):
    rng = np.random.default_rng(seed)
    centers = 3.0 * rng.standard_normal((CLASSES, CHANNELS, SITES, 1))
    labels = rng.integers(0, CLASSES, n)
    x = centers[labels] + rng.standard_normal((n, CHANNELS, SITES, 1))
    return x, labels


X_POOL, Y_POOL = _data(512)


def _batch_fn(rng, size):
    idx = rng.integers(0, X_POOL.shape[0], size=size)
    return X_POOL[idx], Y_POOL[idx]


# ---------------------------------------------------------------------------
# reference per-cohort loops


def _ref_accumulate(total, grads):
    for i, g in enumerate(grads):
        if not g:
            continue
        if total[i] is None:
            total[i] = {k: v.copy() for k, v in g.items()}
        else:
            for k, v in g.items():
                total[i][k] += v


def _ref_sgd_step(net, x, labels, cfg, step, plan, rng, velocity):
    n = x.shape[0]
    cohorts = (
        cohort_indices(plan, n, rng) if plan is not None else [np.arange(n)]
    )
    modes = {
        i: (BnMode.FROZEN if net.layers[i].frozen is not None
            else BnMode.TRAIN_MINIBATCH)
        for i in net.bn_indices
    }
    totals = [None] * len(net.layers)
    loss_sum = 0.0
    for idx in cohorts:
        xb = x[idx]
        stop_rows = None
        if plan is not None and plan.strategy == "virtual":
            extra = as_tensor4(plan.extra_source(rng))
            xb = np.concatenate([xb, extra], axis=0)
            stop_rows = np.arange(len(idx), xb.shape[0])
        logits, caches = net.forward(xb, modes=modes, update_stats=True)
        real = logits[: len(idx)]
        loss_c, dreal = softmax_cross_entropy(real, labels[idx])
        loss_sum += loss_c * len(idx)
        dlogits = np.zeros_like(logits)
        dlogits[: len(idx)] = dreal * (len(idx) / n)
        _, grads = net.backward(caches, dlogits, stop_rows=stop_rows)
        _ref_accumulate(totals, grads)
    lr = cfg.lr_at(step)
    for i, g in enumerate(totals):
        if not g:
            continue
        layer = net.layers[i]
        for k, gv in g.items():
            key = (i, k)
            v = velocity.get(key)
            v = gv if v is None else cfg.momentum * v + gv
            velocity[key] = v
            setattr(layer, k, getattr(layer, k) - lr * v)
    return loss_sum / n


def _ref_train(net, batch_fn, cfg, plan):
    rng = np.random.default_rng(cfg.seed)
    velocity = {}
    for step in range(cfg.steps):
        x, labels = batch_fn(rng, cfg.batch_size)
        _ref_sgd_step(net, x, labels, cfg, step, plan, rng, velocity)
    return net


def _ref_precise_bn(net, population, batch_size):
    sinks = {i: BatchMomentLog() for i in net.bn_indices}
    for start in range(0, population.shape[0], batch_size):
        net.forward(population[start : start + batch_size],
                    modes=BnMode.TRAIN_MINIBATCH, update_stats=False,
                    moment_sinks=sinks)
    return {i: aggregate_moment_matching(log) for i, log in sinks.items()}


def _ref_precise_bn_layerwise(net, population, batch_size):
    result = {}
    for j in net.bn_indices:
        modes = {i: BnMode.EVAL_POPULATION for i in result}
        for i in net.bn_indices:
            if i >= j:
                modes[i] = BnMode.TRAIN_MINIBATCH
        sink = {j: BatchMomentLog()}
        for start in range(0, population.shape[0], batch_size):
            net.forward(population[start : start + batch_size], modes=modes,
                        update_stats=False, pop_override=dict(result),
                        moment_sinks=sink)
        result[j] = aggregate_moment_matching(sink[j])
    return result


def _ref_minibatch_logits(net, x, sizes):
    out = []
    start = 0
    for s in sizes:
        logits, _ = net.forward(x[start : start + s],
                                modes=BnMode.EVAL_MINIBATCH)
        out.append(logits)
        start += s
    return np.concatenate(out)


def _ref_classification_error(net, x, labels, sizes):
    logits = _ref_minibatch_logits(net, x, sizes)
    return int((logits.argmax(axis=1) != labels).sum()) / x.shape[0]


# ---------------------------------------------------------------------------


def _assert_same_network(a, b):
    for la, lb in zip(a.layers, b.layers):
        for name in getattr(la, "param_names", ()):
            np.testing.assert_array_equal(getattr(la, name), getattr(lb, name))
        if isinstance(la, BnLayer):
            assert la.ema.update_count == lb.ema.update_count
            # the EMA folds cohorts in closed form: equal to rounding only
            np.testing.assert_allclose(la.ema.mean, lb.ema.mean,
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(la.ema.var, lb.ema.var,
                                       rtol=1e-12, atol=1e-12)


def _extra_source(rng):
    return rng.standard_normal((4, CHANNELS, SITES, 1))


PLANS = {
    "ghost1": (32, NormBatchPlan(strategy="ghost", sub_batch=1)),
    "ghost2": (32, NormBatchPlan(strategy="ghost", sub_batch=2)),
    "ghost8": (32, NormBatchPlan(strategy="ghost", sub_batch=8)),
    "ghost32": (32, NormBatchPlan(strategy="ghost", sub_batch=32)),
    # ragged ghost cohorts 4, 4, 2, 4, 4, 2: several runs per step
    "ghost_ragged": (20, NormBatchPlan(strategy="ghost", sub_batch=4,
                                       worker_sizes=[10, 10])),
    "per_worker_unequal": (8, NormBatchPlan(strategy="per_worker",
                                            worker_sizes=[3, 5])),
    "shuffle": (32, NormBatchPlan(strategy="shuffle", worker_sizes=[16, 16])),
    "sync": (32, NormBatchPlan(strategy="sync", worker_sizes=[16, 16])),
    "virtual": (32, NormBatchPlan(strategy="virtual", worker_sizes=[16, 16],
                                  extra_source=_extra_source, extra_count=4)),
    "plain": (32, None),
}


@pytest.mark.parametrize("name", sorted(PLANS))
def test_grouped_training_matches_per_cohort_loop(name):
    batch_size, plan = PLANS[name]
    cfg = SgdConfig(lr=0.05, steps=60, batch_size=batch_size, seed=3)
    grouped = train(_net(), _batch_fn, cfg, plan=plan)
    ref = _ref_train(_net(), _batch_fn, cfg, plan)
    _assert_same_network(grouped, ref)
    # training moved the parameters, so the comparison is not vacuous
    assert not np.array_equal(grouped.layers[0].weight, _net().layers[0].weight)


def test_grouped_training_with_a_frozen_layer_matches_per_cohort_loop():
    nets = []
    for _ in range(2):
        net = _net()
        net.layers[1].freeze(ChannelStats(np.full(HIDDEN, 0.5),
                                          np.full(HIDDEN, 2.0), 64))
        nets.append(net)
    cfg = SgdConfig(lr=0.05, steps=60, batch_size=32, seed=4)
    plan = NormBatchPlan(strategy="ghost", sub_batch=8)
    train(nets[0], _batch_fn, cfg, plan=plan)
    _ref_train(nets[1], _batch_fn, cfg, plan)
    _assert_same_network(nets[0], nets[1])
    assert nets[0].layers[1].ema.update_count == 0


def _trained_net():
    cfg = SgdConfig(lr=0.05, steps=30, batch_size=32, seed=5)
    return train(_net(), _batch_fn, cfg,
                 plan=NormBatchPlan(strategy="ghost", sub_batch=8))


@pytest.mark.parametrize("n,batch_size", [(10, 4), (600, 2), (601, 8),
                                          (300, 300)])
def test_grouped_precise_bn_matches_per_batch_loop(n, batch_size):
    net = _trained_net()
    pop, _ = _data(n, seed=6)
    got = precise_bn(net, pop, batch_size)
    ref = _ref_precise_bn(net, pop, batch_size)
    for i in ref:
        np.testing.assert_array_equal(got[i].mean, ref[i].mean)
        np.testing.assert_array_equal(got[i].var, ref[i].var)
        assert got[i].count == ref[i].count == n * SITES


@pytest.mark.parametrize("n,batch_size", [(10, 4), (601, 8)])
def test_grouped_precise_bn_layerwise_matches_per_batch_loop(n, batch_size):
    net = _trained_net()
    pop, _ = _data(n, seed=7)
    got = precise_bn_layerwise(net, pop, batch_size)
    ref = _ref_precise_bn_layerwise(net, pop, batch_size)
    for i in ref:
        np.testing.assert_array_equal(got[i].mean, ref[i].mean)
        np.testing.assert_array_equal(got[i].var, ref[i].var)


@pytest.mark.parametrize("sizes", [[5, 5], [4, 4, 2], [2] * 300,
                                   [3, 3, 7, 7, 7, 1]])
def test_grouped_minibatch_eval_matches_per_cohort_loop(sizes):
    net = _trained_net()
    x, y = _data(sum(sizes), seed=8)
    got = classification_error(net, x, y, mode=BnMode.EVAL_MINIBATCH,
                               cohort_sizes=sizes)
    assert got == _ref_classification_error(net, x, y, sizes)


def test_grouped_forward_logits_match_per_cohort_forwards():
    net = _trained_net()
    x, _ = _data(12, seed=9)
    logits, _ = net.forward(x.reshape(3, 4, *x.shape[1:]),
                            modes=BnMode.EVAL_MINIBATCH)
    assert logits.shape == (3, 4, CLASSES)
    np.testing.assert_array_equal(
        logits.reshape(12, CLASSES), _ref_minibatch_logits(net, x, [4, 4, 4]))


def test_cohort_stack_backward_keeps_the_stack_shape():
    net = _trained_net()
    x, labels = _data(12, seed=10)
    stack = x.reshape(3, 4, *x.shape[1:])
    logits, caches = net.forward(stack, modes=BnMode.TRAIN_MINIBATCH)
    _, dlogits = softmax_cross_entropy(logits, labels.reshape(3, 4))
    dx, grads = net.backward(caches, dlogits, stop_rows=[3])
    assert dx.shape == stack.shape
    # the stopped row of every cohort gets exactly zero gradient
    assert not dx[:, 3].any() and dx[:, :3].all()
    assert grads[0]["weight"].shape == (3, HIDDEN, CHANNELS)
