"""Grouped cohort passes against the per-cohort loops they replace.

The reference functions below run one network pass per normalization
cohort (or per mini-batch), the way training, precise-BN and mini-batch
evaluation worked before cohorts were stacked.  Every grouped result must be
bit-identical to them; only the EMA, folded in closed form, may differ by
rounding.
"""

import copy

import numpy as np
import pytest

from bnlab.batching import NormBatchPlan, cohort_indices
from bnlab.layer import BnLayer, BnMode
from bnlab.net import (
    Affine,
    Linear,
    MeanPool,
    Momentum,
    Network,
    Relu,
    SgdConfig,
    classification_error,
    sgd_step,
    softmax_cross_entropy,
    train,
)
from bnlab.precise import precise_bn, precise_bn_layerwise
from bnlab.stats import aggregate_moment_matching
from bnlab.tensor import ChannelStats

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
    totals = [None] * len(net.layers)
    loss_sum = 0.0
    for idx in cohorts:
        logits, caches = net.forward(x[idx])
        loss_c, dlogits = softmax_cross_entropy(logits, labels[idx])
        loss_sum += loss_c * len(idx)
        _, grads = net.backward(caches, dlogits * (len(idx) / n))
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
    sinks = {i: [] for i in net.bn_indices}
    for start in range(0, population.shape[0], batch_size):
        net.forward(population[start : start + batch_size],
                    mode=BnMode.EVAL_MINIBATCH, moment_sinks=sinks)
    return {i: aggregate_moment_matching(entries) for i, entries in sinks.items()}


def _ref_precise_bn_layerwise(net, population, batch_size):
    result = {}
    for j in net.bn_indices:
        sink = {j: []}
        for start in range(0, population.shape[0], batch_size):
            net.forward(population[start : start + batch_size],
                        mode=BnMode.EVAL_MINIBATCH, stats=dict(result),
                        moment_sinks=sink)
        result[j] = aggregate_moment_matching(sink[j])
    return result


def _ref_minibatch_logits(net, x, sizes):
    out = []
    start = 0
    for s in sizes:
        logits, _ = net.forward(x[start : start + s],
                                mode=BnMode.EVAL_MINIBATCH)
        out.append(logits)
        start += s
    return np.concatenate(out)


def _ref_classification_error(net, x, labels, sizes):
    logits = _ref_minibatch_logits(net, x, sizes)
    return int((logits.argmax(axis=1) != labels).sum()) / x.shape[0]


# ---------------------------------------------------------------------------


def _assert_same_network(a, b, exact_ema=False):
    for la, lb in zip(a.layers, b.layers):
        for name in getattr(la, "param_names", ()):
            np.testing.assert_array_equal(getattr(la, name), getattr(lb, name))
        if isinstance(la, BnLayer):
            assert la.ema.update_count == lb.ema.update_count
            if exact_ema:
                np.testing.assert_array_equal(la.ema.mean, lb.ema.mean)
                np.testing.assert_array_equal(la.ema.var, lb.ema.var)
                continue
            # the EMA folds cohorts in closed form: equal to rounding only
            np.testing.assert_allclose(la.ema.mean, lb.ema.mean,
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(la.ema.var, lb.ema.var,
                                       rtol=1e-12, atol=1e-12)


PLANS = {
    "ghost1": (32, NormBatchPlan(strategy="ghost", sub_batch=1)),
    "ghost2": (32, NormBatchPlan(strategy="ghost", sub_batch=2)),
    "ghost8": (32, NormBatchPlan(strategy="ghost", sub_batch=8)),
    "ghost32": (32, NormBatchPlan(strategy="ghost", sub_batch=32)),
    # ragged ghost cohorts 6, 6, 6, 2: two runs per step
    "ghost_ragged": (20, NormBatchPlan(strategy="ghost", sub_batch=6)),
    # unequal cohorts 3, 3, 2, as per-worker sizes [3, 5] gave unequal ones
    "ghost_unequal": (8, NormBatchPlan(strategy="ghost", sub_batch=3)),
    "shuffle": (32, NormBatchPlan(strategy="shuffle", sub_batch=16)),
    # the whole batch as one cohort
    "plain": (32, None),
}
# one cohort per step: the EMA takes the one-step formula, exactly
ONE_COHORT_PLANS = ("ghost32", "plain")


@pytest.mark.parametrize("name", sorted(PLANS))
def test_grouped_training_matches_per_cohort_loop(name):
    batch_size, plan = PLANS[name]
    cfg = SgdConfig(lr=0.05, steps=60, batch_size=batch_size, seed=3)
    grouped = train(_net(), _batch_fn, cfg, plan=plan)
    ref = _ref_train(_net(), _batch_fn, cfg, plan)
    _assert_same_network(grouped, ref, exact_ema=name in ONE_COHORT_PLANS)
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


def _stack_sgd_step(net, x, labels, cfg, step, plan, rng, optimizer):
    """``sgd_step`` as it ran a one-cohort batch before the plain-batch
    path: the cohort gathered into a (1, N, C, H, W) stack, its gradients
    reduced over the cohort axis into the optimizer."""
    n = x.shape[0]
    cohorts = [np.arange(n)] if plan is None else cohort_indices(plan, n, rng)
    assert len(cohorts) == 1
    idx = np.array(cohorts)
    logits, caches = net.forward(x[idx])
    loss_c, dlogits = softmax_cross_entropy(logits, labels[idx])
    loss_sum = sum(loss_c * n, 0.0)
    _, grads = net.backward(caches, dlogits * (n / n), input_grad=False)
    for g, out in zip(grads, optimizer.grads):
        for k, v in (g or {}).items():
            np.add.reduce(v, axis=0, out=out[k])
    optimizer.step(cfg.lr_at(step), cfg.momentum)
    return loss_sum / n


def _dense_net(seed=0):
    rng = np.random.default_rng(seed)
    return Network([
        Linear.init(rng, CHANNELS, HIDDEN),
        BnLayer(HIDDEN),
        Affine.identity(HIDDEN),
        Relu(),
        Linear.init(rng, HIDDEN, CLASSES),
    ])


@pytest.mark.parametrize("plan", [None, NormBatchPlan("ghost", 32),
                                  NormBatchPlan("shuffle", 32)],
                         ids=["plain", "ghost32", "shuffle32"])
@pytest.mark.parametrize("make_net", [_net, _dense_net], ids=["pool", "dense"])
def test_one_cohort_step_matches_the_stack_path(make_net, plan):
    cfg = SgdConfig(lr=0.05, steps=40, batch_size=32, warmup_steps=5)
    nets = [make_net(), make_net()]
    optimizers = [Momentum(net.layers) for net in nets]
    plan_rngs = [np.random.default_rng(2), np.random.default_rng(2)]
    data_rng = np.random.default_rng(3)
    for step in range(cfg.steps):
        x, labels = _batch_fn(data_rng, cfg.batch_size)
        if make_net is _dense_net:
            # one spatial site, a strided view of the batch
            x = x[:, :, :1]
        before = x.copy()
        losses = [run(net, x, labels, cfg, step, plan, rng, opt)
                  for run, net, rng, opt in zip((sgd_step, _stack_sgd_step),
                                                nets, plan_rngs, optimizers)]
        assert losses[0] == losses[1]
        np.testing.assert_array_equal(x, before)
    _assert_same_network(nets[0], nets[1], exact_ema=True)
    assert nets[0].layers[1].ema.update_count == cfg.steps
    assert not np.array_equal(nets[0].layers[0].weight,
                              make_net().layers[0].weight)


# ---------------------------------------------------------------------------
# parameters as views into the optimizer's flat buffer


def _params(net):
    return [getattr(layer, k) for layer in net.layers
            for k in layer.param_names]


def test_training_a_deep_copy_leaves_the_original_untouched():
    # frozen_finetune's control arm trains a copy of the trained net
    cfg = SgdConfig(lr=0.05, steps=20, batch_size=32, seed=6)
    plan = NormBatchPlan(strategy="ghost", sub_batch=8)
    net = train(_net(), _batch_fn, cfg, plan=plan)
    before = [p.copy() for p in _params(net)]
    control = train(copy.deepcopy(net), _batch_fn, cfg, plan=plan)
    for p, b in zip(_params(net), before):
        assert np.array_equal(p, b)
    # the copy trained
    assert not np.array_equal(control.layers[0].weight, before[0])


def test_train_freeze_train_matches_per_cohort_loop():
    # each train call starts a fresh velocity, in both loops
    plan = NormBatchPlan(strategy="ghost", sub_batch=8)
    nets = [_net(), _net()]
    for run in (train, _ref_train):
        net = nets[run is _ref_train]
        run(net, _batch_fn, SgdConfig(lr=0.05, steps=20, batch_size=32,
                                      seed=7), plan)
        net.layers[1].freeze(ChannelStats(np.full(HIDDEN, 0.5),
                                          np.full(HIDDEN, 2.0), 64))
        run(net, _batch_fn, SgdConfig(lr=0.05, steps=20, batch_size=32,
                                      seed=8, warmup_steps=5), plan)
    _assert_same_network(nets[0], nets[1])


def test_trained_parameters_share_one_buffer():
    net = train(_net(), _batch_fn, SgdConfig(lr=0.05, steps=2, batch_size=32))
    params = _params(net)
    assert params[0].base is not None
    assert all(p.base is params[0].base for p in params)


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


# (plan, the cohort sizes it gives); a shuffle's cohorts are consecutive
# rows of one permutation
EVAL_PLANS = {
    "ghost5": (NormBatchPlan("ghost", 5), [5, 5]),
    "ghost4_ragged": (NormBatchPlan("ghost", 4), [4, 4, 2]),
    "ghost2": (NormBatchPlan("ghost", 2), [2] * 300),
    # several stacks of 36 cohorts, and a ragged tail
    "shuffle7": (NormBatchPlan("shuffle", 7), [7] * 85 + [5]),
}


@pytest.mark.parametrize("name", sorted(EVAL_PLANS))
def test_grouped_minibatch_eval_matches_per_cohort_loop(name):
    plan, sizes = EVAL_PLANS[name]
    net = _trained_net()
    n = sum(sizes)
    x, y = _data(n, seed=8)
    got = classification_error(net, x, y, plan=plan,
                               rng=np.random.default_rng(4))
    perm = (np.random.default_rng(4).permutation(n)
            if plan.strategy == "shuffle" else np.arange(n))
    assert got == _ref_classification_error(net, x[perm], y[perm], sizes)


def test_grouped_forward_logits_match_per_cohort_forwards():
    net = _trained_net()
    x, _ = _data(12, seed=9)
    logits, _ = net.forward(x.reshape(3, 4, *x.shape[1:]),
                            mode=BnMode.EVAL_MINIBATCH)
    assert logits.shape == (3, 4, CLASSES)
    np.testing.assert_array_equal(
        logits.reshape(12, CLASSES), _ref_minibatch_logits(net, x, [4, 4, 4]))


def test_cohort_stack_backward_keeps_the_stack_shape():
    net = _trained_net()
    x, labels = _data(12, seed=10)
    stack = x.reshape(3, 4, *x.shape[1:])
    logits, caches = net.forward(stack, mode=BnMode.TRAIN_MINIBATCH)
    _, dlogits = softmax_cross_entropy(logits, labels.reshape(3, 4))
    dx, grads = net.backward(caches, dlogits)
    assert dx.shape == stack.shape
    assert grads[0]["weight"].shape == (3, HIDDEN, CHANNELS)
