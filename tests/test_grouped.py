"""Cohort passes against the per-cohort loops they replace.

A pass whose rows share statistics in cohorts runs the whole batch through
every layer; only ``BnLayer`` views it per cohort.  The invariant is that
this view equals normalizing each cohort alone, bit for bit:

- Training is checked against the same step with ``_LoopBn``, a BN layer
  that forwards and backpropagates each cohort on its own, exactly; and
  against one whole-network pass per cohort (the way training ran before
  the view), whose GEMMs and gradient sums run per cohort, to 1e-12.
- Precise BN and mini-batch evaluation, which only forward, are checked
  exactly against one network pass per mini-batch or cohort.

Only the EMA, which the view folds in closed form, may differ by rounding.
"""

import copy

import numpy as np
import pytest

from bnlab import net as net_module
from bnlab.batching import NormBatchPlan, cohort_indices
from bnlab.errors import ShapeMismatch
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
from bnlab.scenarios import EMA_VS_PRECISE_DEFAULTS, NBS_SWEEP_DEFAULTS, build_net
from bnlab.stats import aggregate_moment_matching
from bnlab.tensor import ChannelStats

CHANNELS, SITES, HIDDEN, CLASSES = 8, 4, 16, 5


def _net(seed=0, bn=BnLayer):
    rng = np.random.default_rng(seed)
    return Network([
        Linear.init(rng, CHANNELS, HIDDEN),
        bn(HIDDEN),
        Affine.identity(HIDDEN),
        Relu(),
        Linear.init(rng, HIDDEN, HIDDEN),
        bn(HIDDEN),
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


class _LoopBn(BnLayer):
    """A BN layer that takes a cohort view as one forward and one backward
    per cohort, each stepping the EMA once: the reference for BnLayer's
    (G, n) view of the batch."""

    def forward(self, x, mode=BnMode.TRAIN_MINIBATCH, stats=None, cohort=None):
        if cohort is None or mode is BnMode.EVAL_POPULATION:
            return super().forward(x, mode, stats)
        y = np.empty_like(x)
        caches = []
        for start in range(0, x.shape[0], cohort):
            rows = slice(start, start + cohort)
            y[rows], cache = super().forward(x[rows], mode)
            caches.append((rows, cache))
        return y, caches

    def backward(self, cache, dy):
        if not isinstance(cache, list):
            return super().backward(cache, dy)
        dx = np.empty_like(dy)
        for rows, c in cache:
            dx[rows], _ = super().backward(c, dy[rows])
        return dx, None


def _loop_net(seed=0):
    return _net(seed, bn=_LoopBn)


def _ref_accumulate(total, grads):
    for i, g in enumerate(grads):
        if not g:
            continue
        if total[i] is None:
            total[i] = {k: v.copy() for k, v in g.items()}
        else:
            for k, v in g.items():
                total[i][k] += v


def _ref_sgd_step(net, x, labels, cfg, step, plan, rng, velocity, stats=None):
    n = x.shape[0]
    cohorts = (
        cohort_indices(plan, n, rng) if plan is not None else [np.arange(n)]
    )
    totals = [None] * len(net.layers)
    loss_sum = 0.0
    for idx in cohorts:
        logits, caches = net.forward(x[idx], stats=stats)
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


def _ref_train(net, batch_fn, cfg, plan, stats=None):
    rng = np.random.default_rng(cfg.seed)
    velocity = {}
    for step in range(cfg.steps):
        x, labels = batch_fn(rng, cfg.batch_size)
        _ref_sgd_step(net, x, labels, cfg, step, plan, rng, velocity, stats)
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


def _assert_same_network(a, b, exact_ema=False, rtol=0.0):
    """Equal parameters, or with ``rtol`` each parameter array equal to
    ``rtol`` times its largest magnitude; EMA to 1e-12 or exactly."""
    for la, lb in zip(a.layers, b.layers):
        for name in getattr(la, "param_names", ()):
            pa, pb = getattr(la, name), getattr(lb, name)
            if rtol:
                assert np.abs(pa - pb).max() <= rtol * np.abs(pb).max(), name
            else:
                np.testing.assert_array_equal(pa, pb)
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
    # ghost cohorts 6, 6, 6 and a ragged last one of 2
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
    one_cohort = name in ONE_COHORT_PLANS
    _assert_same_network(grouped, train(_loop_net(), _batch_fn, cfg, plan=plan),
                         exact_ema=one_cohort)
    # Whole-network passes per cohort round the loss gradient and sum the
    # parameter gradients in another order.  Training grows those rounding
    # differences: after 20 steps every plan is within 1e-12 of each
    # parameter array's scale, but by step 60 BN over ghost cohorts of 1
    # or 2 rows has amplified them to about 2e-11.
    short = SgdConfig(lr=0.05, steps=20, batch_size=batch_size, seed=3)
    _assert_same_network(train(_net(), _batch_fn, short, plan=plan),
                         _ref_train(_net(), _batch_fn, short, plan),
                         exact_ema=one_cohort, rtol=1e-12)
    # training moved the parameters, so the comparison is not vacuous
    assert not np.array_equal(grouped.layers[0].weight, _net().layers[0].weight)


# the first BN layer frozen (FrozenBN), the second normalizing by cohorts
FROZEN = {1: ChannelStats(np.full(HIDDEN, 0.5), np.full(HIDDEN, 2.0), 64)}


def test_grouped_training_with_a_frozen_layer_matches_per_cohort_loop():
    cfg = SgdConfig(lr=0.05, steps=60, batch_size=32, seed=4)
    plan = NormBatchPlan(strategy="ghost", sub_batch=8)
    net = train(_net(), _batch_fn, cfg, plan=plan, stats=FROZEN)
    _assert_same_network(net, train(_loop_net(), _batch_fn, cfg, plan=plan,
                                    stats=FROZEN))
    _assert_same_network(net, _ref_train(_net(), _batch_fn, cfg, plan, FROZEN),
                         rtol=1e-12)
    assert net.layers[1].ema.update_count == 0


def test_a_frozen_net_trains_alike_under_any_plan():
    # every BN layer frozen: no rows share statistics, so a ghost plan
    # changes nothing
    nets = []
    for plan in (NormBatchPlan(strategy="ghost", sub_batch=8), None):
        net = _net()
        stats = {i: ChannelStats(np.full(HIDDEN, s), np.full(HIDDEN, 2.0), 64)
                 for i, s in zip(net.bn_indices, (0.5, 0.25))}
        nets.append(train(net, _batch_fn, SgdConfig(lr=0.05, steps=60,
                                                    batch_size=32, seed=4),
                          plan=plan, stats=stats))
    _assert_same_network(*nets, exact_ema=True)
    assert not np.array_equal(nets[0].layers[0].weight, _net().layers[0].weight)


def _dense_net(seed=0):
    rng = np.random.default_rng(seed)
    return Network([
        Linear.init(rng, CHANNELS, HIDDEN),
        BnLayer(HIDDEN),
        Affine.identity(HIDDEN),
        Relu(),
        Linear.init(rng, HIDDEN, CLASSES),
    ])


@pytest.mark.parametrize("plan", [NormBatchPlan("ghost", 32),
                                  NormBatchPlan("shuffle", 32)],
                         ids=["ghost32", "shuffle32"])
@pytest.mark.parametrize("make_net", [_net, _dense_net], ids=["pool", "dense"])
def test_one_cohort_step_is_the_plain_step(make_net, plan):
    # one cohort of a plan is the plain batch, in the plan's row order
    cfg = SgdConfig(lr=0.05, steps=40, batch_size=32, warmup_steps=5)
    nets = [make_net(), make_net()]
    optimizers = [Momentum(net.layers) for net in nets]
    plan_rng, twin = np.random.default_rng(2), np.random.default_rng(2)
    data_rng = np.random.default_rng(3)
    for step in range(cfg.steps):
        x, labels = _batch_fn(data_rng, cfg.batch_size)
        if make_net is _dense_net:
            # one spatial site, a strided view of the batch
            x = x[:, :, :1]
        before = x.copy()
        rows = np.concatenate(cohort_indices(plan, len(x), twin))
        losses = [sgd_step(nets[0], x, labels, cfg, step, plan, plan_rng,
                           optimizers[0]),
                  sgd_step(nets[1], x[rows], labels[rows], cfg, step, None,
                           None, optimizers[1])]
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
    # each train call starts a fresh velocity, in every loop
    plan = NormBatchPlan(strategy="ghost", sub_batch=8)
    nets = [_net(), _loop_net(), _net()]
    for net, run in zip(nets, (train, train, _ref_train)):
        run(net, _batch_fn, SgdConfig(lr=0.05, steps=20, batch_size=32,
                                      seed=7), plan)
        run(net, _batch_fn, SgdConfig(lr=0.05, steps=20, batch_size=32,
                                      seed=8, warmup_steps=5), plan,
            stats=FROZEN)
    _assert_same_network(nets[0], nets[1])
    _assert_same_network(nets[0], nets[2], rtol=1e-12)


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


@pytest.mark.parametrize("cohort, sizes", [(4, [4, 4, 4]), (5, [5, 5, 2])])
def test_grouped_forward_logits_match_per_cohort_forwards(cohort, sizes):
    net = _trained_net()
    x, _ = _data(12, seed=9)
    logits, _ = net.forward(x, mode=BnMode.EVAL_MINIBATCH, cohort=cohort)
    assert logits.shape == (12, CLASSES)
    np.testing.assert_array_equal(logits, _ref_minibatch_logits(net, x, sizes))


def test_cohort_view_backward_keeps_the_batch_shape():
    net = _trained_net()
    x, labels = _data(12, seed=10)
    logits, caches = net.forward(x, mode=BnMode.TRAIN_MINIBATCH, cohort=4)
    _, dlogits = softmax_cross_entropy(logits, labels)
    dx, grads = net.backward(caches, dlogits)
    assert dx.shape == x.shape
    assert grads[0]["weight"].shape == (HIDDEN, CHANNELS)
    # a cohort is a view inside BN, never a stack the network takes
    with pytest.raises(ShapeMismatch):
        net.forward(x.reshape(3, 4, *x.shape[1:]))


def test_chunks_hold_whole_cohorts_of_at_most_256_activation_rows():
    assert net_module.EVAL_CHUNK_ROWS == 256
    assert net_module.chunk_rows() == 256
    assert net_module.chunk_rows(None, 4) == 64  # the nbs_sweep net's H x W
    assert net_module.chunk_rows(8, 4) == 64
    assert net_module.chunk_rows(6, 4) == 60  # whole cohorts only
    assert net_module.chunk_rows(100, 4) == 100  # one cohort, however large


def _scenario_net(name):
    """A scenario's network at its defaults, its EMA stepped by a few
    ghost-cohort training steps, and a population of 203 samples for it (a
    cohort of 8 leaves a ragged last one of 3)."""
    if name == "ema_vs_precise":
        d = EMA_VS_PRECISE_DEFAULTS
        dims, shape, pool = [d["dim"], *d["hidden"], d["classes"]], (d["dim"], 1, 1), False
    else:
        d = NBS_SWEEP_DEFAULTS
        dims, shape, pool = ([d["channels"], *d["hidden"], d["classes"]],
                             (d["channels"], 2, 2), True)
    net = build_net(np.random.default_rng(0), dims, pool=pool)
    rng = np.random.default_rng(1)

    def batch_fn(rng, size):
        return rng.standard_normal((size, *shape)), rng.integers(0, dims[-1], size)

    train(net, batch_fn, SgdConfig(lr=0.05, steps=3, batch_size=32),
          plan=NormBatchPlan("ghost", 8))
    return net, *batch_fn(rng, 203)


def _chunked(net, run):
    """``run()``'s result, and the logits of every forward it made,
    concatenated in order."""
    logits, forward = [], net.forward

    def spy(x, **kwargs):
        out = forward(x, **kwargs)
        logits.append(out[0])
        return out

    net.forward = spy
    try:
        result = run()
    finally:
        del net.forward
    return result, np.concatenate(logits)


@pytest.mark.parametrize("name", ["ema_vs_precise", "nbs_sweep"])
def test_evaluation_chunks_change_results_by_rounding_only(name, monkeypatch):
    # Chunks exist for memory only: every cohort (or sample) in its own
    # chunk and every row in one chunk normalize each cohort alike.  Not
    # bit for bit at these layer widths: numpy and OpenBLAS choose the
    # matrix-product kernel by the row count, so a row's logits can move in
    # their last bits with its chunk's size.
    net, x, y = _scenario_net(name)
    given = precise_bn(net, x, 16)
    passes = {
        "population_ema": lambda: classification_error(net, x, y),
        "population_given": lambda: classification_error(net, x, y, stats=given),
        "ghost8_ragged": lambda: classification_error(
            net, x, y, plan=NormBatchPlan("ghost", 8)),
        "shuffle8_ragged": lambda: classification_error(
            net, x, y, plan=NormBatchPlan("shuffle", 8),
            rng=np.random.default_rng(2)),
        "precise8_ragged": lambda: precise_bn(net, x, 8),
        "precise32": lambda: precise_bn(net, x, 32),
    }
    runs = []
    for chunk in (1, x.shape[0] * x.shape[2] * x.shape[3]):
        monkeypatch.setattr(net_module, "EVAL_CHUNK_ROWS", chunk)
        runs.append({k: _chunked(net, run) for k, run in passes.items()})
    one, whole = runs
    for k in passes:
        (got, got_logits), (ref, ref_logits) = one[k], whole[k]
        np.testing.assert_allclose(got_logits, ref_logits, rtol=0, atol=1e-13,
                                   err_msg=k)
        if isinstance(got, dict):
            assert got.keys() == ref.keys() == set(net.bn_indices)
            for i in got:
                np.testing.assert_allclose(got[i].mean, ref[i].mean, rtol=1e-12,
                                           atol=1e-15, err_msg=f"{k} {i}")
                np.testing.assert_allclose(got[i].var, ref[i].var, rtol=1e-12,
                                           err_msg=f"{k} {i}")
                assert got[i].count == ref[i].count, (k, i)
        else:
            # no row's top class is within rounding of another here
            assert got == ref, k
