"""Cohort passes against ``LoopNet``, the loop reference in ``oracles.py``.

A pass whose rows share statistics in cohorts runs the whole batch through
every layer; only ``layer.batch_stats_forward`` and its backward view it
per cohort, for ``BnLayer`` and for ``SharedHeadNet``, whose per-domain
cohorts are its domain row blocks.  The
invariant is that this view equals normalizing each cohort alone.  One
drawn test checks it for every pass: training (``train``, ``sgd_step``),
``forward`` and ``evaluate``, ``classification_error``, ``precise_bn``,
``precise_bn_layerwise`` and ``SharedHeadNet``.  Parameters, losses,
logits, precise statistics and error rates must be equal bit for bit; only the EMA, which the view folds
in closed form when a step holds several cohorts, may differ by rounding.
Named cases then run the same comparison at the kept tests' sizes: 60-step
trainings under each plan, frozen layers, populations of several
evaluation chunks, and precise BN of 1-wide layers.

The other tests pin what no loop states: one cohort of a plan is the plain
step, the optimizer's flat buffer, and evaluation chunks.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnlab import net as net_module
from bnlab.batching import NormBatchPlan, cohort_indices
from bnlab.errors import ShapeMismatch
from bnlab.layer import BnLayer
from bnlab.net import (
    Affine,
    Momentum,
    SgdConfig,
    classification_error,
    sgd_step,
    softmax_cross_entropy,
    train,
)
from bnlab.precise import precise_bn, precise_bn_layerwise
from bnlab.scenarios import (
    EMA_VS_PRECISE_DEFAULTS,
    NBS_SWEEP_DEFAULTS,
    SHARED_HEAD_DEFAULTS,
    SharedHeadNet,
    build_net,
    shared_head_data,
)
from bnlab.tensor import ChannelStats
from conftest import drawn
from oracles import LoopNet

CHANNELS, SITES, HIDDEN, CLASSES = 8, 4, 16, 5


def _net(seed=0):
    return build_net(np.random.default_rng(seed), [CHANNELS, HIDDEN, HIDDEN, CLASSES],
                     pool=True)


def _dense_net(seed=0):
    return build_net(np.random.default_rng(seed), [CHANNELS, HIDDEN, CLASSES])


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
# every cohort pass against the loop reference

# evaluation rows at most: with H x W <= 4, every evaluation pass below then
# runs as one chunk, whose GEMMs have the reference's row count
EVAL_ROWS = 24


def _cohort(draw, n):
    """A cohort size for n rows: several cohorts, even or with a ragged last
    one, one whole cohort and a ragged one, one of n rows, or more."""
    return draw(st.sampled_from(sorted({1, 2, 3, max(1, n // 2), max(1, n - 1),
                                        n, n + 1})))


def _plan(draw, n, plain=True):
    """Ghost or shuffle cohorts of n rows, or no plan (if ``plain``)."""
    strategy = draw(st.sampled_from(["ghost", "shuffle", None][: 2 + plain]))
    return None if strategy is None else NormBatchPlan(strategy, _cohort(draw, n))


def _losses(run):
    """``run()``'s training losses, as each ``sgd_step`` returned them."""
    losses, step = [], net_module.sgd_step
    net_module.sgd_step = lambda *a, **k: losses.append(step(*a, **k)) or losses[-1]
    try:
        run()
    finally:
        net_module.sgd_step = step
    return losses


def _error(logits, labels):
    return int((logits.argmax(axis=1) != labels).sum()) / len(labels)


def _fixed(stats):
    return {i: [(s.mean, s.var)] for i, s in stats.items()}


def _assert_params(layers, ref):
    for (i, k), p in ref.params.items():
        np.testing.assert_array_equal(getattr(layers[i], k), p, err_msg=f"{i} {k}")


def _assert_stats(got, want):
    # a pass's ChannelStats, (C,) or (G, C), against the reference's list of
    # (mean, var, count), one per cohort
    means, variances, counts = zip(*want)
    shape = (-1, got.channels)
    np.testing.assert_array_equal(got.mean.reshape(shape), np.stack(means))
    np.testing.assert_array_equal(got.var.reshape(shape), np.stack(variances))
    assert {got.count} == set(counts)


def _assert_trains_as_the_loop(net, batch_fn, plan, runs):
    """``train`` called once per (cfg, frozen stats) in ``runs`` against
    ``LoopNet``: losses and parameters bit for bit, the EMA exactly when
    each step normalizes one cohort.  Returns the reference."""
    ref = LoopNet(net.layers)
    for cfg, stats in runs:
        assert _losses(lambda: train(net, batch_fn, cfg, plan, stats=stats)) == \
            ref.train(batch_fn, cfg, plan, stats)
    _assert_params(net.layers, ref)
    # a step of one cohort takes the EMA's one-step formula; several fold
    # in closed form, equal to the loop's steps to rounding
    one_cohort = plan is None or runs[0][0].batch_size < 2 * plan.sub_batch
    for i, (mean, var) in ref.ema.items():
        ema = net.layers[i].ema
        assert ema.count == 1
        tol = 0.0 if one_cohort else 1e-12
        np.testing.assert_allclose(ema.mean, mean, rtol=tol, atol=tol)
        np.testing.assert_allclose(ema.var, var, rtol=tol, atol=tol)
    return ref


def _draw_net(draw, rng, batch):
    """A ``build_net`` net of drawn widths for (C, H, W) inputs, and its
    inputs' (C, H, W); each affine (G, C) over G row blocks, for G a
    divisor of ``batch``, or (C,), its parameters drawn."""
    hw = draw(st.sampled_from([(1, 1), (2, 1), (2, 2)]))
    dims = [draw(st.integers(1, 6)) for _ in range(draw(st.integers(2, 3)))]
    net = build_net(rng, [*dims, draw(st.integers(2, 4))],
                    pool=hw != (1, 1) or draw(st.booleans()))
    for i in net.bn_indices:
        g = draw(st.sampled_from([None] + [d for d in range(1, batch + 1)
                                            if batch % d == 0]))
        c = net.layers[i].channels
        shape = (c,) if g is None else (g, c)
        net.layers[i + 1] = Affine(rng.uniform(0.5, 1.5, shape),
                                   rng.normal(0, 0.5, shape))
    return net, (dims[0], *hw)


@drawn(100)
@given(st.data())
def test_every_cohort_pass_matches_the_loop_reference(data):
    draw = data.draw
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    batch = draw(st.integers(1, 12))
    plan = _plan(draw, batch)
    net, shape = _draw_net(draw, rng, batch)

    def batch_fn(r, size):
        return 1.0 + 2.0 * r.standard_normal((size, *shape)), r.integers(
            0, net.layers[-1].weight.shape[0], size)

    # two train calls, as frozen_finetune makes, each with its own frozen
    # layers: every call starts a fresh velocity
    runs = []
    for k in range(2):
        stats = {i: ChannelStats(rng.normal(0, 1, c), rng.uniform(0.5, 2, c), 64)
                 for i in net.bn_indices if draw(st.booleans())
                 for c in [net.layers[i].channels]}
        runs.append((SgdConfig(lr=0.05, steps=draw(st.integers(1, 3)),
                               batch_size=batch, warmup_steps=draw(st.integers(0, 2)),
                               seed=seed + k), stats))
    ref = _assert_trains_as_the_loop(net, batch_fn, plan, runs)

    # evaluation: rows that divide into every affine's blocks
    unit = math.lcm(*(len(net.layers[i + 1].gamma.reshape(-1, net.layers[i].channels))
                      for i in net.bn_indices))
    n = unit * draw(st.integers(1, EVAL_ROWS // unit))
    x, y = batch_fn(rng, n)
    size = _cohort(draw, n)
    for estimate, layerwise in ((precise_bn_layerwise, True), (precise_bn, False)):
        precise, want = estimate(net, x, size), ref.precise_bn(x, size, layerwise)
        assert precise.keys() == want.keys()
        for i in want:
            _assert_stats(precise[i], [want[i]])
    ema = {i: net.layers[i].ema for i in net.bn_indices}
    plan = _plan(draw, n, plain=False)
    rows = (np.random.default_rng(seed).permutation(n) if plan.strategy == "shuffle"
            else np.arange(n))
    cohort = {"cohort": plan.sub_batch}
    for inputs, train_kwargs, eval_kwargs, ref_logits, kwargs in (
        (x, {"stats": ema}, {}, ref.forward(x, fixed=_fixed(ema))[0], {}),
        (x, {"stats": precise}, {"stats": precise},
         ref.forward(x, fixed=_fixed(precise))[0], {"stats": precise}),
        (x[rows], cohort, cohort,
         ref.forward(x[rows], plan.sub_batch)[0],
         {"plan": plan, "rng": np.random.default_rng(seed)}),
    ):
        # the training pass (frozen by the same statistics, or on a copy
        # whose EMA it steps) and the evaluation pass alike
        np.testing.assert_array_equal(
            copy.deepcopy(net).forward(inputs, **train_kwargs)[0], ref_logits)
        np.testing.assert_array_equal(net.evaluate(inputs, **eval_kwargs), ref_logits)
        labels = y[rows] if "plan" in kwargs else y
        assert classification_error(net, x, y, **kwargs) == _error(ref_logits, labels)

    # shared_head's net: a per-domain choice is a cohort of domain_batch SGD
    # rows, an affine block per domain, or a cohort of each domain's
    # val_per_domain population rows; one domain's cohort covers the batch
    spec = {**SHARED_HEAD_DEFAULTS, "dim": draw(st.integers(1, 6)),
            "domains": SHARED_HEAD_DEFAULTS["domains"][: draw(st.integers(1, 3))],
            "classes": draw(st.integers(2, 4)), "domain_batch": draw(st.integers(1, 4)),
            "val_per_domain": draw(st.integers(1, 6))}
    data = shared_head_data(spec, seed)
    sgd, affine, population = (draw(st.booleans()) for _ in range(3))
    head = SharedHeadNet(rng, spec["dim"], draw(st.integers(1, 6)), spec["classes"],
                         cohort=spec["domain_batch"] if sgd else None,
                         affine_blocks=data[0].n_domains if affine else None)
    batches = data[0].batches(np.random.default_rng(seed), draw(st.integers(1, 3)),
                              spec["domain_batch"])
    assert_shared_head_as_the_loop(head, spec, data, batches, population)


def assert_shared_head_as_the_loop(head, spec, data, batches, population):
    """``head``'s steps over ``batches``, its population statistics (by
    domain if ``population``) and its error on ``data``, what
    ``shared_head_data(spec, seed)`` returns, against ``LoopNet``, bit for
    bit."""
    domains, val_x, val_y, pop_x = data
    layers = [head.l1, BnLayer(head.l1.weight.shape[0], eps=head.eps), head.affine,
              head.relu, head.l2]
    ref, velocity = LoopNet(layers), {}
    lr, momentum = spec["lr"], spec["sgd_momentum"]
    for xb, yb in batches:
        assert head.train_step(xb, yb, lr, momentum) == \
            ref.step(xb, yb, lr, momentum, velocity, head.cohort)
    _assert_params(layers, ref)
    cohort = spec["val_per_domain"] if population else None
    stats, want = head.train_population_stats(pop_x, cohort), ref.moments(pop_x, cohort)
    _assert_stats(stats, want[1])
    ref_logits, _ = ref.forward(val_x, fixed={1: [w[:2] for w in want[1]]})
    assert head.eval_error(val_x, val_y, stats) == _error(ref_logits, val_y)


# ---------------------------------------------------------------------------
# named cases at the size of the kept tests' nets (16 channels, 4 sites,
# 32-row steps, populations of several evaluation chunks), against the same
# reference

PLANS = {
    "ghost1": (32, NormBatchPlan(strategy="ghost", sub_batch=1)),
    "ghost2": (32, NormBatchPlan(strategy="ghost", sub_batch=2)),
    "ghost8": (32, NormBatchPlan(strategy="ghost", sub_batch=8)),
    "ghost32": (32, NormBatchPlan(strategy="ghost", sub_batch=32)),
    # ghost cohorts 6, 6, 6 and a ragged last one of 2
    "ghost_ragged": (20, NormBatchPlan(strategy="ghost", sub_batch=6)),
    # unequal cohorts 3, 3, 2, as per-worker sizes [3, 5] gave unequal ones
    "ghost_unequal": (8, NormBatchPlan(strategy="ghost", sub_batch=3)),
    # one whole cohort, the plain batch of its 2 rows, and a ragged last one
    "ghost_one_and_tail": (3, NormBatchPlan("ghost", 2)),
    "shuffle": (32, NormBatchPlan(strategy="shuffle", sub_batch=16)),
    # the whole batch as one cohort
    "plain": (32, None),
}


@pytest.mark.parametrize("name", sorted(PLANS))
def test_grouped_training_matches_per_cohort_loop(name):
    batch_size, plan = PLANS[name]
    net = _net()
    _assert_trains_as_the_loop(net, _batch_fn, plan, [
        (SgdConfig(lr=0.05, steps=60, batch_size=batch_size, seed=3), None)])
    # training moved the parameters, so the comparison is not vacuous
    assert not np.array_equal(net.layers[0].weight, _net().layers[0].weight)


# the first BN layer frozen (FrozenBN), the second normalizing by cohorts
FROZEN = {1: ChannelStats(np.full(HIDDEN, 0.5), np.full(HIDDEN, 2.0), 64)}


def test_grouped_training_with_a_frozen_layer_matches_per_cohort_loop():
    net = _net()
    ema = net.layers[1].ema
    _assert_trains_as_the_loop(net, _batch_fn, NormBatchPlan("ghost", 8), [
        (SgdConfig(lr=0.05, steps=60, batch_size=32, seed=4), FROZEN)])
    assert net.layers[1].ema is ema  # a frozen layer never steps its EMA


def test_train_freeze_train_matches_per_cohort_loop():
    # each train call starts a fresh velocity, in the loop too
    _assert_trains_as_the_loop(_net(), _batch_fn, NormBatchPlan("ghost", 8), [
        (SgdConfig(lr=0.05, steps=20, batch_size=32, seed=7), None),
        (SgdConfig(lr=0.05, steps=20, batch_size=32, seed=8, warmup_steps=5), FROZEN)])


@pytest.mark.parametrize("n,batch_size", [(10, 4), (600, 2), (601, 8),
                                          (300, 300)])
def test_grouped_precise_bn_matches_per_batch_loop(n, batch_size):
    net = _trained_net()
    pop, _ = _data(n, seed=6)
    got, want = precise_bn(net, pop, batch_size), LoopNet(net.layers).precise_bn(
        pop, batch_size)
    for i in want:
        _assert_stats(got[i], [want[i]])
        assert got[i].count == n * SITES


@pytest.mark.parametrize("n,batch_size", [(10, 4), (601, 8)])
def test_grouped_precise_bn_layerwise_matches_per_batch_loop(n, batch_size):
    net = _trained_net()
    pop, _ = _data(n, seed=7)
    got = precise_bn_layerwise(net, pop, batch_size)
    want = LoopNet(net.layers).precise_bn(pop, batch_size, layerwise=True)
    for i in want:
        _assert_stats(got[i], [want[i]])


@pytest.mark.parametrize("n,batch_size", [(15, 2), (601, 2), (601, 8)])
def test_one_channel_precise_bn_matches_per_batch_loop(n, batch_size):
    # a 1-wide layer's batch moments sum in order, as LoopNet sums them,
    # however the pass splits them: 15 rows at 2 pass as 7 whole cohorts and
    # a 1-row tail, 601 rows as several chunks
    net = build_net(np.random.default_rng(3), [CHANNELS, 1, 1, CLASSES], pool=True)
    pop, _ = _data(n, seed=6)
    ref = LoopNet(net.layers)
    for layerwise, estimate in ((False, precise_bn), (True, precise_bn_layerwise)):
        got, want = estimate(net, pop, batch_size), ref.precise_bn(pop, batch_size,
                                                                   layerwise)
        for i in want:
            _assert_stats(got[i], [want[i]])


# (plan, rows); a shuffle's cohorts are consecutive rows of one permutation
EVAL_PLANS = {
    "ghost5": (NormBatchPlan("ghost", 5), 10),
    "ghost4_ragged": (NormBatchPlan("ghost", 4), 10),
    "ghost2": (NormBatchPlan("ghost", 2), 600),
    # several stacks of 36 cohorts, and a ragged tail
    "shuffle7": (NormBatchPlan("shuffle", 7), 600),
}


@pytest.mark.parametrize("name", sorted(EVAL_PLANS))
def test_grouped_minibatch_eval_matches_per_cohort_loop(name):
    plan, n = EVAL_PLANS[name]
    net = _trained_net()
    x, y = _data(n, seed=8)
    rows = (np.random.default_rng(4).permutation(n) if plan.strategy == "shuffle"
            else np.arange(n))
    logits, _ = LoopNet(net.layers).forward(x[rows], plan.sub_batch)
    assert classification_error(net, x, y, plan=plan, rng=np.random.default_rng(4)) \
        == _error(logits, y[rows])


@pytest.mark.parametrize("cohort, sizes", [(4, [4, 4, 4]), (5, [5, 5, 2])])
def test_grouped_forward_logits_match_per_cohort_forwards(cohort, sizes):
    net = _trained_net()
    ref = LoopNet(net.layers)
    x, _ = _data(12, seed=9)
    logits = net.evaluate(x, cohort=cohort)
    assert logits.shape == (12, CLASSES)
    np.testing.assert_array_equal(logits, ref.forward(x, cohort)[0])
    assert [c for _, _, c in ref.moments(x, cohort)[1]] == [s * SITES for s in sizes]


# ---------------------------------------------------------------------------
# what no loop states


def _assert_same_network(a, b):
    """Equal parameters and EMA, bit for bit."""
    for la, lb in zip(a.layers, b.layers):
        for name in la.param_names:
            np.testing.assert_array_equal(getattr(la, name), getattr(lb, name))
        if isinstance(la, BnLayer):
            np.testing.assert_array_equal(la.ema.mean, lb.ema.mean)
            np.testing.assert_array_equal(la.ema.var, lb.ema.var)


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
    _assert_same_network(nets[0], nets[1])
    # the EMA stepped, as the parameters did
    assert not np.array_equal(nets[0].layers[1].ema.var, np.ones(HIDDEN))
    assert not np.array_equal(nets[0].layers[0].weight,
                              make_net().layers[0].weight)


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
    _assert_same_network(*nets)
    assert not np.array_equal(nets[0].layers[0].weight, _net().layers[0].weight)


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


def test_trained_parameters_share_one_buffer():
    net = train(_net(), _batch_fn, SgdConfig(lr=0.05, steps=2, batch_size=32))
    params = _params(net)
    assert params[0].base is not None
    assert all(p.base is params[0].base for p in params)


def _trained_net():
    cfg = SgdConfig(lr=0.05, steps=30, batch_size=32, seed=5)
    return train(_net(), _batch_fn, cfg,
                 plan=NormBatchPlan(strategy="ghost", sub_batch=8))


def test_cohort_view_backward_keeps_the_batch_shape():
    net = _trained_net()
    x, labels = _data(12, seed=10)
    logits, caches = net.forward(x, cohort=4)
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
    """``run()``'s result, and the output of every forward-only pass it
    made (logits, or a precise pass's deepest BN output), concatenated in
    order."""
    logits, evaluate = [], net.evaluate

    def spy(x, **kwargs):
        out = evaluate(x, **kwargs)
        logits.append(out)
        return out

    net.evaluate = spy
    try:
        result = run()
    finally:
        del net.evaluate
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
