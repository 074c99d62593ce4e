"""The normalization layer: mode selection, EMA side effects, fixed
(frozen) statistics, cache discipline, and the frozen-affine fusion toy of
``tests/oracles.py``."""

import numpy as np
import pytest

from bnlab.errors import (
    EmptyBatch,
    InvalidParams,
    ShapeMismatch,
    StaleCache,
)
from bnlab.layer import (
    BnLayer,
    BnMode,
    batch_stats_backward,
    batch_stats_forward,
)
from bnlab.net import Linear, MeanPool, Network, SgdConfig, train
from bnlab.scenarios import SharedHeadNet
from bnlab.stats import ema_update
from bnlab.tensor import SAMPLE_AXES, ChannelStats, channel_moments, normalize
from oracles import fusion_finetune_demo


def _x(rng, n=8, h=2, w=2, c=3):
    return 1.0 + rng.standard_normal((n, h, w, c))


def test_train_mode_standardizes_and_updates_ema():
    rng = np.random.default_rng(0)
    layer = BnLayer(3, eps=1e-12, momentum=0.5)
    # mean 0 / var 1 start, as statistics of count 1
    np.testing.assert_array_equal(layer.ema.mean, np.zeros(3))
    np.testing.assert_array_equal(layer.ema.var, np.ones(3))
    x = _x(rng)
    y, _ = layer.forward(x, mode=BnMode.TRAIN_MINIBATCH)
    s = channel_moments(y)
    np.testing.assert_allclose(s.mean, 0.0, atol=1e-10)
    np.testing.assert_allclose(s.var, 1.0, atol=1e-8)
    batch = channel_moments(x)
    np.testing.assert_allclose(layer.ema.mean, 0.5 * batch.mean)
    np.testing.assert_allclose(layer.ema.var, 0.5 + 0.5 * batch.var)
    assert layer.ema.count == 1


def test_eval_modes_leave_ema_alone():
    rng = np.random.default_rng(1)
    layer = BnLayer(3)
    before = layer.ema
    layer.forward(_x(rng), mode=BnMode.EVAL_MINIBATCH)
    layer.forward(_x(rng), mode=BnMode.EVAL_POPULATION)
    assert layer.ema is before


def test_given_stats_bypass_layer_state():
    rng = np.random.default_rng(3)
    layer = BnLayer(3, eps=1e-5)
    before = dict(vars(layer))
    override = ChannelStats(np.ones(3), np.ones(3), 7)
    x = _x(rng)
    y, _ = layer.forward(x, mode=BnMode.EVAL_POPULATION, stats=override)
    np.testing.assert_allclose(y, (x - 1.0) / np.sqrt(1.0 + 1e-5))
    assert vars(layer).keys() == before.keys()
    assert all(vars(layer)[k] is v for k, v in before.items())


def test_frozen_uses_its_snapshot():
    # FrozenBN is a population forward by statistics the caller passes
    rng = np.random.default_rng(4)
    layer = BnLayer(3)
    snap = ChannelStats(np.zeros(3), np.full(3, 2.0), 16)
    x = _x(rng)
    y, cache = layer.forward(x, mode=BnMode.EVAL_POPULATION, stats=snap)
    assert cache.stats is snap
    np.testing.assert_allclose(y, x / np.sqrt(2.0 + layer.eps))


def test_population_forward_defaults_to_the_ema():
    rng = np.random.default_rng(2)
    layer = BnLayer(3, momentum=0.5)
    layer.forward(_x(rng))  # moves the EMA off its initial state
    x = _x(rng)
    y, cache = layer.forward(x, mode=BnMode.EVAL_POPULATION)
    # the EMA itself, not a copy of it
    assert cache.stats is layer.ema
    np.testing.assert_array_equal(y, normalize(x, layer.ema, layer.eps))


def test_the_layer_holds_only_its_shape_eps_and_ema():
    # no policy: a frozen layer is one whose statistics training is given
    rng = np.random.default_rng(16)
    keys = {"channels", "eps", "momentum", "ema"}
    layer = BnLayer(3)
    ema = layer.ema
    assert vars(layer).keys() == keys
    snap = ChannelStats(np.zeros(3), np.full(3, 2.0), 16)
    layer.forward(_x(rng), mode=BnMode.EVAL_POPULATION, stats=snap)
    assert vars(layer).keys() == keys
    net = Network([Linear.init(rng, 2, 3), layer, MeanPool(), Linear.init(rng, 3, 2)])

    def batch_fn(r, size):
        return r.standard_normal((size, 2, 2, 2)), r.integers(0, 2, size)

    train(net, batch_fn, SgdConfig(lr=0.05, steps=3, batch_size=8), stats={1: snap})
    assert vars(layer).keys() == keys
    assert layer.ema is ema


@pytest.mark.parametrize("mode, cohort", [
    (BnMode.EVAL_MINIBATCH, None),
    (BnMode.TRAIN_MINIBATCH, 3),  # two whole cohorts and a ragged tail of 2
    (BnMode.EVAL_POPULATION, None),
], ids=["batch", "ragged_tail", "population"])
def test_cache_single_use(mode, cohort):
    rng = np.random.default_rng(5)
    layer = BnLayer(3)
    x = _x(rng)
    _, cache = layer.forward(x, mode=mode, cohort=cohort)
    layer.backward(cache, np.ones_like(x))
    with pytest.raises(StaleCache, match="^backward already consumed this cache$"):
        layer.backward(cache, np.ones_like(x))
    if cohort is not None:
        # the ragged tail's own cache was consumed with its batch's
        with pytest.raises(StaleCache, match="^backward already consumed this cache$"):
            layer.backward(cache.tail, np.ones_like(x[6:]))


def test_frozen_backward_is_constant_scale():
    rng = np.random.default_rng(6)
    layer = BnLayer(3)
    x = _x(rng)
    _, cache = layer.forward(x, mode=BnMode.EVAL_POPULATION, stats=ChannelStats(
        np.zeros(3), np.array([1.0, 4.0, 9.0]), 8))
    dy = rng.standard_normal(x.shape)
    dx, _ = layer.backward(cache, dy)
    inv = 1.0 / np.sqrt(np.array([1.0, 4.0, 9.0]) + layer.eps)
    np.testing.assert_allclose(dx, dy * inv)


@pytest.mark.parametrize("layout", ["c_order", "channels_first"])
@pytest.mark.parametrize("shape", [(8, 2, 2, 3), (4, 5, 2, 2, 3)],
                         ids=["batch", "stack"])
def test_population_forward_and_frozen_backward_have_the_bits_of_their_expressions(
        layout, shape):
    rng = np.random.default_rng(14)
    stats = ChannelStats(rng.standard_normal(3), 0.5 + rng.random(3), 8)
    layer = BnLayer(3)
    x = _in_layout(1.0 + 3.0 * rng.standard_normal(shape), layout)
    dy = _in_layout(rng.standard_normal(shape), layout)
    y, cache = layer.forward(x, mode=BnMode.EVAL_POPULATION, stats=stats)
    dx, _ = layer.backward(cache, dy)
    # the expressions the inverse std is computed by, once in each pass
    inv = 1.0 / np.sqrt(stats.var + layer.eps)
    np.testing.assert_array_equal(y, (x - stats.mean) * inv)
    np.testing.assert_array_equal(dx, dy * inv)


def test_moment_sinks_log_batch_stats():
    rng = np.random.default_rng(7)
    net = Network([BnLayer(3), MeanPool()])
    sinks = {0: []}
    x = _x(rng)
    net.evaluate(x, moment_sinks=sinks, cohort=len(x))
    assert len(sinks[0]) == 1
    np.testing.assert_allclose(sinks[0][0].mean,
                               channel_moments(x).mean)


def test_evaluate_stops_at_its_deepest_sink_and_never_trains():
    rng = np.random.default_rng(8)
    net = Network([BnLayer(3), MeanPool(), Linear.init(rng, 3, 2)])
    ema = net.layers[0].ema
    x = _x(rng)
    y = net.evaluate(x, moment_sinks={0: []}, cohort=len(x))
    # the BN layer's output: the pool and the Linear did not run
    np.testing.assert_array_equal(y, net.layers[0].forward(x, BnMode.EVAL_MINIBATCH)[0])
    assert net.layers[0].ema is ema


def _in_layout(x, layout):
    """``x`` in C order, as Linear's GEMM writes it, or a view of it whose
    channels are outermost in each sample, as the spatial task draws it."""
    if layout == "c_order":
        return x
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, -3)), -3, -1)


SHAPES = {"batch": (8, 2, 2, 3), "stack": (4, 5, 2, 2, 3)}


@pytest.mark.parametrize("mode", [BnMode.TRAIN_MINIBATCH, BnMode.EVAL_MINIBATCH])
@pytest.mark.parametrize("layout", ["c_order", "channels_first"])
@pytest.mark.parametrize("shape", list(SHAPES.values()), ids=list(SHAPES))
def test_batch_forward_has_the_bits_of_normalize_by_channel_moments(mode, layout,
                                                                    shape):
    rng = np.random.default_rng(12)
    x = _in_layout(1.0 + 3.0 * rng.standard_normal(shape), layout)
    layer = BnLayer(3)
    y, cache = layer.forward(x, mode=mode)
    moments = channel_moments(x)  # (C,), or (G, C) for the stack
    ref = normalize(x, moments, layer.eps)
    np.testing.assert_array_equal(y, ref)
    # the layout too: every reduction downstream follows it
    assert y.strides == ref.strides
    # normalize in place over its input: the same bits, in the same layout
    x_in = x.copy(order="K")
    assert normalize(x_in, moments, layer.eps, out=x_in) is x_in
    np.testing.assert_array_equal(x_in, ref)
    assert x_in.strides == ref.strides
    np.testing.assert_array_equal(cache.inv_std, 1.0 / np.sqrt(moments.var + layer.eps))
    np.testing.assert_array_equal(cache.moments.mean, moments.mean)
    np.testing.assert_array_equal(cache.moments.var, moments.var)


@pytest.mark.parametrize("layout", ["c_order", "channels_first"])
@pytest.mark.parametrize("shape", list(SHAPES.values()), ids=list(SHAPES))
def test_batch_stats_backward_has_the_bits_of_its_one_expression(layout, shape):
    rng = np.random.default_rng(13)
    _, x_hat, _, inv_std = batch_stats_forward(
        _in_layout(rng.standard_normal(shape), layout), 1e-5)
    dy = _in_layout(rng.standard_normal(shape), layout)
    # the expression the in-place version replaced
    inv = inv_std[..., None, None, None, :]
    m = dy.shape[-4] * dy.shape[-3] * dy.shape[-2]
    sum_dy = dy.sum(axis=SAMPLE_AXES, keepdims=True)
    sum_dy_xhat = (dy * x_hat).sum(axis=SAMPLE_AXES, keepdims=True)
    ref = (inv / m) * (m * dy - sum_dy - x_hat * sum_dy_xhat)
    dx = batch_stats_backward(x_hat, inv_std, dy)
    np.testing.assert_array_equal(dx, ref)
    assert dx.strides == ref.strides


@pytest.mark.parametrize("n, cohort", [(12, 4), (10, 4), (10, 10), (10, 20)])
@pytest.mark.parametrize("layout", ["c_order", "channels_first"])
def test_cohort_view_keeps_the_input_layout(n, cohort, layout):
    # whole cohorts, a ragged last one, and a cohort that covers the batch
    rng = np.random.default_rng(15)
    x = _in_layout(rng.standard_normal((n, 2, 2, 3)), layout)
    dy = _in_layout(rng.standard_normal((n, 2, 2, 3)), layout)
    layer = BnLayer(3)
    y, cache = layer.forward(x, mode=BnMode.TRAIN_MINIBATCH, cohort=cohort)
    dx, _ = layer.backward(cache, dy)
    assert y.shape == dx.shape == x.shape
    assert y.strides == x.strides and dx.strides == dy.strides


@pytest.mark.parametrize("n, cohort", [(12, 4), (10, 4), (10, 10), (10, 20)])
def test_the_ema_steps_once_per_cohort(n, cohort):
    # whole cohorts, a ragged last one, and a cohort that covers the batch:
    # ceil(n / cohort) steps, each by one cohort's own moments, in order
    rng = np.random.default_rng(17)
    x = 1.0 + 2.0 * rng.standard_normal((n, 2, 2, 3))
    layer = BnLayer(3, momentum=0.7)
    want = layer.ema
    for start in range(0, n, cohort):
        want = ema_update(want, channel_moments(x[start : start + cohort]), 0.7)
    layer.forward(x, mode=BnMode.TRAIN_MINIBATCH, cohort=cohort)
    # one cohort takes the one-step formula; several fold in closed form
    tol = 0.0 if cohort >= n else 1e-12
    np.testing.assert_allclose(layer.ema.mean, want.mean, rtol=tol, atol=tol)
    np.testing.assert_allclose(layer.ema.var, want.var, rtol=tol, atol=tol)
    assert layer.ema.count == 1


def test_layer_validation():
    with pytest.raises(InvalidParams):
        BnLayer(3, eps=0.0)
    for momentum in (1.5, -0.1):
        with pytest.raises(InvalidParams,
                           match=rf"^momentum must be in \[0, 1\], got {momentum}$"):
            BnLayer(3, momentum=momentum)
    layer = BnLayer(3)
    with pytest.raises(ShapeMismatch):
        layer.forward(np.zeros((2, 1, 1, 4)))
    with pytest.raises(EmptyBatch):
        layer.forward(np.zeros((0, 1, 1, 3)), mode=BnMode.EVAL_MINIBATCH)


@pytest.mark.parametrize("cohort", [0, -3])
@pytest.mark.parametrize("call", ["forward", "evaluate", "shared_head"])
def test_a_cohort_below_one_is_refused(call, cohort):
    rng = np.random.default_rng(18)
    net = Network([BnLayer(3), MeanPool()])
    ema = net.layers[0].ema
    with pytest.raises(InvalidParams, match=rf"^cohort must be at least 1, got {cohort}$"):
        if call == "forward":
            net.forward(_x(rng), cohort=cohort)
        elif call == "evaluate":
            net.evaluate(_x(rng), cohort=cohort)
        else:
            SharedHeadNet(rng, 3, 4, 2, cohort=cohort)
    assert net.layers[0].ema is ema  # refused before any EMA step


def test_fusion_demo_validation():
    with pytest.raises(InvalidParams):
        fusion_finetune_demo(0.5, 0.0, 1.0, 5)
    with pytest.raises(InvalidParams):
        fusion_finetune_demo(0.5, 1.0, 1.0, -1)
    unfused, fused = fusion_finetune_demo(0.5, 2.0, 1.0, 0)
    assert unfused == [2.0] and fused == [2.0]
