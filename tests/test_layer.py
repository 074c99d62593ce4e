"""The normalization layer: mode selection, EMA side effects, freezing,
cache discipline, and the frozen-affine fusion utilities."""

import numpy as np
import pytest

from bnlab.errors import (
    EmptyBatch,
    InvalidParams,
    MissingStats,
    ShapeMismatch,
    StaleCache,
)
from bnlab.layer import (
    AffineLayer,
    BnLayer,
    BnMode,
    fuse_frozen,
    fusion_finetune_demo,
)
from bnlab.net import MeanPool, Network
from bnlab.stats import BatchMomentLog
from bnlab.tensor import ChannelStats, channel_moments


def _x(rng, n=8, c=3, h=2, w=2):
    return 1.0 + rng.standard_normal((n, c, h, w))


def test_train_mode_standardizes_and_updates_ema():
    rng = np.random.default_rng(0)
    layer = BnLayer(3, eps=1e-12, momentum=0.5)
    x = _x(rng)
    y, _ = layer.forward(x, mode=BnMode.TRAIN_MINIBATCH)
    s = channel_moments(y)
    np.testing.assert_allclose(s.mean, 0.0, atol=1e-10)
    np.testing.assert_allclose(s.var, 1.0, atol=1e-8)
    batch = channel_moments(x)
    np.testing.assert_allclose(layer.ema.mean, 0.5 * batch.mean)
    np.testing.assert_allclose(layer.ema.var, 0.5 + 0.5 * batch.var)
    assert layer.ema.update_count == 1


def test_update_stats_flag_and_eval_modes_leave_ema_alone():
    rng = np.random.default_rng(1)
    layer = BnLayer(3)
    before = layer.ema
    layer.forward(_x(rng), mode=BnMode.TRAIN_MINIBATCH, update_stats=False)
    layer.forward(_x(rng), mode=BnMode.EVAL_MINIBATCH)
    layer.forward(_x(rng), mode=BnMode.EVAL_POPULATION)
    assert layer.ema is before


def test_eval_population_prefers_explicit_pop_stats():
    rng = np.random.default_rng(2)
    layer = BnLayer(3, eps=1e-5)
    x = _x(rng)
    y_ema, _ = layer.forward(x, mode=BnMode.EVAL_POPULATION)
    layer.pop = ChannelStats(np.full(3, 5.0), np.full(3, 4.0), 99)
    y_pop, _ = layer.forward(x, mode=BnMode.EVAL_POPULATION)
    assert np.abs(y_ema - y_pop).max() > 0.1
    np.testing.assert_allclose(y_pop, (x - 5.0) / np.sqrt(4.0 + 1e-5))


def test_pop_override_bypasses_layer_state():
    rng = np.random.default_rng(3)
    layer = BnLayer(3, eps=1e-5)
    override = ChannelStats(np.ones(3), np.ones(3), 7)
    x = _x(rng)
    y, _ = layer.forward(x, mode=BnMode.EVAL_POPULATION, pop_override=override)
    np.testing.assert_allclose(y, (x - 1.0) / np.sqrt(1.0 + 1e-5))
    assert layer.pop is None


def test_frozen_requires_snapshot_then_uses_it():
    rng = np.random.default_rng(4)
    layer = BnLayer(3)
    with pytest.raises(MissingStats):
        layer.forward(_x(rng), mode=BnMode.FROZEN)
    snap = ChannelStats(np.zeros(3), np.full(3, 2.0), 16)
    layer.freeze(snap)
    assert layer.mode is BnMode.FROZEN
    x = _x(rng)
    y, _ = layer.forward(x)
    np.testing.assert_allclose(y, x / np.sqrt(2.0 + layer.eps))


def test_freeze_defaults_to_current_eval_stats():
    layer = BnLayer(2)
    layer.pop = ChannelStats(np.ones(2), np.full(2, 3.0), 8)
    layer.freeze()
    assert layer.frozen is layer.pop


def test_cache_single_use():
    rng = np.random.default_rng(5)
    layer = BnLayer(3)
    x = _x(rng)
    _, cache = layer.forward(x, mode=BnMode.TRAIN_MINIBATCH, update_stats=False)
    layer.backward(cache, np.ones_like(x))
    with pytest.raises(StaleCache):
        layer.backward(cache, np.ones_like(x))


def test_frozen_backward_is_constant_scale():
    rng = np.random.default_rng(6)
    layer = BnLayer(3)
    layer.freeze(ChannelStats(np.zeros(3), np.array([1.0, 4.0, 9.0]), 8))
    x = _x(rng)
    _, cache = layer.forward(x)
    dy = rng.standard_normal(x.shape)
    dx = layer.backward(cache, dy)
    inv = 1.0 / np.sqrt(np.array([1.0, 4.0, 9.0]) + layer.eps)
    np.testing.assert_allclose(dx, dy * inv[None, :, None, None])


def test_moment_sinks_log_batch_stats():
    rng = np.random.default_rng(7)
    net = Network([BnLayer(3), MeanPool()])
    sinks = {0: BatchMomentLog()}
    x = _x(rng)
    net.forward(x, modes=BnMode.TRAIN_MINIBATCH, update_stats=False,
                moment_sinks=sinks)
    assert len(sinks[0]) == 1
    np.testing.assert_allclose(sinks[0].entries[0].mean,
                               channel_moments(x).mean)


def test_layer_validation():
    with pytest.raises(InvalidParams):
        BnLayer(3, eps=0.0)
    layer = BnLayer(3)
    with pytest.raises(ShapeMismatch):
        layer.forward(np.zeros((2, 4, 1, 1)))
    with pytest.raises(EmptyBatch):
        layer.forward(np.zeros((0, 3, 1, 1)), mode=BnMode.EVAL_MINIBATCH)


def test_fuse_frozen_matches_unfused_pipeline():
    rng = np.random.default_rng(8)
    c_in, c_out = 4, 3
    weight = rng.standard_normal((c_out, c_in))
    bias = rng.standard_normal(c_out)
    stats = ChannelStats(rng.standard_normal(c_out),
                         rng.uniform(0.5, 2.0, c_out), 64)
    aff = AffineLayer(rng.uniform(0.5, 1.5, c_out), rng.standard_normal(c_out))
    fw, fb = fuse_frozen(stats, aff, weight, bias, eps=1e-5)
    x = rng.standard_normal((10, c_in))
    pre = x @ weight.T + bias
    xhat = (pre - stats.mean) / np.sqrt(stats.var + 1e-5)
    ref = xhat * aff.gamma + aff.beta
    np.testing.assert_allclose(x @ fw.T + fb, ref, atol=1e-12)


def test_fuse_frozen_shape_checks():
    stats = ChannelStats(np.zeros(3), np.ones(3), 8)
    aff = AffineLayer.identity(3)
    with pytest.raises(ShapeMismatch):
        fuse_frozen(stats, aff, np.zeros((4, 2)), np.zeros(4))
    with pytest.raises(ShapeMismatch):
        fuse_frozen(stats, AffineLayer.identity(2), np.zeros((3, 2)), np.zeros(3))


def test_fusion_demo_validation():
    with pytest.raises(InvalidParams):
        fusion_finetune_demo(0.5, 0.0, 1.0, 5)
    with pytest.raises(InvalidParams):
        fusion_finetune_demo(0.5, 1.0, 1.0, -1)
    unfused, fused = fusion_finetune_demo(0.5, 2.0, 1.0, 0)
    assert unfused == [2.0] and fused == [2.0]
