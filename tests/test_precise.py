"""Statistics re-estimation passes: split-and-aggregate and layer-wise."""

import numpy as np
import pytest

from bnlab.errors import EmptyPopulation, InvalidParams
from bnlab.precise import precise_bn, precise_bn_layerwise
from bnlab.tensor import channel_moments
from oracles import random_net


def test_precise_bn_full_batch_matches_direct_moments():
    rng = np.random.default_rng(0)
    net = random_net(rng, [4, 6, 3])
    pop = rng.standard_normal((32, 4, 1, 1))
    stats = precise_bn(net, pop, 32)
    h, _ = net.layers[0].forward(pop)
    ref = channel_moments(h)
    np.testing.assert_allclose(stats[1].mean, ref.mean, atol=1e-12)
    np.testing.assert_allclose(stats[1].var, ref.var, atol=1e-12)


@pytest.mark.parametrize("estimate", [precise_bn, precise_bn_layerwise])
def test_precise_bn_is_read_only(estimate):
    rng = np.random.default_rng(1)
    net = random_net(rng, [4, 6, 6, 3])

    def state():
        # the EMA is all the state a BN layer holds
        return [(layer.ema.mean.tobytes(), layer.ema.var.tobytes(),
                 layer.ema.update_count)
                for layer in (net.layers[i] for i in net.bn_indices)]

    before = state()
    estimate(net, rng.standard_normal((16, 4, 1, 1)), 4)
    assert state() == before


def test_precise_bn_handles_ragged_final_batch():
    rng = np.random.default_rng(2)
    net = random_net(rng, [4, 6, 3])
    pop = rng.standard_normal((10, 4, 1, 1))
    stats = precise_bn(net, pop, 4)  # cohorts of 4, 4, 2
    # first layer sees the raw input, so aggregation must equal pop moments
    h, _ = net.layers[0].forward(pop)
    ref = channel_moments(h)
    np.testing.assert_allclose(stats[1].mean, ref.mean, atol=1e-12)
    np.testing.assert_allclose(stats[1].var, ref.var, atol=1e-12)


def test_layerwise_invariant_to_batch_size():
    rng = np.random.default_rng(3)
    net = random_net(rng, [4, 6, 6, 3])
    pop = rng.standard_normal((24, 4, 1, 1))
    ref = precise_bn_layerwise(net, pop, 24)
    for b in (3, 8):
        got = precise_bn_layerwise(net, pop, b)
        for i in ref:
            np.testing.assert_allclose(got[i].mean, ref[i].mean, atol=1e-10)
            np.testing.assert_allclose(got[i].var, ref[i].var, atol=1e-10)


def test_plain_pass_drifts_at_small_batch_deeper_layers():
    rng = np.random.default_rng(4)
    net = random_net(rng, [4, 6, 6, 3])
    pop = rng.standard_normal((32, 4, 1, 1))
    oracle = precise_bn(net, pop, 32)
    plain = precise_bn(net, pop, 4)
    deep = net.bn_indices[-1]
    drift = max(np.abs(plain[deep].mean - oracle[deep].mean).max(),
                np.abs(plain[deep].var - oracle[deep].var).max())
    assert drift > 1e-8  # small-cohort normalization shifts deeper moments


def test_precise_bn_validation():
    rng = np.random.default_rng(5)
    net = random_net(rng, [4, 6, 3])
    pop = rng.standard_normal((8, 4, 1, 1))
    with pytest.raises(EmptyPopulation):
        precise_bn(net, np.zeros((0, 4, 1, 1)), 4)
    with pytest.raises(EmptyPopulation):
        precise_bn_layerwise(net, np.zeros((0, 4, 1, 1)), 4)
    with pytest.raises(InvalidParams):
        precise_bn(net, pop, 0)
