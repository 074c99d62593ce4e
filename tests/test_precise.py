"""Statistics re-estimation passes: split-and-aggregate and layer-wise.
The forward-only passes behind them and ``classification_error`` keep no
caches and write over no input: a memory guard bounds what they hold, and
a test checks that the caller's input comes back as it went in."""

import tracemalloc

import numpy as np
import pytest

from bnlab import net as net_module
from bnlab.batching import NormBatchPlan
from bnlab.errors import EmptyPopulation, InvalidParams
from bnlab.layer import BnLayer
from bnlab.net import Affine, Linear, MeanPool, Network, Relu, classification_error
from bnlab.precise import precise_bn, precise_bn_layerwise
from bnlab.scenarios import EMA_VS_PRECISE_DEFAULTS, build_net
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
        return [(layer.ema, layer.ema.mean.tobytes(), layer.ema.var.tobytes())
                for layer in (net.layers[i] for i in net.bn_indices)]

    before = state()
    estimate(net, rng.standard_normal((16, 4, 1, 1)), 4)
    # the same EMA objects, with the same bits
    assert all(a[0] is b[0] and a[1:] == b[1:] for a, b in zip(state(), before))


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


def test_evaluation_passes_hold_a_few_activations_at_any_population(monkeypatch):
    """Peak numpy allocation of the forward-only passes on the
    ``ema_vs_precise`` net, in one 1,024-row chunk, from the first layer's
    output on.  One activation is 1,024 x 64 float64, 0.5 MiB.  The
    population error holds the first layer's output, which the BN, affine
    and relu overwrite, and then the next Linear's GEMM result and bias sum
    (3.1).  ``precise_bn`` at B = 1,024 holds a BN input, its centred copy
    and that copy squared, among others (4.0).  At B = 2 it adds each
    layer's (512, 64) moments until they are folded, one chunk's worth at
    any population size (6.5 at 1,024 and 8,192 rows).  When the passes ran
    the training forward, kept its caches and pooled a log of every
    chunk's moments at the end, they read 5.4, 5.4 and 8.4 against 32.2."""
    monkeypatch.setattr(net_module, "EVAL_CHUNK_ROWS", 1024)
    d = EMA_VS_PRECISE_DEFAULTS
    net = build_net(np.random.default_rng(3), [d["dim"], *d["hidden"], d["classes"]])
    rng = np.random.default_rng(1)
    x = rng.standard_normal((8192, d["dim"], 1, 1))
    y = rng.integers(0, d["classes"], 1024)
    activation = 1024 * d["hidden"][0] * 8
    first_layer = net.layers[0].forward

    def counted_from_its_output(x):
        out = first_layer(x)
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(net.layers[0], "forward", counted_from_its_output)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / activation
        finally:
            tracemalloc.stop()

    error = peak(lambda: classification_error(net, x[:1024], y))
    whole = peak(lambda: precise_bn(net, x[:1024], 1024))
    small, large = (peak(lambda rows=rows: precise_bn(net, x[:rows], 2))
                    for rows in (1024, 8192))
    assert error < 3.5, error
    assert whole < 4.5, whole
    assert large < 1.1 * small, (small, large)


def _first_layer_net(rng, first, c=3, hidden=5, classes=4):
    """A net whose first layer is ``first`` (a BnLayer, Affine or Relu),
    then Linear -> BN -> Affine -> Relu -> MeanPool -> Linear."""
    head = {"bn": [BnLayer(c), Affine(rng.uniform(0.5, 1.5, c), rng.normal(0, 1, c))],
            "affine": [Affine(rng.uniform(0.5, 1.5, c), rng.normal(0, 1, c))],
            "relu": [Relu()]}[first]
    return Network([*head, Linear.init(rng, c, hidden), BnLayer(hidden),
                    Affine.identity(hidden), Relu(), MeanPool(),
                    Linear.init(rng, hidden, classes)])


@pytest.mark.parametrize("first", ["bn", "affine", "relu"])
def test_evaluation_passes_leave_the_callers_input_as_it_was(first):
    rng = np.random.default_rng(6)
    net = _first_layer_net(rng, first)
    x = rng.standard_normal((40, 3, 2, 1))
    y = rng.integers(0, 4, 40)
    before = x.tobytes()
    runs = {
        "population": lambda: classification_error(net, x, y),
        "ghost": lambda: classification_error(net, x, y, plan=NormBatchPlan("ghost", 8)),
        "shuffle": lambda: classification_error(
            net, x, y, plan=NormBatchPlan("shuffle", 8), rng=np.random.default_rng(0)),
        "precise_bn": lambda: precise_bn(net, x, 8),
        "precise_bn_layerwise": lambda: precise_bn_layerwise(net, x, 8),
    }
    for name, run in runs.items():
        run()
        assert x.tobytes() == before, name
