"""The manually differentiated network: layer semantics, loss, SGD loop."""

import numpy as np
import pytest

from bnlab.batching import NormBatchPlan
from bnlab.errors import (Diverged, InvalidParams, InvalidPlan, ShapeMismatch,
                          StaleCache)
from bnlab.gradcheck import numerical_gradient, relative_error
from bnlab.layer import BnLayer, BnMode
from bnlab.net import (
    LOSS_BOUND,
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
from bnlab.tensor import ChannelStats
from conftest import ema_stats


def _net(rng, dims=(4, 6, 3)):
    return Network([
        Linear.init(rng, dims[0], dims[1]),
        BnLayer(dims[1]),
        Affine.identity(dims[1]),
        Relu(),
        Linear.init(rng, dims[1], dims[2]),
    ])


def test_linear_acts_per_spatial_site():
    rng = np.random.default_rng(0)
    layer = Linear.init(rng, 3, 5)
    x = rng.standard_normal((2, 2, 2, 3))
    y, _ = layer.forward(x)
    assert y.shape == (2, 2, 2, 5)
    for i in range(2):
        for j in range(2):
            ref = x[:, i, j] @ layer.weight.T + layer.bias
            np.testing.assert_allclose(y[:, i, j], ref, atol=1e-12)


def test_linear_shape_validation():
    with pytest.raises(ShapeMismatch):
        Linear(np.zeros((3, 4)), np.zeros(2))


def test_meanpool_forward_backward():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 2, 2, 2))
    pool = MeanPool()
    y, cache = pool.forward(x)
    np.testing.assert_allclose(y[:, 0, 0], x.mean(axis=(1, 2)))
    dy = rng.standard_normal(y.shape)
    dx, _ = pool.backward(cache, dy)
    np.testing.assert_array_equal(dx, np.broadcast_to(dy / 4.0, x.shape))


@pytest.mark.parametrize("mode", [BnMode.TRAIN_MINIBATCH, BnMode.EVAL_POPULATION])
def test_backward_returns_c_contiguous_gradients(mode):
    rng = np.random.default_rng(11)
    layers = [
        BnLayer(6), Affine.identity(6), Relu(), Linear.init(rng, 6, 5),
        BnLayer(5), Affine.identity(5), Relu(), MeanPool(), Linear.init(rng, 5, 3),
    ]
    # an (N, H, W, C) input drawn channel by channel, as the spatial task
    # draws it: a view that is not C-contiguous, whose gradient is
    layers.insert(0, Linear.init(rng, 4, 6))
    x = rng.standard_normal((6, 4, 2, 3)).transpose(0, 2, 3, 1)
    assert not x.flags.c_contiguous
    inputs, caches = [], []
    for layer in layers:
        inputs.append(x)
        if isinstance(layer, BnLayer):
            x, cache = layer.forward(x, mode=mode, stats=layer.ema
                                     if mode is BnMode.EVAL_POPULATION else None)
        else:
            x, cache = layer.forward(x)
        caches.append(cache)
    dy = rng.standard_normal(x.shape)
    for layer, x_in, cache in reversed(list(zip(layers, inputs, caches))):
        dy, grads = layer.backward(cache, dy)
        # None for a parameter-free layer, else keyed by its parameters
        assert set(grads or ()) == set(layer.param_names)
        assert dy.shape == x_in.shape
        assert dy.flags.c_contiguous, type(layer).__name__


def test_softmax_cross_entropy_matches_manual():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((5, 3))
    labels = rng.integers(0, 3, 5)
    loss, dlogits = softmax_cross_entropy(logits, labels)
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    ref = -np.log(p[np.arange(5), labels]).mean()
    assert loss == pytest.approx(ref, abs=1e-12)
    onehot = np.zeros((5, 3))
    onehot[np.arange(5), labels] = 1.0
    np.testing.assert_allclose(dlogits, (p - onehot) / 5, atol=1e-12)


@pytest.mark.parametrize("kind", [
    "batch",
    "ragged_tail",  # cohorts of 4: a whole cohort and a ragged tail of 2
    "population",  # every BN layer frozen by its EMA
])
def test_network_cache_single_use(kind):
    rng = np.random.default_rng(3)
    net = _net(rng)
    x = rng.standard_normal((6, 1, 1, 4))
    kwargs = {"batch": {}, "ragged_tail": {"cohort": 4},
              "population": {"stats": {i: net.layers[i].ema
                                       for i in net.bn_indices}}}[kind]
    logits, caches = net.forward(x, **kwargs)
    net.backward(caches, np.ones_like(logits))
    with pytest.raises(StaleCache,
                       match="^network caches already consumed by backward$"):
        net.backward(caches, np.ones_like(logits))
    # each of its BN layers' caches is spent too, a ragged tail's with it
    bn = net.bn_indices[0]
    with pytest.raises(StaleCache, match="^backward already consumed this cache$"):
        net.layers[bn].backward(caches[bn], np.ones((6, 1, 1, 6)))


def test_forward_needs_h_w_1_logits_and_backward_takes_any_logits_gradient():
    rng = np.random.default_rng(4)
    net = _net(rng)
    with pytest.raises(ShapeMismatch,
                       match="^dense layers expect h = w = 1 activations$"):
        net.forward(rng.standard_normal((6, 2, 2, 4)))
    x = rng.standard_normal((6, 1, 1, 4))
    dlogits = rng.standard_normal((6, 3))
    results = []
    for given in (dlogits, dlogits.tolist(), dlogits.astype(np.float32)):
        _, caches = net.forward(x)
        results.append(net.backward(caches, given))
    # a list converts to the same float64 gradient; float32 rounds it
    assert results[0][0].tobytes() == results[1][0].tobytes()
    np.testing.assert_allclose(results[2][0], results[0][0], rtol=1e-6)
    _, caches = net.forward(x)
    with pytest.raises(ShapeMismatch):
        net.backward(caches, dlogits[None])


@pytest.mark.parametrize("n, cohort", [(6, None), (6, 2), (7, 3)])
def test_backward_without_input_grad_keeps_parameter_gradient_bits(n, cohort):
    rng = np.random.default_rng(11)
    net = _net(rng)
    x = rng.standard_normal((n, 1, 1, 4))
    results = []
    for input_grad in (True, False):
        logits, caches = net.forward(x, cohort=cohort)
        dlogits = np.random.default_rng(12).standard_normal(logits.shape)
        results.append(net.backward(caches, dlogits, input_grad=input_grad))
    (dx, grads), (skipped, grads_skipped) = results
    assert dx.shape == x.shape and skipped is None
    for g, g_skipped in zip(grads, grads_skipped):
        assert (g is None) == (g_skipped is None)
        for k in g or {}:
            assert g[k].tobytes() == g_skipped[k].tobytes(), k


def test_train_stops_at_the_first_nan_or_out_of_bound_loss():
    steps_drawn = []

    def batch_fn(r, size):
        steps_drawn.append(len(steps_drawn))
        x = r.standard_normal((size, 1, 1, 4))
        if len(steps_drawn) == 3:
            x[0, 0] = np.nan
        return x, r.integers(0, 3, size)

    cfg = SgdConfig(lr=0.05, steps=5, batch_size=8, seed=1)
    with pytest.raises(Diverged, match=r"^training diverged at step 3: "
                                       r"loss nan is not <= 1000$"):
        train(_net(np.random.default_rng(13)), batch_fn, cfg)
    assert len(steps_drawn) == 3
    # a finite loss above the bound: logits scaled far past any trained run
    net = _net(np.random.default_rng(13))
    net.layers[-1].weight *= 1e6
    with pytest.raises(Diverged, match="at step 1: loss"):
        train(net, lambda r, size: (r.standard_normal((size, 1, 1, 4)),
                                    r.integers(0, 3, size)), cfg)
    assert LOSS_BOUND == 1e3


def test_layer_names_are_stable_and_unique():
    net = _net(np.random.default_rng(4))
    assert net.layer_names() == ["linear0", "bn0", "affine0", "relu0", "linear1"]
    assert net.bn_indices == [1]


def test_sgd_config_validation_and_warmup():
    with pytest.raises(InvalidParams):
        SgdConfig(lr=0.1, steps=1, batch_size=4, momentum=1.0)
    for lr in (-0.1, float("nan")):
        with pytest.raises(InvalidParams, match="learning rate"):
            SgdConfig(lr=lr, steps=1, batch_size=4)
    cfg = SgdConfig(lr=0.1, steps=10, batch_size=4, warmup_steps=5)
    assert cfg.lr_at(0) == pytest.approx(0.02)
    assert cfg.lr_at(4) == pytest.approx(0.1)
    assert cfg.lr_at(9) == pytest.approx(0.1)


def test_train_is_deterministic_and_learns():
    task_rng = np.random.default_rng(5)
    means = 4.0 * np.eye(3, 4)
    x = np.concatenate([means[i] + 0.5 * task_rng.standard_normal((40, 4))
                        for i in range(3)])
    y = np.repeat(np.arange(3), 40)

    def batch_fn(rng, size):
        idx = rng.integers(0, x.shape[0], size=size)
        return x[idx][:, None, None], y[idx]

    results = []
    for _ in range(2):
        net = _net(np.random.default_rng(6))
        cfg = SgdConfig(lr=0.1, steps=60, batch_size=16, seed=7)
        train(net, batch_fn, cfg)
        err = classification_error(net, x[:, None, None], y,
                                   stats=ema_stats(net))
        results.append((err, net.layers[0].weight.copy()))
    assert results[0][0] == results[1][0]
    np.testing.assert_array_equal(results[0][1], results[1][1])
    assert results[0][0] < 0.1  # trivially separable blobs


def test_train_respects_frozen_layers():
    rng = np.random.default_rng(8)
    net = _net(rng)
    snap = ChannelStats(np.zeros(6), np.ones(6), 16)
    ema = net.layers[1].ema

    def batch_fn(r, size):
        return r.standard_normal((size, 1, 1, 4)), r.integers(0, 3, size)

    cfg = SgdConfig(lr=0.05, steps=5, batch_size=8, seed=1)
    train(net, batch_fn, cfg, stats={1: snap})
    assert net.layers[1].ema is ema  # frozen mode never updates EMA


def test_train_with_ghost_plan_matches_cohort_semantics():
    # a ghost plan with sub_batch == batch_size degenerates to plain training
    def batch_fn(r, size):
        return r.standard_normal((size, 1, 1, 4)), r.integers(0, 3, size)

    nets = []
    for plan in (None, NormBatchPlan(strategy="ghost", sub_batch=8)):
        net = _net(np.random.default_rng(9))
        cfg = SgdConfig(lr=0.05, steps=10, batch_size=8, seed=2)
        train(net, batch_fn, cfg, plan=plan)
        nets.append(net)
    np.testing.assert_allclose(nets[0].layers[0].weight,
                               nets[1].layers[0].weight, atol=1e-12)


def test_classification_error_plan_counts_its_ragged_tail():
    # a plan always partitions its rows: ghost cohorts of 4 over 10 rows
    # leave a last cohort of 2, normalized by its own moments and counted
    rng = np.random.default_rng(10)
    net = _net(rng)
    x = rng.standard_normal((10, 1, 1, 4))
    y = rng.integers(0, 3, 10)
    err = classification_error(net, x, y, plan=NormBatchPlan("ghost", 5))
    assert 0.0 <= err <= 1.0
    wrong = 0
    for start in (0, 4, 8):
        logits = net.evaluate(x[start : start + 4], cohort=4)
        wrong += int((logits.argmax(axis=1) != y[start : start + 4]).sum())
    assert classification_error(net, x, y,
                                plan=NormBatchPlan("ghost", 4)) == wrong / 10
    with pytest.raises(InvalidPlan):
        classification_error(net, x, y, plan=NormBatchPlan("shuffle", 4))


@pytest.mark.parametrize("rows, count, to_list, plan", [
    (300, 256, False, None),
    (256, 300, False, None),  # 256 rows are one whole chunk
    (24, 23, True, NormBatchPlan("shuffle", 8)),
], ids=["too_few", "too_many_at_a_chunk", "list_under_shuffle"])
def test_classification_error_needs_one_label_per_row(rows, count, to_list, plan):
    rng = np.random.default_rng(11)
    net = _net(rng)
    x = rng.standard_normal((rows, 1, 1, 4))
    y = rng.integers(0, 3, max(rows, count))
    convert = list if to_list else np.asarray
    stats = None if plan else ema_stats(net)
    with pytest.raises(ShapeMismatch, match=rf"^{rows} rows .* \({count},\)$"):
        classification_error(net, x, convert(y[:count]), plan=plan,
                             rng=np.random.default_rng(0), stats=stats)
    # one label per row, in either form, is measured alike
    errors = [classification_error(net, x, form(y[:rows]), plan=plan,
                                   rng=np.random.default_rng(0), stats=stats)
              for form in (convert, np.asarray)]
    assert errors[0] == errors[1]


@pytest.mark.parametrize("plan", [None, NormBatchPlan("ghost", 4)],
                         ids=["plain", "ghost4"])
def test_a_row_block_affine_trains_with_exact_gradients(plan):
    # a (3, 6) Affine scales a 12-row batch's three blocks of 4 rows
    rng = np.random.default_rng(21)
    shape = (3, 6)
    net = Network([Linear.init(rng, 4, 6), BnLayer(6),
                   Affine(rng.uniform(0.5, 1.5, shape),
                          rng.standard_normal(shape)),
                   Relu(), Linear.init(rng, 6, 3)])
    affine = net.layers[2]
    x, y = rng.standard_normal((12, 1, 1, 4)), rng.integers(0, 3, 12)
    cohort = None if plan is None else plan.sub_batch

    def loss_of():
        return softmax_cross_entropy(net.forward(x, cohort=cohort)[0], y)[0]

    logits, caches = net.forward(x, cohort=cohort)
    dx, grads = net.backward(caches, softmax_cross_entropy(logits, y)[1])
    # numerical_gradient perturbs each live array in place, as check-grad does
    numeric = numerical_gradient(lambda _: loss_of(), x)
    assert relative_error(dx, numeric) < 1e-7
    for name in affine.param_names:
        assert grads[2][name].shape == shape
        numeric = numerical_gradient(lambda _: loss_of(), getattr(affine, name))
        assert relative_error(grads[2][name], numeric) < 1e-7, name
    before = affine.gamma.copy()
    loss = sgd_step(net, x, y, SgdConfig(lr=0.05, steps=1, batch_size=12), 0,
                    plan, None, Momentum(net.layers))
    assert np.isfinite(loss)
    assert affine.gamma.shape == shape
    assert not np.array_equal(affine.gamma, before)


def test_a_row_block_affine_scales_consecutive_row_blocks():
    rng = np.random.default_rng(22)
    gamma, beta = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
    affine = Affine(gamma, beta)
    x = rng.standard_normal((12, 1, 1, 2))
    y, _ = affine.forward(x)
    # rows 0-3 take parameter row 0, rows 4-7 row 1, rows 8-11 row 2
    rows = np.repeat(np.arange(3), 4)
    np.testing.assert_array_equal(
        y, x * gamma[rows, None, None] + beta[rows, None, None])
    with pytest.raises(ShapeMismatch, match=r"10 rows .* 3 equal blocks"):
        affine.forward(np.zeros((10, 1, 1, 2)))
