"""Finite-difference verification of every layer backward and of the
composed network, including the virtual (stop-gradient) normalization
variant."""

import numpy as np

from .layer import BnLayer, BnMode
from .net import (
    Affine,
    Linear,
    MeanPool,
    Network,
    Relu,
    softmax_cross_entropy,
)
from .tensor import ChannelStats

__all__ = ["numerical_gradient", "relative_error", "run_full_suite", "TOLERANCE"]

TOLERANCE = 1e-5


def numerical_gradient(f, x, h=1e-5):
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return grad


def relative_error(a, b):
    """Scale-aware max deviation between two gradient arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(), np.abs(b).max(), 1.0)
    return float(np.abs(a - b).max() / scale)


def _loss_weights(rng, shape):
    # fixed random linear functional so the scalar loss exercises all outputs
    return rng.standard_normal(shape)


def _check_layer_input(forward, backward, x, rng):
    w = _loss_weights(rng, forward(x).shape)

    def f(xv):
        return float((forward(xv) * w).sum())

    analytic = backward(x, w)
    numeric = numerical_gradient(f, x.copy())
    return relative_error(analytic, numeric)


def _check_param_layer(layer, x, rng):
    """Input and parameter gradients of a Linear or Affine layer.

    For a (G, n, C, H, W) cohort stack the parameter gradients carry a
    leading cohort axis; cohort g's slice is checked against finite
    differences of the part of the loss on cohort g's outputs.
    """
    def fwd(xv):
        y, _ = layer.forward(xv)
        return y

    def bwd(xv, w):
        _, cache = layer.forward(xv)
        dx, _ = layer.backward(cache, w)
        return dx

    errs = [_check_layer_input(fwd, bwd, x, rng)]
    w = _loss_weights(rng, fwd(x).shape)
    _, cache = layer.forward(x)
    _, grads = layer.backward(cache, w)
    cohorts = range(x.shape[0]) if x.ndim == 5 else [None]
    for name in layer.param_names:
        p = getattr(layer, name)
        for g in cohorts:
            w_g, analytic = w, grads[name]
            if g is not None:
                w_g = np.zeros_like(w)
                w_g[g] = w[g]
                analytic = analytic[g]

            def f(pv, name=name, w_g=w_g):
                old = getattr(layer, name)
                setattr(layer, name, pv)
                y, _ = layer.forward(x)
                setattr(layer, name, old)
                return float((y * w_g).sum())

            errs.append(relative_error(analytic, numerical_gradient(f, p.copy())))
    return max(errs)


def check_linear(rng, shape=(6, 4, 1, 1)):
    return _check_param_layer(Linear.init(rng, 4, 5), rng.standard_normal(shape),
                              rng)


def check_affine(rng, shape=(4, 3, 2, 2)):
    layer = Affine(rng.standard_normal(3), rng.standard_normal(3))
    return _check_param_layer(layer, rng.standard_normal(shape), rng)


def check_meanpool(rng, shape=(4, 3, 2, 3)):
    layer = MeanPool()

    def fwd(xv):
        y, _ = layer.forward(xv)
        return y

    def bwd(xv, w):
        _, cache = layer.forward(xv)
        return layer.backward(cache, w)[0]

    return _check_layer_input(fwd, bwd, rng.standard_normal(shape), rng)


def check_relu(rng):
    layer = Relu()
    # keep inputs away from the kink so finite differences are valid
    x = rng.standard_normal((5, 3, 2, 2))
    x = np.where(np.abs(x) < 0.2, x + np.sign(x) * 0.3, x)

    def fwd(xv):
        y, _ = layer.forward(xv)
        return y

    def bwd(xv, w):
        _, cache = layer.forward(xv)
        return layer.backward(cache, w)[0]

    return _check_layer_input(fwd, bwd, x, rng)


def check_bn_train(rng, shape=(4, 3, 2, 2)):
    """Batch-statistics backward; a (G, n, C, H, W) shape checks a cohort
    stack, each cohort normalized by its own moments."""
    layer = BnLayer(3, eps=1e-5)
    x = rng.standard_normal(shape)

    def fwd(xv):
        y, _ = layer.forward(xv, mode=BnMode.TRAIN_MINIBATCH, update_stats=False)
        return y

    def bwd(xv, w):
        _, cache = layer.forward(xv, mode=BnMode.TRAIN_MINIBATCH, update_stats=False)
        return layer.backward(cache, w)

    return _check_layer_input(fwd, bwd, x, rng)


def check_bn_frozen(rng):
    layer = BnLayer(3, eps=1e-5)
    layer.freeze(ChannelStats(rng.standard_normal(3), rng.uniform(0.5, 2.0, 3), 8))
    x = rng.standard_normal((4, 3, 2, 2))

    def fwd(xv):
        y, _ = layer.forward(xv, mode=BnMode.FROZEN)
        return y

    def bwd(xv, w):
        _, cache = layer.forward(xv, mode=BnMode.FROZEN)
        return layer.backward(cache, w)

    return _check_layer_input(fwd, bwd, x, rng)


def check_bn_virtual(rng):
    """Batch statistics over [main; extra], gradient w.r.t. main only, with
    the extra samples held constant (and receiving exactly zero gradient)."""
    layer = BnLayer(3, eps=1e-5)
    main = rng.standard_normal((3, 3, 2, 2))
    extra = rng.standard_normal((2, 3, 2, 2))
    w = _loss_weights(rng, main.shape)

    def f(mv):
        full = np.concatenate([mv, extra], axis=0)
        y, _ = layer.forward(full, mode=BnMode.TRAIN_MINIBATCH, update_stats=False)
        return float((y[: mv.shape[0]] * w).sum())

    full = np.concatenate([main, extra], axis=0)
    _, cache = layer.forward(full, mode=BnMode.TRAIN_MINIBATCH, update_stats=False)
    dy = np.concatenate([w, np.zeros_like(extra)], axis=0)
    dx = layer.backward(cache, dy)
    err = relative_error(dx[: main.shape[0]], numerical_gradient(f, main.copy()))
    # the stop-gradient contract: extra rows get exactly zero
    stopped = dx.copy()
    stopped[main.shape[0] :] = 0.0
    return max(err, float(np.abs(stopped[main.shape[0] :]).max()))


def _toy_network(rng, frozen=False):
    net = Network([
        Linear.init(rng, 4, 5),
        BnLayer(5, eps=1e-5),
        Affine(rng.uniform(0.5, 1.5, 5), rng.standard_normal(5)),
        Relu(),
        Linear.init(rng, 5, 3),
    ])
    if frozen:
        for i in net.bn_indices:
            net.layers[i].freeze(
                ChannelStats(rng.standard_normal(5), rng.uniform(0.5, 2.0, 5), 8)
            )
    return net


def check_network(rng, frozen=False):
    net = _toy_network(rng, frozen=frozen)
    mode = BnMode.FROZEN if frozen else BnMode.TRAIN_MINIBATCH
    x = rng.standard_normal((6, 4, 1, 1))
    labels = rng.integers(0, 3, size=6)

    def loss_of(xv):
        logits, _ = net.forward(xv, modes=mode, update_stats=False)
        loss, _ = softmax_cross_entropy(logits, labels)
        return loss

    logits, caches = net.forward(x, modes=mode, update_stats=False)
    _, dlogits = softmax_cross_entropy(logits, labels)
    dx, grads = net.backward(caches, dlogits)
    errs = [relative_error(dx, numerical_gradient(loss_of, x.copy()))]
    for i, g in enumerate(grads):
        if not g:
            continue
        layer = net.layers[i]
        for name, analytic in g.items():
            p = getattr(layer, name)

            def f(pv, layer=layer, name=name):
                old = getattr(layer, name)
                setattr(layer, name, pv)
                out = loss_of(x)
                setattr(layer, name, old)
                return out

            errs.append(relative_error(analytic, numerical_gradient(f, p.copy())))
    return max(errs)


def run_full_suite(seed=0):
    """Max relative finite-difference error per checked component."""
    rng = np.random.default_rng(seed)
    return {
        "linear": check_linear(rng),
        "affine": check_affine(rng),
        "relu": check_relu(rng),
        "bn_train": check_bn_train(rng),
        "bn_frozen": check_bn_frozen(rng),
        "bn_virtual": check_bn_virtual(rng),
        "network_train": check_network(rng, frozen=False),
        "network_frozen": check_network(rng, frozen=True),
        # cohort stacks of G=3: per-cohort moments and parameter gradients
        "bn_train_grouped": check_bn_train(rng, shape=(3, 4, 3, 2, 2)),
        "linear_grouped": check_linear(rng, shape=(3, 2, 4, 2, 1)),
        "affine_grouped": check_affine(rng, shape=(3, 2, 3, 2, 2)),
        "meanpool": check_meanpool(rng),
        "meanpool_grouped": check_meanpool(rng, shape=(3, 2, 3, 2, 3)),
    }
