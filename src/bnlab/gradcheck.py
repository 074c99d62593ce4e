"""Finite-difference verification of every layer backward and of the
composed networks (``Network`` and shared_head's ``SharedHeadNet``).

Each row of ``CASES`` builds a model from the suite's generator and returns
a scalar loss of it with its ``(array, analytic gradient)`` pairs, the
input's and each parameter's; one ``_max_error`` compares every pair with
central differences of that loss, perturbing the live array in place.
"""

import numpy as np

from .layer import BnLayer, BnMode
from .net import Affine, Linear, MeanPool, Network, Relu, softmax_cross_entropy
from .scenarios import SharedHeadNet
from .tensor import ChannelStats

__all__ = ["numerical_gradient", "relative_error", "run_full_suite", "TOLERANCE"]

TOLERANCE = 1e-5


def numerical_gradient(f, x, h=1e-5):
    """Central finite differences of ``f(x)``, a scalar, in each element of
    the float64 array ``x``, which is perturbed in place and each element
    restored to its bits."""
    grad = np.zeros(x.shape)
    for i in np.ndindex(x.shape):
        orig = x[i]
        x[i] = orig + h
        fp = f(x)
        x[i] = orig - h
        fm = f(x)
        x[i] = orig
        grad[i] = (fp - fm) / (2 * h)
    return grad


def relative_error(a, b):
    """Scale-aware max deviation between two gradient arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(), np.abs(b).max(), 1.0)
    return float(np.abs(a - b).max() / scale)


def _max_error(loss, pairs):
    """Max relative error of each analytic gradient in ``pairs`` against
    central differences of ``loss()``, which reads each array."""
    return max(relative_error(g, numerical_gradient(lambda _: loss(), a))
               for a, g in pairs)


def _param_pairs(layer_grads):
    """(parameter, gradient) of every ``(layer, {name: gradient})``."""
    return [(getattr(layer, name), g)
            for layer, grads in layer_grads for name, g in (grads or {}).items()]


def _layer(rng, make_layer, shape, forward_kw=None):
    """A layer's input and parameter gradients under the loss
    sum(forward(x, **forward_kw) * w) for a fixed random w."""
    forward_kw = forward_kw or {}
    x = rng.standard_normal(shape)
    # keep inputs away from relu's kink so finite differences are valid
    x = np.where(np.abs(x) < 0.2, x + np.sign(x) * 0.3, x)
    layer = make_layer(rng)
    y, cache = layer.forward(x, **forward_kw)
    w = rng.standard_normal(y.shape)
    dx, grads = layer.backward(cache, w)
    return (lambda: float((layer.forward(x, **forward_kw)[0] * w).sum()),
            [(x, dx), *_param_pairs([(layer, grads)])])


def _network(rng, n=6, frozen=False, cohort=None, affine_rows=None):
    """A small Network's input and parameter gradients on ``n`` rows, its BN
    layer normalizing by the moments of each ``cohort`` rows
    (differentiated), or, if ``frozen``, by fixed statistics passed to each
    forward (constants); the affine has (C,) or (affine_rows, C)
    parameters."""
    shape = (5,) if affine_rows is None else (affine_rows, 5)
    net = Network([
        Linear.init(rng, 4, 5),
        BnLayer(5),
        Affine(rng.uniform(0.5, 1.5, shape), rng.standard_normal(shape)),
        Relu(),
        Linear.init(rng, 5, 3),
    ])
    stats = ({1: ChannelStats(rng.standard_normal(5), rng.uniform(0.5, 2.0, 5), 8)}
             if frozen else None)
    x = rng.standard_normal((n, 1, 1, 4))
    labels = rng.integers(0, 3, size=n)

    def forward():
        return net.forward(x, stats=stats, cohort=cohort)

    logits, caches = forward()
    dx, grads = net.backward(caches, softmax_cross_entropy(logits, labels)[1])
    return (lambda: softmax_cross_entropy(forward()[0], labels)[0],
            [(x, dx), *_param_pairs(zip(net.layers, grads))])


def _shared_head(rng, cohort, domains=3):
    """SharedHeadNet.backward_train's parameter gradients on a batch of
    ``domains`` row blocks of 4 rows, with per-domain affine parameters,
    the batch statistics shared by each ``cohort`` rows (None: all)."""
    net = SharedHeadNet(rng, 4, 5, 3, cohort=cohort, affine_blocks=domains)
    net.affine = Affine(rng.uniform(0.5, 1.5, (domains, 5)),
                        rng.standard_normal((domains, 5)))
    x = rng.standard_normal((domains * 4, 1, 1, 4))
    w = rng.standard_normal((domains * 4, 3))
    grads = net.backward_train(net.forward_train(x)[1], w)
    return (lambda: float((net.forward_train(x)[0] * w).sum()),
            _param_pairs((getattr(net, name), g) for name, g in grads.items()))


# component -> (case, *its arguments after the generator), checked in order
CASES = {
    "linear": (_layer, lambda rng: Linear.init(rng, 4, 5), (6, 1, 1, 4)),
    "affine": (_layer, lambda rng: Affine(rng.standard_normal(3),
                                          rng.standard_normal(3)), (4, 2, 2, 3)),
    "relu": (_layer, lambda rng: Relu(), (5, 2, 2, 3)),
    "bn_train": (_layer, lambda rng: BnLayer(3), (4, 2, 2, 3)),
    # FrozenBN: normalization by fixed statistics, constants to the backward
    "bn_frozen": (_layer, lambda rng: BnLayer(3), (4, 2, 2, 3), {
        "mode": BnMode.EVAL_POPULATION,
        "stats": ChannelStats([0.3, -1.2, 0.8], [0.7, 1.9, 1.3], 8)}),
    # BN's view of cohorts of 4 rows, the last one ragged
    "bn_train_grouped": (_layer, lambda rng: BnLayer(3), (10, 2, 2, 3), {"cohort": 4}),
    "meanpool": (_layer, lambda rng: MeanPool(), (4, 2, 3, 3)),
    "network_train": (_network,),
    "network_frozen": (_network, 6, True),
    # ghost cohorts of 4 over 10 rows, the last one ragged
    "network_ghost": (_network, 10, False, 4),
    "network_ghost_affine_rows": (_network, 10, False, 4, 2),
    # shared_head's batch of D=3 domain row blocks, with a per-domain affine
    "shared_head_shared": (_shared_head, None),
    "shared_head_per_domain": (_shared_head, 4),
}


def run_full_suite(seed=0):
    """Max relative finite-difference error per checked component."""
    rng = np.random.default_rng(seed)
    return {name: _max_error(*case(rng, *args))
            for name, (case, *args) in CASES.items()}
