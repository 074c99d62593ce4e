"""Finite-difference verification of every layer backward and of the
composed networks (``Network`` and shared_head's ``SharedHeadNet``).

Every layer has the same protocol, ``forward(x) -> (y, cache)`` and
``backward(cache, dy) -> (dx, grads)``, so one ``check_layer`` covers each
entry of the ``LAYER_CASES`` table.
"""

import numpy as np

from .layer import BnLayer, BnMode
from .net import Affine, Linear, MeanPool, Network, Relu, softmax_cross_entropy
from .scenarios import SharedHeadNet
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


def check_layer(layer, x, rng, **forward_kw):
    """Max relative error of a layer's input gradient and of each parameter
    gradient, under the loss sum(forward(x, **forward_kw) * w) for a fixed
    random w.
    """
    def loss_of(xv):
        return float((layer.forward(xv, **forward_kw)[0] * w).sum())

    y, cache = layer.forward(x, **forward_kw)
    w = rng.standard_normal(y.shape)
    dx, grads = layer.backward(cache, w)
    errs = [relative_error(dx, numerical_gradient(loss_of, x.copy()))]
    errs += _param_errors([(layer, grads or {})], lambda: loss_of(x))
    return max(errs)


def _affine(rng):
    return Affine(rng.standard_normal(3), rng.standard_normal(3))


# component -> (layer factory, input shape[, forward keywords])
LAYER_CASES = {
    "linear": (lambda rng: Linear.init(rng, 4, 5), (6, 1, 1, 4)),
    "affine": (_affine, (4, 2, 2, 3)),
    "relu": (lambda rng: Relu(), (5, 2, 2, 3)),
    "bn_train": (lambda rng: BnLayer(3), (4, 2, 2, 3)),
    # FrozenBN: normalization by fixed statistics, constants to the backward
    "bn_frozen": (lambda rng: BnLayer(3), (4, 2, 2, 3), {
        "mode": BnMode.EVAL_POPULATION,
        "stats": ChannelStats([0.3, -1.2, 0.8], [0.7, 1.9, 1.3], 8)}),
    # BN's view of cohorts of 4 rows, the last one ragged
    "bn_train_grouped": (lambda rng: BnLayer(3), (10, 2, 2, 3), {"cohort": 4}),
    "meanpool": (lambda rng: MeanPool(), (4, 2, 3, 3)),
}


def check_network(rng, frozen=False, n=6, cohort=None, affine_rows=None):
    """Input and parameter gradients of a small Network on ``n`` rows, its
    BN layer normalizing by the moments of each ``cohort`` rows
    (differentiated), or, if ``frozen``, by fixed statistics passed to
    each forward (constants); the affine has (C,) or (affine_rows, C)
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

    def loss_of(xv):
        logits, _ = net.forward(xv, stats=stats, cohort=cohort)
        loss, _ = softmax_cross_entropy(logits, labels)
        return loss

    logits, caches = net.forward(x, stats=stats, cohort=cohort)
    _, dlogits = softmax_cross_entropy(logits, labels)
    dx, grads = net.backward(caches, dlogits)
    errs = [relative_error(dx, numerical_gradient(loss_of, x.copy()))]
    errs += _param_errors(
        [(net.layers[i], g) for i, g in enumerate(grads) if g], lambda: loss_of(x))
    return max(errs)


def _param_errors(layer_grads, loss_of):
    """Relative error of every analytic parameter gradient in
    ``layer_grads``, (layer, {name: gradient}) pairs, against central
    differences of the scalar ``loss_of()``."""
    errs = []
    for layer, g in layer_grads:
        for name, analytic in g.items():

            def f(pv, layer=layer, name=name):
                old = getattr(layer, name)
                setattr(layer, name, pv)
                out = loss_of()
                setattr(layer, name, old)
                return out

            errs.append(relative_error(
                analytic, numerical_gradient(f, getattr(layer, name).copy())))
    return errs


def check_shared_head(rng, cohort, domains=3):
    """Parameter gradients of SharedHeadNet.backward_train on a batch of
    ``domains`` row blocks of 4 rows, with per-domain affine parameters,
    the batch statistics shared by each ``cohort`` rows (None: all)."""
    net = SharedHeadNet(rng, 4, 5, 3, cohort=cohort, affine_blocks=domains)
    net.affine = Affine(rng.uniform(0.5, 1.5, (domains, 5)),
                        rng.standard_normal((domains, 5)))
    x = rng.standard_normal((domains * 4, 1, 1, 4))
    w = rng.standard_normal((domains * 4, 3))

    def loss_of():
        logits, _ = net.forward_train(x)
        return float((logits * w).sum())

    _, caches = net.forward_train(x)
    grads = net.backward_train(caches, w)
    return max(_param_errors(
        [(getattr(net, name), g) for name, g in grads.items()], loss_of))


def run_full_suite(seed=0):
    """Max relative finite-difference error per checked component."""
    rng = np.random.default_rng(seed)
    report = {}
    for name, (make_layer, shape, *forward_kw) in LAYER_CASES.items():
        x = rng.standard_normal(shape)
        # keep inputs away from relu's kink so finite differences are valid
        x = np.where(np.abs(x) < 0.2, x + np.sign(x) * 0.3, x)
        report[name] = check_layer(make_layer(rng), x, rng, **dict(*forward_kw))
    report["network_train"] = check_network(rng, frozen=False)
    report["network_frozen"] = check_network(rng, frozen=True)
    # ghost cohorts of 4 over 10 rows, the last one ragged
    report["network_ghost"] = check_network(rng, n=10, cohort=4)
    report["network_ghost_affine_rows"] = check_network(rng, n=10, cohort=4,
                                                        affine_rows=2)
    # shared_head's batch of D=3 domain row blocks, with a per-domain affine
    report["shared_head_shared"] = check_shared_head(rng, None)
    report["shared_head_per_domain"] = check_shared_head(rng, 4)
    return report
