"""A small feedforward network (linear + BN + affine + relu, softmax
cross-entropy) with exact manual backpropagation and momentum SGD.

Activations are carried as (N, H, W, C) tensors so the normalization layer
sees the same per-channel layout as the rest of the package, and every
layer takes only that shape.  A pass whose rows share statistics in
cohorts still runs the whole batch through every layer: only
``layer.batch_stats_forward`` and its backward view it per cohort (for
``BnLayer``, and for shared_head's ``SharedHeadNet``, whose per-domain
cohorts are its domain row blocks), so each cohort is normalized as if
forwarded alone while every GEMM and parameter-gradient sum runs over all
N rows at once.

Channels are the last axis, so an activation's (N * H * W, C) rows are the
operand and the result of Linear's GEMM as they are, and every backward
returns its input gradient as a C-contiguous array.

``Network.forward`` and ``Network.backward`` check their inputs once; the
layers take the float64 arrays those pass along and check them no further.
Evaluation runs ``Network.evaluate``, a forward-only pass that keeps no
caches and holds only what its next layer reads.
"""

from dataclasses import dataclass

import numpy as np

from .batching import NormBatchPlan, cohort_indices
from .errors import Diverged, EmptyBatch, InvalidParams, ShapeMismatch, StaleCache
from .layer import BnLayer, BnMode
from .tensor import SAMPLE_AXES, as_tensor4

__all__ = [
    "Linear",
    "Affine",
    "Relu",
    "MeanPool",
    "Network",
    "SgdConfig",
    "Momentum",
    "softmax_cross_entropy",
    "train",
    "classification_error",
    "chunk_rows",
    "EVAL_CHUNK_ROWS",
    "LOSS_BOUND",
]

# activation rows (samples times H * W sites) per forward-only pass, for
# memory only: whole cohorts up to this many, or one cohort
EVAL_CHUNK_ROWS = 256

# a training loss (mean cross-entropy, in nats) above this, or NaN, stops
# the run: chance level on K classes is ln K, 2.8 for the scenarios' 16
LOSS_BOUND = 1e3

class Linear:
    def __init__(self, weight, bias):
        self.weight = np.asarray(weight, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ShapeMismatch("weight must be (out, in) and bias (out,)")

    param_names = ("weight", "bias")

    @classmethod
    def init(cls, rng, fan_in, fan_out):
        a = 1.0 / np.sqrt(fan_in)
        return cls(rng.uniform(-a, a, size=(fan_out, fan_in)),
                   rng.uniform(-a, a, size=fan_out))

    def forward(self, x):
        # applied per spatial site (1x1-convolution semantics): one GEMM
        # over the batch's (N * H * W, C) rows
        x2 = x.reshape(-1, x.shape[-1])
        y2 = x2 @ self.weight.T + self.bias
        return y2.reshape(*x.shape[:-1], -1), (x2, x.shape)

    def backward(self, cache, dy, input_grad=True):
        """Input gradient and parameter gradients.  Without ``input_grad``
        the input gradient's GEMM is skipped and None is returned in its
        place."""
        x2, shape = cache
        dy2 = dy.reshape(-1, dy.shape[-1])
        grads = {"weight": dy2.T @ x2, "bias": np.add.reduce(dy2, axis=0)}
        if not input_grad:
            return None, grads
        return (dy2 @ self.weight).reshape(shape), grads


class Affine:
    """Trainable channel-wise scale and shift (the layer after each BN).

    Parameters are (C,), or (G, C) to give each of the G equal, consecutive
    row blocks of an (N, H, W, C) batch, which is viewed as
    (G, N // G, H, W, C), its own scale and shift.  Their gradients have the
    parameters' shape.
    """

    def __init__(self, gamma, beta):
        self.gamma = np.asarray(gamma, dtype=np.float64)
        self.beta = np.asarray(beta, dtype=np.float64)

    param_names = ("gamma", "beta")

    @classmethod
    def identity(cls, channels):
        return cls(np.ones(channels), np.zeros(channels))

    def forward(self, x, out=None):
        """(y, cache).  ``out``, an array of x's shape (x itself, say), if
        given receives y, with the bits of y without it; when it is x, the
        cache (x's view) holds y too, so no backward can follow."""
        xs = x
        if self.gamma.ndim == 2:  # the batch's row blocks
            blocks = self.gamma.shape[0]
            if x.shape[0] % blocks:
                raise ShapeMismatch(f"{x.shape[0]} rows do not split into {blocks} "
                                    f"equal blocks for a {self.gamma.shape} Affine")
            xs = x.reshape(blocks, -1, *x.shape[1:])
            if out is not None:
                out = out.reshape(xs.shape)
        y = np.multiply(xs, self.gamma[..., None, None, None, :], out=out)
        y += self.beta[..., None, None, None, :]
        return (y if xs is x else y.reshape(x.shape)), xs

    def backward(self, cache, dy):
        x = cache
        dys = dy if x.ndim == dy.ndim else dy.reshape(x.shape)
        grads = {
            "gamma": np.add.reduce(dys * x, axis=SAMPLE_AXES),
            "beta": np.add.reduce(dys, axis=SAMPLE_AXES),
        }
        dx = dys * self.gamma[..., None, None, None, :]
        return (dx if dys is dy else dx.reshape(dy.shape)), grads


class Relu:
    param_names = ()

    def forward(self, x, out=None):
        """(y, mask); ``out`` (x itself, say), if given, receives y."""
        mask = x > 0
        return np.multiply(x, mask, out=out), mask

    def backward(self, cache, dy):
        return dy * cache, None


class MeanPool:
    """Global average over the spatial axes, (N, H, W, C) -> (N, 1, 1, C)."""

    param_names = ()

    def forward(self, x):
        h, w = x.shape[1:3]
        return np.add.reduce(x, axis=(1, 2), keepdims=True) / (h * w), x

    def backward(self, cache, dy):
        h, w = cache.shape[1:3]
        dx = np.empty(cache.shape)
        dx[...] = dy / (h * w)
        return dx, None


class NetCaches(list):
    """One forward's caches, one per layer in order; a backward consumes
    them once."""

    consumed = False


class Network:
    """An ordered stack of Linear / BnLayer / Affine / Relu layers.

    Each layer's role is fixed when the network is built: ``bn_indices``
    lists the BN layers' positions, ``_overwrites`` the Affine and Relu
    layers', which can write their output over their input, and the passes
    read these roles instead of testing each layer's type.
    """

    def __init__(self, layers):
        self.layers = list(layers)
        self.bn_indices = [i for i, l in enumerate(self.layers)
                           if isinstance(l, BnLayer)]
        self._overwrites = [i for i, l in enumerate(self.layers)
                            if isinstance(l, (Affine, Relu))]
        self._first_linear = bool(self.layers) and isinstance(self.layers[0],
                                                               Linear)
        # sizes each pass's cache list, so a pass makes no append
        self._depth = len(self.layers)

    def layer_names(self):
        names = []
        counters = {}
        for layer in self.layers:
            kind = type(layer).__name__.lower().replace("bnlayer", "bn")
            k = counters.get(kind, 0)
            counters[kind] = k + 1
            names.append(f"{kind}{k}")
        return names

    def forward(self, x, *, stats=None, cohort=None):
        """The training pass: an (N, H, W, C) batch to its (N, K) logits and
        the caches of a ``backward``.  Each BN layer normalizes by the
        moments of each ``cohort`` rows (the last cohort ragged; default
        all), in its own view, and steps its EMA (TRAIN_MINIBATCH), except
        the layers in ``stats``, a dict {layer index: ChannelStats}: those
        normalize by the given statistics (EVAL_POPULATION).
        """
        if not (type(x) is np.ndarray and x.dtype == np.float64
                and x.ndim == 4):
            x = as_tensor4(x)
        caches = NetCaches((None,) * self._depth)
        bn = self.bn_indices
        for i, layer in enumerate(self.layers):
            if i in bn:
                fixed = None if stats is None else stats.get(i)
                x, cache = layer.forward(
                    x, mode=BnMode.TRAIN_MINIBATCH if fixed is None
                    else BnMode.EVAL_POPULATION, stats=fixed, cohort=cohort)
            else:
                x, cache = layer.forward(x)
            caches[i] = cache
        if x.shape[1] != 1 or x.shape[2] != 1:
            raise ShapeMismatch("dense layers expect h = w = 1 activations")
        return x[:, 0, 0], caches

    def evaluate(self, x, *, stats=None, moment_sinks=None, cohort=None):
        """The evaluation pass: (N, K) logits, without caches or EMA steps.
        With no ``cohort`` each BN layer normalizes by its ``stats``, which
        every one needs (EVAL_POPULATION).  With one, each normalizes by the
        moments of each ``cohort`` rows (EVAL_MINIBATCH), except the layers
        in ``stats``.  The BN, Affine and Relu layers write their output over
        their input where the pass allocated it, never over ``x``.

        ``moment_sinks`` maps BN layer index -> a list (or a
        ``stats.MomentFold``); the pass appends the layer's batch moments
        to it, (G, C) for the whole cohorts and then (C,) for a ragged last
        one, and ends after the deepest of those layers, returning its
        (N, H, W, C) output.
        """
        mode = BnMode.EVAL_POPULATION if cohort is None else BnMode.EVAL_MINIBATCH
        if not (type(x) is np.ndarray and x.dtype == np.float64
                and x.ndim == 4):
            x = as_tensor4(x)
        given, bn, overwrites = x, self.bn_indices, self._overwrites
        if cohort is None:  # refused before any layer runs
            for i in bn:
                if stats is None or i not in stats:
                    raise InvalidParams(
                        f"evaluate: no population stats for {self.layer_names()[i]}")
        stop = (self._depth if moment_sinks is None
                else max(moment_sinks, default=-1) + 1)
        for i in range(stop):
            layer = self.layers[i]
            if i in bn:
                fixed = None if stats is None else stats.get(i)
                x, cache = layer.forward(
                    x, mode=mode if fixed is None else BnMode.EVAL_POPULATION,
                    stats=fixed, cohort=cohort, out=None if x is given else x)
                if moment_sinks is not None and i in moment_sinks \
                        and cache.moments is not None:
                    moment_sinks[i].append(cache.moments)
                    if cache.tail is not None:
                        moment_sinks[i].append(cache.tail.moments)
            elif i in overwrites:
                x = layer.forward(x, out=None if x is given else x)[0]
            else:
                x = layer.forward(x)[0]
        if stop < self._depth:
            return x
        if x.shape[1] != 1 or x.shape[2] != 1:
            raise ShapeMismatch("dense layers expect h = w = 1 activations")
        return x[:, 0, 0]

    def backward(self, caches, dlogits, input_grad=True):
        """Exact gradients of the scalar loss the caller differentiated into
        ``dlogits``, (N, K) as the forward's logits: (input gradient,
        per-layer parameter gradients, each of its parameter's shape).
        Without ``input_grad`` a first Linear layer skips the
        input gradient, which comes back as None.
        """
        if caches.consumed:
            raise StaleCache("network caches already consumed by backward")
        caches.consumed = True
        # float64 logits gradients, as softmax_cross_entropy gives, pass as
        # they are; the type and dtype tests make no Python call
        if type(dlogits) is np.ndarray and dlogits.dtype == np.float64 \
                and dlogits.ndim == 2:
            dy = dlogits[:, None, None]
        else:
            dy = np.moveaxis(as_tensor4(np.asarray(dlogits)[..., None, None]), 1, -1)
        grads = [None] * self._depth
        for i in range(self._depth - 1, 0, -1):
            dy, grads[i] = self.layers[i].backward(caches[i], dy)
        first = self.layers[0]
        if input_grad or not self._first_linear:
            dy, grads[0] = first.backward(caches[0], dy)
        else:
            dy, grads[0] = first.backward(caches[0], dy, input_grad=False)
        return dy, grads


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the (N, K) logits' rows, with (N,) labels;
    returns (loss, dloss/dlogits)."""
    # a float64 array, as Network.forward gives, is not wrapped again
    if not (type(logits) is np.ndarray and logits.dtype == np.float64):
        logits = np.asarray(logits, dtype=np.float64)
    if type(labels) is not np.ndarray:
        labels = np.asarray(labels)
    n = logits.shape[0]
    # ufunc reduces give max's and sum's results without their wrapper calls
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    logz = np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    logp = shifted - logz
    onehot = labels[:, None] == np.arange(logits.shape[1])
    # add.reduce and / n give mean's result without its wrapper calls
    loss = -np.add.reduce(logp[onehot]) / n
    return loss, (np.exp(logp) - onehot) / n


@dataclass
class SgdConfig:
    lr: float
    steps: int
    batch_size: int
    momentum: float = 0.9
    warmup_steps: int = 0
    seed: int = 0

    def __post_init__(self):
        if not self.lr >= 0:
            raise InvalidParams("learning rate must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidParams("momentum must be in [0, 1)")

    def lr_at(self, step):
        if self.warmup_steps > 0 and step < self.warmup_steps:
            return self.lr * (step + 1) / self.warmup_steps
        return self.lr


class Momentum:
    """Momentum SGD over the parameters of ``layers`` in one flat buffer.

    Creation copies every parameter into one contiguous float64 buffer and
    rebinds its layer attribute to a view into it (an attribute rebound
    later is no longer trained).  ``grads`` holds, per layer, a dict of
    views into a gradient buffer of the same layout, which ``step`` fills.
    """

    def __init__(self, layers):
        size = sum(getattr(layer, k).size
                   for layer in layers for k in layer.param_names)
        self.params = np.empty(size)
        self.grad = np.zeros(size)
        self.velocity = None
        self.grads = []
        start = 0
        for layer in layers:
            views = {}
            for k in layer.param_names:
                value = getattr(layer, k)
                stop = start + value.size
                param = self.params[start:stop].reshape(value.shape)
                param[...] = value
                setattr(layer, k, param)
                views[k] = self.grad[start:stop].reshape(value.shape)
                start = stop
            self.grads.append(views)

    def step(self, grads, lr, momentum):
        """Copy ``grads`` into the gradient buffer, then v = m * v + g
        (v = g at the first step) and p = p - lr * v, each as whole-buffer
        operations.  ``grads`` holds per layer, in the order of the
        ``layers`` given at creation, a dict of its parameters' gradients
        (anything, such as None, for a layer without parameters)."""
        for g, out in zip(grads, self.grads):
            for k in out:
                out[k][...] = g[k]
        if self.velocity is None:
            self.velocity = self.grad.copy()
        else:
            self.velocity *= momentum
            self.velocity += self.grad
        self.params -= lr * self.velocity


def sgd_step(net, x, labels, cfg, step, plan, rng, optimizer, stats=None):
    """One SGD update: one forward and backward pass of the whole batch,
    in which each ``plan.sub_batch`` rows share BN statistics, in batch
    order (ghost) or in the order of ``cohort_indices``' fresh permutation
    (shuffle, gathered once), except the BN layers in ``stats``, frozen to
    those constants (FrozenBN); its gradients step the ``Momentum``
    optimizer.  Returns the mean training loss of the batch.
    """
    cohort = None
    if plan is not None:
        cohort = plan.sub_batch
        if plan.strategy == "shuffle":
            rows = np.concatenate(cohort_indices(plan, x.shape[0], rng))
            x, labels = x[rows], labels[rows]
    logits, caches = net.forward(x, stats=stats, cohort=cohort)
    loss, dlogits = softmax_cross_entropy(logits, labels)
    _, grads = net.backward(caches, dlogits, input_grad=False)
    optimizer.step(grads, cfg.lr_at(step), cfg.momentum)
    return loss


def diverged(step, loss, what=None):
    """The error for a training loss that is NaN or above LOSS_BOUND after
    the 0-based ``step``, or for a FloatingPointError ``loss`` raised in it
    (under ``np.errstate(...="raise")``); ``what`` names the model, where a
    loop trains several."""
    where = "" if what is None else f" ({what})"
    if isinstance(loss, FloatingPointError):
        return Diverged(f"training failed at step {step + 1}: {loss}{where}")
    return Diverged(f"training diverged at step {step + 1}: loss "
                    f"{float(loss):.6g} is not <= {LOSS_BOUND:g}{where}")


def train(net, batch_fn, cfg: SgdConfig, plan: NormBatchPlan | None = None,
          callback=None, stats=None, what=None):
    """Run momentum SGD.  ``batch_fn(rng, batch_size)`` yields each logical
    batch; ``callback(step, net)`` (if given) is invoked after every step.
    The BN layers in ``stats`` are frozen in every step (see ``sgd_step``).
    The parameters are views into a new ``Momentum`` buffer from here on.
    Returns the trained network (mutated in place).  Raises ``Diverged``
    at the first step whose loss is NaN or above LOSS_BOUND, or which
    raises FloatingPointError, naming the training by ``what`` where a run
    trains several."""
    rng = np.random.default_rng(cfg.seed)
    optimizer = Momentum(net.layers)
    for step in range(cfg.steps):
        x, labels = batch_fn(rng, cfg.batch_size)
        try:
            loss = sgd_step(net, x, labels, cfg, step, plan, rng, optimizer, stats)
        except FloatingPointError as exc:
            raise diverged(step, exc, what) from None
        if not loss <= LOSS_BOUND:
            raise diverged(step, loss, what)
        if callback is not None:
            callback(step, net)
    return net


def chunk_rows(cohort=None, sites=1):
    """Samples per forward-only pass: whole cohorts of ``cohort`` samples
    (by default one) of ``sites`` activation rows each (H * W), up to
    EVAL_CHUNK_ROWS activation rows, or one cohort."""
    cohort = cohort or 1
    return max(1, EVAL_CHUNK_ROWS // (cohort * sites)) * cohort


def classification_error(net, x, labels, *, stats=None, plan=None, rng=None):
    """Top-1 error of the network on (x, labels), one label per row of x
    (any other shape of labels raises ShapeMismatch).

    With no ``plan`` every BN layer normalizes by its ``stats`` ({layer
    index: ChannelStats}), which every one needs.  With a plan each cohort
    (a shuffle's drawn from ``rng``) normalizes by its own moments
    (EVAL_MINIBATCH).  The rows run in ``chunk_rows`` chunks of whole
    cohorts, each a ``Network.evaluate`` pass, a shuffle's gathered chunk
    by chunk.
    """
    x = as_tensor4(x)
    n = x.shape[0]
    if n == 0:
        raise EmptyBatch("cannot measure the error of an empty batch")
    if type(labels) is not np.ndarray:
        labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeMismatch(f"{n} rows of x but labels of shape {labels.shape}")
    cohort, order = None, None
    if plan is not None:
        cohort = plan.sub_batch
        if plan.strategy == "shuffle":
            order = np.concatenate(cohort_indices(plan, n, rng))
            labels = labels[order]
    step = chunk_rows(cohort, x.shape[1] * x.shape[2])
    wrong = 0
    for start in range(0, n, step):
        chunk = (x[start : start + step] if order is None
                 else x[order[start : start + step]])
        logits = net.evaluate(chunk, stats=stats, cohort=cohort)
        wrong += int((logits.argmax(axis=-1)
                      != labels[start : start + step]).sum())
    return wrong / n
