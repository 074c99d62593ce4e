"""A small feedforward network (linear + BN + affine + relu, softmax
cross-entropy) with exact manual backpropagation and momentum SGD.

Activations are carried as (N, C, H, W) tensors so the normalization layer
sees the same per-channel layout as the rest of the package.  A forward
pass over G equal-size normalization cohorts carries them as one
(G, n, C, H, W) stack: every layer computes each cohort exactly as a pass
over that cohort alone would (one GEMM per cohort, per-cohort moments and
parameter-gradient sums), so one grouped pass is bit-identical to G
separate ones.
"""

from dataclasses import dataclass

import numpy as np

from .batching import NormBatchPlan, cohort_indices, cohort_runs, even_sizes
from .errors import InvalidParams, ShapeMismatch, StaleCache
from .layer import BnLayer, BnMode
from .tensor import SAMPLE_AXES, as_batch, as_tensor4

__all__ = [
    "Linear",
    "Affine",
    "Relu",
    "MeanPool",
    "Network",
    "SgdConfig",
    "softmax_cross_entropy",
    "train",
    "classification_error",
    "EVAL_CHUNK_ROWS",
]

# rows per forward-only pass: population-mode chunks, and the cap on whole
# mini-batches grouped into one pass
EVAL_CHUNK_ROWS = 256

# axis orders that move channels last (one row per spatial site) and back,
# for an (N, C, H, W) batch and a (G, n, C, H, W) cohort stack
_CHANNELS_LAST = {4: (0, 2, 3, 1), 5: (0, 1, 3, 4, 2)}
_CHANNELS_BACK = {4: (0, 3, 1, 2), 5: (0, 1, 4, 2, 3)}


def to4(x2: np.ndarray) -> np.ndarray:
    return np.asarray(x2, dtype=np.float64)[..., None, None]


def to2(x4: np.ndarray) -> np.ndarray:
    x4 = as_batch(x4)
    if x4.shape[-2:] != (1, 1):
        raise ShapeMismatch("dense layers expect h = w = 1 activations")
    return x4[..., 0, 0]


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
        # applied per spatial site (1x1-convolution semantics); a cohort
        # stack runs one GEMM per cohort, whose rounding depends on its rows
        x = as_batch(x)
        *lead, c, h, w = x.shape
        x2 = x.transpose(_CHANNELS_LAST[x.ndim]).reshape(*lead[:-1], -1, c)
        y2 = x2 @ self.weight.T + self.bias
        y = y2.reshape(*lead, h, w, -1).transpose(_CHANNELS_BACK[x.ndim])
        return y, (x2, x.shape)

    def backward(self, cache, dy):
        """Input gradient and parameter gradients; a cohort stack's
        parameter gradients keep a leading cohort axis."""
        x2, shape = cache
        dy = as_batch(dy)
        dy2 = dy.transpose(_CHANNELS_LAST[dy.ndim]).reshape(*shape[:-4], -1,
                                                            dy.shape[-3])
        # dy2^T @ x2 per cohort, the transpose a view as dy2.T was
        weight = dy2.swapaxes(-1, -2) @ x2
        grads = {"weight": weight, "bias": dy2.sum(axis=-2)}
        dx = (dy2 @ self.weight).reshape(*shape[:-3], *shape[-2:], shape[-3]) \
            .transpose(_CHANNELS_BACK[dy.ndim])
        return dx, grads


class Affine:
    """Trainable channel-wise scale and shift (the layer after each BN)."""

    def __init__(self, gamma, beta):
        self.gamma = np.asarray(gamma, dtype=np.float64)
        self.beta = np.asarray(beta, dtype=np.float64)

    param_names = ("gamma", "beta")

    @classmethod
    def identity(cls, channels):
        return cls(np.ones(channels), np.zeros(channels))

    def forward(self, x):
        x = as_batch(x)
        y = x * self.gamma[None, :, None, None] + self.beta[None, :, None, None]
        return y, x

    def backward(self, cache, dy):
        # a cohort stack's parameter gradients keep a leading cohort axis
        x = cache
        grads = {
            "gamma": (dy * x).sum(axis=SAMPLE_AXES),
            "beta": dy.sum(axis=SAMPLE_AXES),
        }
        return dy * self.gamma[None, :, None, None], grads


class Relu:
    param_names = ()

    def forward(self, x):
        mask = x > 0
        return x * mask, mask

    def backward(self, cache, dy):
        return dy * cache, None


class MeanPool:
    """Global average over the spatial axes, (N, C, H, W) -> (N, C, 1, 1)."""

    param_names = ()

    def forward(self, x):
        x = as_batch(x)
        return x.mean(axis=(-2, -1), keepdims=True), x.shape

    def backward(self, cache, dy):
        h, w = cache[-2:]
        return np.broadcast_to(dy / (h * w), cache).copy(), None


class NetCaches:
    def __init__(self, per_layer):
        self.per_layer = per_layer
        self.consumed = False

    def take(self):
        if self.consumed:
            raise StaleCache("network caches already consumed by backward")
        self.consumed = True
        return self.per_layer


class Network:
    """An ordered stack of Linear / BnLayer / Affine / Relu layers."""

    def __init__(self, layers):
        self.layers = list(layers)

    @property
    def bn_indices(self):
        return [i for i, l in enumerate(self.layers) if isinstance(l, BnLayer)]

    def layer_names(self):
        names = []
        counters = {}
        for layer in self.layers:
            kind = type(layer).__name__.lower().replace("bnlayer", "bn")
            k = counters.get(kind, 0)
            counters[kind] = k + 1
            names.append(f"{kind}{k}")
        return names

    def forward(self, x, *, modes=None, update_stats=False, pop_override=None,
                moment_sinks=None):
        """Run to the logits.  ``modes`` is None (use each BN layer's own
        mode), a BnMode applied to all, or a dict {layer index: BnMode}.
        ``pop_override`` maps layer index -> ChannelStats for population
        normalization without touching layer state; ``moment_sinks`` maps
        layer index -> BatchMomentLog receiving this pass's batch moments,
        one entry per cohort in order.  ``x`` is an (N, C, H, W) batch, giving
        (N, K) logits, or a (G, n, C, H, W) stack of G normalization cohorts,
        run as one pass and giving (G, n, K) logits.
        """
        x = as_batch(x)
        caches = []
        for i, layer in enumerate(self.layers):
            if isinstance(layer, BnLayer):
                mode = modes
                if isinstance(modes, dict):
                    mode = modes.get(i)
                y, cache = layer.forward(
                    x,
                    mode=mode,
                    update_stats=update_stats,
                    pop_override=None if pop_override is None else pop_override.get(i),
                )
                if moment_sinks is not None and i in moment_sinks \
                        and cache.mode is BnMode.TRAIN_MINIBATCH:
                    for stats in cache.moments.cohorts():
                        moment_sinks[i].append(stats)
                x = y
                caches.append(cache)
            else:
                x, cache = layer.forward(x)
                caches.append(cache)
        return to2(x), NetCaches(caches)

    def backward(self, caches, dlogits, *, stop_rows=None):
        """Exact gradients of the scalar loss the caller differentiated into
        ``dlogits``, which has the leading shape of the forward's logits.
        Rows selected by ``stop_rows`` (virtual extra samples; row indices
        or a boolean mask over the rows of each cohort) have their gradient
        zeroed after every BN backward, so they contribute no gradient
        anywhere upstream.  For a cohort stack the parameter gradients come
        per cohort, stacked on a leading cohort axis.
        """
        per_layer = caches.take()
        dy = to4(dlogits)
        grads = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            if isinstance(layer, BnLayer):
                dy = layer.backward(per_layer[i], dy)
                if stop_rows is not None:
                    dy[..., stop_rows, :, :, :] = 0.0
            else:
                dy, grads[i] = layer.backward(per_layer[i], dy)
        return dy, grads


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the batch; returns (loss, dloss/dlogits).

    Stacked (G, n, K) logits with (G, n) labels give each cohort's mean
    loss, shape (G,), and a gradient divided by the cohort size n.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n = logits.shape[-2]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    onehot = labels[..., None] == np.arange(logits.shape[-1])
    # add.reduce and / n give mean's result without its wrapper calls
    loss = -np.add.reduce(logp[onehot].reshape(labels.shape), axis=-1) / n
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
        if self.lr <= 0 and self.lr != 0.0:
            raise InvalidParams("learning rate must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidParams("momentum must be in [0, 1)")

    def lr_at(self, step):
        if self.warmup_steps > 0 and step < self.warmup_steps:
            return self.lr * (step + 1) / self.warmup_steps
        return self.lr


def _accumulate(total, grads):
    """Add per-cohort gradients (leading cohort axis) to the running totals
    one cohort at a time, in cohort order."""
    for i, g in enumerate(grads):
        if not g:
            continue
        if total[i] is None:
            total[i] = {k: v.sum(axis=0) for k, v in g.items()}
        else:
            total[i] = {k: np.concatenate([total[i][k][None], v]).sum(axis=0)
                        for k, v in g.items()}


def sgd_step(net, x, labels, cfg, step, plan, rng, velocity):
    """One SGD update over a logical batch carved per the normalization plan.

    Each run of consecutive equal-size cohorts is one grouped forward and
    backward pass, bit-identical to passing its cohorts one by one.
    Returns the mean training loss of the step.  The loss is averaged over
    the logical batch, so the gradient scale is cohort-invariant.
    """
    n = x.shape[0]
    cohorts = (
        cohort_indices(plan, n, rng) if plan is not None else [np.arange(n)]
    )
    virtual = plan is not None and plan.strategy == "virtual"
    # frozen layers stay frozen during fine-tuning; the rest train on batch stats
    modes = {
        i: (BnMode.FROZEN if net.layers[i].frozen is not None
            else BnMode.TRAIN_MINIBATCH)
        for i in net.bn_indices
    }
    totals = [None] * len(net.layers)
    loss_sum = 0.0
    for first, groups, size in cohort_runs(map(len, cohorts)):
        idx = np.stack(cohorts[first : first + groups])
        xb = x[idx]
        if virtual:
            # one draw per cohort, in cohort order, as the rng stream expects
            extra = np.stack([as_tensor4(plan.extra_source(rng))
                              for _ in range(groups)])
            xb = np.concatenate([xb, extra], axis=1)
        logits, caches = net.forward(xb, modes=modes, update_stats=True)
        loss_c, dreal = softmax_cross_entropy(logits[:, :size], labels[idx])
        # builtin sum adds the cohort losses one at a time, in order
        loss_sum = sum(loss_c * size, loss_sum)
        dlogits = np.zeros_like(logits)
        dlogits[:, :size] = dreal * (size / n)
        stop_rows = np.arange(xb.shape[1]) >= size if virtual else None
        _, grads = net.backward(caches, dlogits, stop_rows=stop_rows)
        _accumulate(totals, grads)
    lr = cfg.lr_at(step)
    for i, g in enumerate(totals):
        if not g:
            continue
        layer = net.layers[i]
        for k, gv in g.items():
            key = (i, k)
            v = velocity.get(key)
            v = gv if v is None else cfg.momentum * v + gv
            velocity[key] = v
            setattr(layer, k, getattr(layer, k) - lr * v)
    return loss_sum / n


def train(net, batch_fn, cfg: SgdConfig, plan: NormBatchPlan | None = None,
          callback=None):
    """Run momentum SGD.  ``batch_fn(rng, batch_size)`` yields each logical
    batch; ``callback(step, net)`` (if given) is invoked after every step.
    Returns the trained network (mutated in place)."""
    rng = np.random.default_rng(cfg.seed)
    velocity = {}
    for step in range(cfg.steps):
        x, labels = batch_fn(rng, cfg.batch_size)
        sgd_step(net, x, labels, cfg, step, plan, rng, velocity)
        if callback is not None:
            callback(step, net)
    return net


def classification_error(net, x, labels, *, mode=BnMode.EVAL_POPULATION,
                         cohort_sizes=None, pop_override=None,
                         batch=EVAL_CHUNK_ROWS):
    """Top-1 error of the network on (x, labels).

    Population / frozen modes chunk the data for memory only (per-sample
    semantics).  Mini-batch modes normalize each cohort independently;
    ``cohort_sizes`` partitions the data in order (default: one cohort per
    ``batch`` chunk).  Runs of equal-size cohorts go through the network
    as grouped passes of at most ``batch`` rows (or one cohort).
    """
    x = as_tensor4(x)
    n = x.shape[0]
    sizes = even_sizes(n, batch)
    if mode not in (BnMode.EVAL_POPULATION, BnMode.FROZEN) \
            and cohort_sizes is not None:
        sizes = list(cohort_sizes)
        if sum(sizes) != n:
            raise InvalidParams("cohort sizes must partition the data")
    offsets = np.cumsum([0, *sizes])
    wrong = 0
    for first, groups, size in cohort_runs(sizes, max_rows=batch):
        start = offsets[first]
        stop = start + groups * size
        logits, _ = net.forward(
            x[start:stop].reshape(groups, size, *x.shape[1:]), modes=mode,
            update_stats=False, pop_override=pop_override,
        )
        wrong += int((logits.argmax(axis=-1).ravel() != labels[start:stop]).sum())
    return wrong / n
