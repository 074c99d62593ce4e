"""The BatchNorm layer with explicit statistics-mode selection.  The
frozen-affine fusion toy, which only the tests use, lives in
``tests/oracles.py``."""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, InvalidParams, ShapeMismatch, StaleCache
from .stats import ema_update
from .tensor import SAMPLE_AXES, ChannelStats, channel_moments, normalize

__all__ = [
    "BnMode",
    "BnLayer",
    "BnCache",
    "batch_stats_forward",
    "batch_stats_backward",
]


class BnMode(enum.Enum):
    TRAIN_MINIBATCH = "train_minibatch"
    EVAL_POPULATION = "eval_population"
    EVAL_MINIBATCH = "eval_minibatch"


@dataclass
class BnCache:
    # in the batch modes: the normalized batch, 1/sqrt(var + eps) and the
    # batch's own moments, for a cohort view (G, n, C, H, W) and (G, C) over
    # the whole cohorts, ``tail`` a ragged last one's cache; in
    # EVAL_POPULATION: the fixed statistics
    x_hat: np.ndarray | None
    inv_std: np.ndarray | None
    moments: ChannelStats | None
    stats: ChannelStats | None = None
    tail: "BnCache | None" = None
    consumed: bool = False


class BnLayer:
    """Normalization layer whose statistics source is chosen per forward.

    TRAIN_MINIBATCH normalizes by the batch's own moments and advances the
    EMA; EVAL_MINIBATCH does the same without touching the EMA (a precise
    re-estimation pass).  EVAL_POPULATION normalizes by fixed statistics:
    the ``stats`` given to the forward, else the EMA.  The layer holds only
    its shape, ``eps``, ``momentum`` and EMA, which each step replaces:
    FrozenBN is EVAL_POPULATION by statistics the caller passes in training
    too (``train(..., stats=)``).

    A normalization cohort is a view that only this layer takes: the batch
    modes view the whole cohorts of an (N, C, H, W) batch as
    (N // cohort, cohort, C, H, W) and a ragged last cohort on its own, so
    each cohort is normalized by its own moments exactly as if it were
    forwarded alone.
    """

    def __init__(self, channels, eps=1e-5, momentum=0.9):
        if eps <= 0:
            raise InvalidParams("eps must be positive")
        if not 0.0 <= momentum <= 1.0:
            raise InvalidParams(f"momentum must be in [0, 1], got {momentum}")
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        # mean 0 / var 1 start, the common library convention
        self.ema = ChannelStats(np.zeros(channels), np.ones(channels), 1)

    param_names = ()

    def forward(self, x, mode: BnMode = BnMode.TRAIN_MINIBATCH,
                stats: ChannelStats | None = None, cohort: int | None = None,
                out: np.ndarray | None = None):
        """Returns (y, cache).  ``stats`` are the fixed statistics of an
        EVAL_POPULATION forward (default: the EMA's), which ignores
        ``cohort``.  ``x`` is an array of float64, as ``Network.forward``
        passes it.  ``out``, an array of x's shape (x itself, say), if
        given receives an EVAL_POPULATION forward's y, with the bits of y
        without it; the batch modes write y into a new array.  Raises
        EmptyBatch on n == 0 before any side effect, so the EMA is left
        bit-identical.  The EMA steps once per cohort, in order."""
        if x.shape[-3] != self.channels:
            raise ShapeMismatch(f"expected {self.channels} channels, got {x.shape[-3]}")
        if mode is BnMode.EVAL_POPULATION:
            stats = self.ema if stats is None else stats
            # a backward derives the inverse std from the stats
            return normalize(x, stats, self.eps, out=out), BnCache(
                x_hat=None, inv_std=None, moments=None, stats=stats)
        if mode not in (BnMode.TRAIN_MINIBATCH, BnMode.EVAL_MINIBATCH):
            raise InvalidParams(f"unknown mode {mode}")
        n = x.shape[-4]
        if n == 0:
            raise EmptyBatch("BN forward on a batch with 0 samples")
        whole, view = n, x
        if cohort is not None and cohort < n:
            # the whole cohorts as a (G, cohort, C, H, W) view of their rows
            whole = n - n % cohort
            view = x[:whole].reshape(whole // cohort, cohort, *x.shape[1:])
        x_hat, moments, inv_std = batch_stats_forward(view, self.eps)
        y = x_hat if view is x else x_hat.reshape(whole, *x.shape[1:])
        if mode is BnMode.TRAIN_MINIBATCH:
            self.ema = ema_update(self.ema, moments, self.momentum)
        cache = BnCache(x_hat=x_hat, inv_std=inv_std, moments=moments)
        if whole < n:  # a ragged last cohort, after the rest
            y_tail, cache.tail = self.forward(x[whole:], mode)
            y = np.concatenate([y, y_tail])  # in x's layout
        return y, cache

    def backward(self, cache: BnCache, dy):
        """(input gradient, None): the layer has no parameters.

        For batch-statistics modes the mean and variance are treated as
        functions of x, per cohort of the forward's view; in
        EVAL_POPULATION they are constants.
        """
        if cache.consumed:
            raise StaleCache("backward already consumed this cache")
        cache.consumed = True
        if cache.moments is None:
            inv_std = 1.0 / np.sqrt(cache.stats.var + self.eps)
            return dy * inv_std[..., None, :, None, None], None
        x_hat = cache.x_hat
        if x_hat.ndim == dy.ndim:
            return batch_stats_backward(x_hat, cache.inv_std, dy), None
        whole = x_hat.shape[0] * x_hat.shape[1]
        dx = batch_stats_backward(x_hat, cache.inv_std, dy[:whole].reshape(
            x_hat.shape)).reshape(whole, *dy.shape[1:])
        if cache.tail is not None:
            dx = np.concatenate([dx, self.backward(cache.tail, dy[whole:])[0]])
        return dx, None


def batch_stats_forward(x, eps):
    """Normalization of ``x`` by its own moments: (x_hat, moments, inv_std)
    with inv_std = 1/sqrt(var + eps), bit-identical to
    ``normalize(x, channel_moments(x), eps)``.  The batch is centred once,
    into the array that becomes x_hat, and inv_std is computed once.

    ``x`` is an (N, C, H, W) batch or a (G, n, C, H, W) cohort stack of
    float64 with n > 0; moments and inv_std are (C,) or (G, C).
    """
    x_hat = np.empty_like(x)
    moments = channel_moments(x, out=x_hat)
    inv_std = 1.0 / np.sqrt(moments.var + eps)
    x_hat *= inv_std[..., None, :, None, None]
    return x_hat, moments, inv_std


def batch_stats_backward(x_hat, inv_std, dy):
    """Input gradient of normalization by the batch's own moments, with the
    mean and variance differentiated as functions of the input.

    ``x_hat`` and ``dy`` are an (N, C, H, W) batch or a (G, n, C, H, W)
    cohort stack; ``inv_std`` is 1/sqrt(var + eps), (C,) or (G, C).  The
    result is (inv_std / m) * (m * dy - sum(dy) - x_hat * sum(dy * x_hat)),
    built in place in that order.
    """
    inv = inv_std[..., None, :, None, None]
    m = dy.shape[-4] * dy.shape[-2] * dy.shape[-1]
    sum_dy = np.add.reduce(dy, axis=SAMPLE_AXES, keepdims=True)
    sum_dy_xhat = np.add.reduce(dy * x_hat, axis=SAMPLE_AXES, keepdims=True)
    dx = m * dy
    dx -= sum_dy
    dx -= x_hat * sum_dy_xhat
    dx *= inv / m
    return dx
