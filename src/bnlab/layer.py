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
    # in the batch modes: batch_stats_forward's x_hat, inv_std and moments
    # of the whole cohorts, ``tail`` a ragged last one's cache; in
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

    The batch modes pass the whole cohorts of an (N, H, W, C) batch to
    ``batch_stats_forward``, the one place a cohort is viewed, and a
    ragged last cohort on its own, so each cohort is normalized by its own
    moments exactly as if it were forwarded alone.
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
        bit-identical, and InvalidParams on a ``cohort`` below 1.  The EMA
        steps once per cohort, in order."""
        if x.shape[-1] != self.channels:
            raise ShapeMismatch(f"expected {self.channels} channels, got {x.shape[-1]}")
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
        whole = n
        if cohort is not None and cohort < n:
            if cohort < 1:
                raise InvalidParams(f"cohort must be at least 1, got {cohort}")
            whole = n - n % cohort
        # x itself when there is no tail: a stack's first axis is not rows
        y, x_hat, moments, inv_std = batch_stats_forward(
            x if whole == n else x[:whole], self.eps, cohort)
        if mode is BnMode.TRAIN_MINIBATCH:
            self.ema = ema_update(self.ema, moments, self.momentum)
        cache = BnCache(x_hat=x_hat, inv_std=inv_std, moments=moments)
        if whole < n:  # a ragged last cohort, after the rest
            y_tail, cache.tail = self.forward(x[whole:], mode)
            y = np.concatenate([y, y_tail])
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
            return dy * inv_std, None
        if cache.tail is None:
            return batch_stats_backward(cache.x_hat, cache.inv_std, dy), None
        # the whole cohorts, then the ragged last one by its own row count
        whole = dy.shape[0] - cache.tail.x_hat.shape[0]
        dx = batch_stats_backward(cache.x_hat, cache.inv_std, dy[:whole])
        return np.concatenate([dx, self.backward(cache.tail, dy[whole:])[0]]), None


def batch_stats_forward(x, eps, cohort=None):
    """Normalization of ``x`` by the moments of each ``cohort`` rows, the
    one place a cohort is viewed: (y, x_hat, moments, inv_std), y of x's
    shape, inv_std = 1/sqrt(var + eps).  A cohort of None, or of N rows or
    more, is the plain batch: x_hat is y, and moments and inv_std are (C,).
    Else x_hat is y's (N // cohort, cohort, H, W, C) view and they are
    (N // cohort, C), each cohort with the bits of
    ``normalize(x, channel_moments(x), eps)`` on its rows alone.  ``x``, of
    float64 and N > 0, is centred once, into x_hat."""
    view = (x if cohort is None or cohort >= x.shape[0]
            else x.reshape(-1, cohort, *x.shape[1:]))
    x_hat = np.empty_like(view)
    moments = channel_moments(view, out=x_hat)
    inv_std = 1.0 / np.sqrt(moments.var + eps)
    x_hat *= inv_std[..., None, None, None, :]
    return (x_hat if view is x else x_hat.reshape(x.shape)), x_hat, moments, inv_std


def batch_stats_backward(x_hat, inv_std, dy):
    """Input gradient, of dy's shape, of ``batch_stats_forward``'s
    normalization, with the mean and variance differentiated as functions
    of the input: (inv_std / m) * (m * dy - sum(dy) - x_hat * sum(dy * x_hat))
    per cohort of x_hat's view, built in place in that order."""
    dys = dy if x_hat.ndim == dy.ndim else dy.reshape(x_hat.shape)
    inv = inv_std[..., None, None, None, :]
    m = dys.shape[-4] * dys.shape[-3] * dys.shape[-2]
    sum_dy = np.add.reduce(dys, axis=SAMPLE_AXES, keepdims=True)
    sum_dy_xhat = np.add.reduce(dys * x_hat, axis=SAMPLE_AXES, keepdims=True)
    dx = m * dys
    dx -= sum_dy
    dx -= x_hat * sum_dy_xhat
    dx *= inv / m
    return dx if dys is dy else dx.reshape(dy.shape)
