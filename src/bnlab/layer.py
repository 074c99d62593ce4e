"""The BatchNorm layer with explicit statistics-mode selection, plus the
frozen-affine fusion toy."""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, InvalidParams, MissingStats, ShapeMismatch, StaleCache
from .stats import EmaState, ema_update
from .tensor import SAMPLE_AXES, ChannelStats, as_batch, channel_moments, normalize

__all__ = [
    "BnMode",
    "BnLayer",
    "BnCache",
    "batch_stats_backward",
    "fusion_finetune_demo",
]


class BnMode(enum.Enum):
    TRAIN_MINIBATCH = "train_minibatch"
    EVAL_POPULATION = "eval_population"
    EVAL_MINIBATCH = "eval_minibatch"
    FROZEN = "frozen"


@dataclass
class BnCache:
    mode: BnMode
    x_hat: np.ndarray
    inv_std: np.ndarray
    moments: ChannelStats | None  # the batch's own moments, in batch modes
    consumed: bool = False

    def take(self):
        if self.consumed:
            raise StaleCache("backward already consumed this cache")
        self.consumed = True
        return self


class BnLayer:
    """Normalization layer whose statistics source is chosen per forward.

    The EMA is only mutated in TRAIN_MINIBATCH mode (and only when
    ``update_stats`` is left on).  EVAL_POPULATION normalizes with explicit
    population stats when they were set (e.g. by a precise re-estimation
    pass), falling back to the EMA.  FROZEN requires a stats snapshot.

    Input is an (N, C, H, W) batch or a (G, n, C, H, W) stack of G cohorts;
    in the batch-statistics modes each cohort is normalized by its own
    moments, exactly as if it were forwarded alone.
    """

    def __init__(self, channels, eps=1e-5, momentum=0.9):
        if eps <= 0:
            raise InvalidParams("eps must be positive")
        self.channels = channels
        self.eps = eps
        self.ema = EmaState.initial(channels, momentum)
        self.pop = None
        self.frozen = None
        self.mode = BnMode.TRAIN_MINIBATCH

    param_names = ()

    def eval_stats(self) -> ChannelStats:
        if self.pop is not None:
            return self.pop
        return self.ema.as_channel_stats()

    def freeze(self, stats: ChannelStats | None = None) -> None:
        """Snapshot stats (default: current eval stats) and switch to FROZEN."""
        self.frozen = stats if stats is not None else self.eval_stats()
        self.mode = BnMode.FROZEN

    def _stats_for(self, x, mode: BnMode) -> ChannelStats:
        if mode in (BnMode.TRAIN_MINIBATCH, BnMode.EVAL_MINIBATCH):
            return channel_moments(x)
        if mode is BnMode.EVAL_POPULATION:
            return self.eval_stats()
        if mode is BnMode.FROZEN:
            if self.frozen is None:
                raise MissingStats("FROZEN mode requires a frozen stats snapshot")
            return self.frozen
        raise InvalidParams(f"unknown mode {mode}")

    def forward(self, x, mode: BnMode | None = None, update_stats=True,
                pop_override: ChannelStats | None = None):
        """Returns (y, cache).  Raises EmptyBatch on n == 0 before any
        side effect, so the EMA is left bit-identical.  A cohort stack
        advances the EMA by one step per cohort, in order."""
        x = as_batch(x)
        mode = self.mode if mode is None else mode
        if x.shape[-3] != self.channels:
            raise ShapeMismatch(f"expected {self.channels} channels, got {x.shape[-3]}")
        batch_stats = mode in (BnMode.TRAIN_MINIBATCH, BnMode.EVAL_MINIBATCH)
        if x.shape[-4] == 0 and batch_stats:
            raise EmptyBatch("BN forward on a batch with 0 samples")
        if pop_override is not None and mode is BnMode.EVAL_POPULATION:
            stats = pop_override
        else:
            stats = self._stats_for(x, mode)
        if mode is BnMode.TRAIN_MINIBATCH and update_stats:
            self.ema = ema_update(self.ema, stats)
        inv_std = 1.0 / np.sqrt(stats.var + self.eps)
        y = normalize(x, stats, self.eps)
        cache = BnCache(
            mode=mode,
            x_hat=y,
            inv_std=inv_std,
            moments=stats if batch_stats else None,
        )
        return y, cache

    def backward(self, cache: BnCache, dy):
        """(input gradient, None): the layer has no parameters.

        For batch-statistics modes the mean and variance are treated as
        functions of x; for population/frozen modes they are constants.
        """
        cache = cache.take()
        dy = as_batch(dy)
        if cache.moments is None:
            return dy * cache.inv_std[..., None, :, None, None], None
        return batch_stats_backward(cache.x_hat, cache.inv_std, dy), None


def batch_stats_backward(x_hat, inv_std, dy):
    """Input gradient of normalization by the batch's own moments, with the
    mean and variance differentiated as functions of the input.

    ``x_hat`` and ``dy`` are an (N, C, H, W) batch or a (G, n, C, H, W)
    cohort stack; ``inv_std`` is 1/sqrt(var + eps), (C,) or (G, C).
    """
    inv = inv_std[..., None, :, None, None]
    m = dy.shape[-4] * dy.shape[-2] * dy.shape[-1]
    sum_dy = dy.sum(axis=SAMPLE_AXES, keepdims=True)
    sum_dy_xhat = (dy * x_hat).sum(axis=SAMPLE_AXES, keepdims=True)
    return (inv / m) * (m * dy - sum_dy - x_hat * sum_dy_xhat)


def fusion_finetune_demo(lambda_: float, x0: float, step: float, iters: int):
    """Gradient descent on J = (lambda * x)^2, unfused vs fused.

    The unfused run keeps lambda as a frozen constant and descends on x.
    The fused run absorbs lambda into the optimized variable, so the task
    becomes minimizing J = x^2 from the same starting value.  Returns the
    two trajectories (including the start point).
    """
    if x0 == 0:
        raise InvalidParams("x0 must be nonzero")
    if iters < 0:
        raise InvalidParams("iters must be >= 0")
    unfused = [x0]
    x = x0
    for _ in range(iters):
        x = x - step * 2.0 * lambda_**2 * x
        unfused.append(x)
    fused = [x0]
    z = x0
    for _ in range(iters):
        z = z - step * 2.0 * z
        fused.append(z)
    return unfused, fused
