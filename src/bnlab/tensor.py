"""Dense (N, H, W, C) float64 tensors and per-channel moment machinery.

A "tensor" here is just a numpy array of shape (N, H, W, C) in float64,
channels last, as a GEMM over its (N * H * W, C) rows writes it.  A stack
of G equal-size cohorts is a (G, n, H, W, C) view of the same rows; the
moment and normalization functions reduce over its (n, H, W) axes, so
every cohort gets its own statistics in one call, and a per-channel
vector broadcasts against the last axis.  All reductions use a fixed
(n, h, w) order so repeated calls are bit-identical, and a cohort's row of
a stacked result is bit-identical to the result on that cohort alone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, InvalidParams, ShapeMismatch

__all__ = [
    "ChannelStats",
    "SAMPLE_AXES",
    "as_tensor4",
    "as_batch",
    "channel_moments",
    "normalize",
]


# the (n, H, W) axes of an (N, H, W, C) batch or a (G, n, H, W, C) stack
SAMPLE_AXES = (-4, -3, -2)


@dataclass(frozen=True, init=False)
class ChannelStats:
    """Per-channel mean and biased variance, tagged with the element count.

    ``count`` is the number of elements reduced per channel (N * H * W).
    Moments of a cohort stack are (G, C), one row per cohort, and ``count``
    is per cohort.
    """

    mean: np.ndarray
    var: np.ndarray
    count: int

    def __init__(self, mean, var, count):
        # an explicit __init__ builds the object in one Python frame (a
        # generated one and __post_init__ take two); the BN forward and
        # the estimators pass float64 arrays already
        if type(mean) is not np.ndarray or mean.dtype != np.float64:
            mean = np.asarray(mean, dtype=np.float64)
        if type(var) is not np.ndarray or var.dtype != np.float64:
            var = np.asarray(var, dtype=np.float64)
        if mean.shape != var.shape:
            raise ShapeMismatch(f"mean shape {mean.shape} != var shape {var.shape}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "count", count)

    @property
    def channels(self) -> int:
        return self.mean.shape[-1]


def as_tensor4(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeMismatch(f"expected a 4-d (N, H, W, C) array, got ndim={x.ndim}")
    return x


def as_batch(x) -> np.ndarray:
    """An (N, H, W, C) batch or a (G, n, H, W, C) stack of G cohorts."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (4, 5):
        raise ShapeMismatch(
            f"expected (N, H, W, C) or (G, n, H, W, C), got ndim={x.ndim}"
        )
    return x


def channel_moments(x: np.ndarray, out: np.ndarray | None = None) -> ChannelStats:
    """Mean and biased variance over the (N, H, W) axes of each channel;
    (G, C) moments, one row per cohort, for a (G, n, H, W, C) stack.

    ``out``, an array of x's shape and layout (``np.empty_like(x)``), if
    given receives the centred batch x - mean that the variance is taken of;
    without it the centred temporary is squared in place.
    """
    if not (type(x) is np.ndarray and x.dtype == np.float64 and x.ndim in (4, 5)):
        x = as_batch(x)
    n, h, w = x.shape[-4:-1]
    if n == 0:
        raise EmptyBatch("cannot compute channel moments of a batch with 0 samples")
    count = n * h * w
    # add.reduce and / count give mean's result without its wrapper calls
    mean = np.add.reduce(x, axis=SAMPLE_AXES) / count
    centred = np.subtract(x, mean[..., None, None, None, :], out=out)
    squares = np.square(centred, out=centred if out is None else None)
    var = np.add.reduce(squares, axis=SAMPLE_AXES) / count
    return ChannelStats(mean=mean, var=var, count=count)


def normalize(x: np.ndarray, stats: ChannelStats, eps: float,
              out: np.ndarray | None = None) -> np.ndarray:
    """(x - mean) / sqrt(var + eps), broadcast per channel (and per cohort
    when both are stacked).

    ``out``, an array of x's shape (x itself, say), if given receives the
    result, with the bits of the result without it.
    """
    if not (type(x) is np.ndarray and x.dtype == np.float64 and x.ndim in (4, 5)):
        x = as_batch(x)
    mean = stats.mean
    if mean.shape[-1] != x.shape[-1]:
        raise ShapeMismatch(
            f"stats have {mean.shape[-1]} channels, tensor has {x.shape[-1]}"
        )
    if mean.ndim == 2 and (x.ndim != 5 or mean.shape[0] != x.shape[0]):
        raise ShapeMismatch(
            f"stats for {mean.shape[0]} cohorts, tensor shape {x.shape}"
        )
    if eps <= 0:
        # eps == 0 is allowed only when every channel variance is positive
        if eps < 0 or np.any(stats.var <= 0):
            raise InvalidParams("eps must be positive")
    inv = 1.0 / np.sqrt(stats.var + eps)
    y = np.subtract(x, mean[..., None, None, None, :], out=out)
    y *= inv[..., None, None, None, :]
    return y

