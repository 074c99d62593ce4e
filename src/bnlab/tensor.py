"""Dense (N, C, H, W) float64 tensors and per-channel moment machinery.

A "tensor" here is just a contiguous numpy array of shape (N, C, H, W) in
float64.  A stack of G equal-size cohorts is a (G, n, C, H, W) view of the
same rows; the moment and normalization functions reduce over its (n, H, W)
axes, so every cohort gets its own statistics in one call.  All reductions
use a fixed (n, h, w) order so repeated calls are bit-identical, and a
cohort's row of a stacked result is bit-identical to the result on that
cohort alone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, ShapeMismatch, SizeMismatch

__all__ = [
    "ChannelStats",
    "SAMPLE_AXES",
    "as_tensor4",
    "as_batch",
    "channel_moments",
    "normalize",
    "pooled_moments",
    "affine",
    "concat_batch",
    "split_batch",
    "flatten_spatial_concat",
    "SpatialConcat",
]


# the (n, H, W) axes of an (N, C, H, W) batch or a (G, n, C, H, W) stack
SAMPLE_AXES = (-4, -2, -1)


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel mean and biased variance, tagged with the element count.

    ``count`` is the number of elements reduced per channel (N * H * W).
    Moments of a cohort stack are (G, C), one row per cohort, and ``count``
    is per cohort.
    """

    mean: np.ndarray
    var: np.ndarray
    count: int

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "var", np.asarray(self.var, dtype=np.float64))
        if self.mean.shape != self.var.shape:
            raise ShapeMismatch(
                f"mean shape {self.mean.shape} != var shape {self.var.shape}"
            )

    @property
    def channels(self) -> int:
        return self.mean.shape[-1]

    def cohorts(self) -> list:
        """One (C,) ChannelStats per cohort, in order."""
        if self.mean.ndim == 1:
            return [self]
        return [ChannelStats(mean=m, var=v, count=self.count)
                for m, v in zip(self.mean, self.var)]


def as_tensor4(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeMismatch(f"expected a 4-d (N, C, H, W) array, got ndim={x.ndim}")
    return x


def as_batch(x) -> np.ndarray:
    """An (N, C, H, W) batch or a (G, n, C, H, W) stack of G cohorts."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (4, 5):
        raise ShapeMismatch(
            f"expected (N, C, H, W) or (G, n, C, H, W), got ndim={x.ndim}"
        )
    return x


def channel_moments(x: np.ndarray) -> ChannelStats:
    """Mean and biased variance over the (N, H, W) axes of each channel;
    (G, C) moments, one row per cohort, for a (G, n, C, H, W) stack."""
    x = as_batch(x)
    n, c, h, w = x.shape[-4:]
    if n == 0:
        raise EmptyBatch("cannot compute channel moments of a batch with 0 samples")
    count = n * h * w
    mean = x.mean(axis=SAMPLE_AXES)
    var = np.square(x - mean[..., None, :, None, None]).mean(axis=SAMPLE_AXES)
    return ChannelStats(mean=mean, var=var, count=count)


def _check_channels(x: np.ndarray, stats: ChannelStats) -> None:
    if stats.channels != x.shape[-3]:
        raise ShapeMismatch(
            f"stats have {stats.channels} channels, tensor has {x.shape[-3]}"
        )
    if stats.mean.ndim == 2 and (x.ndim != 5 or stats.mean.shape[0] != x.shape[0]):
        raise ShapeMismatch(
            f"stats for {stats.mean.shape[0]} cohorts, tensor shape {x.shape}"
        )


def normalize(x: np.ndarray, stats: ChannelStats, eps: float) -> np.ndarray:
    """(x - mean) / sqrt(var + eps), broadcast per channel (and per cohort
    when both are stacked)."""
    x = as_batch(x)
    _check_channels(x, stats)
    if eps <= 0:
        # eps == 0 is allowed only when every channel variance is positive
        if eps < 0 or np.any(stats.var <= 0):
            raise ValueError("eps must be positive")
    inv = 1.0 / np.sqrt(stats.var + eps)
    return (x - stats.mean[..., None, :, None, None]) * inv[..., None, :, None, None]


def affine(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Channel-wise y = gamma * x + beta."""
    x = as_tensor4(x)
    gamma = np.asarray(gamma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ShapeMismatch(
            f"gamma/beta must have shape ({x.shape[1]},), got {gamma.shape}/{beta.shape}"
        )
    return x * gamma[None, :, None, None] + beta[None, :, None, None]


def concat_batch(parts: list) -> np.ndarray:
    """Concatenate tensors along the batch dimension."""
    if not parts:
        raise EmptyBatch("concat_batch of zero parts")
    parts = [as_tensor4(p) for p in parts]
    chw = parts[0].shape[1:]
    for p in parts:
        if p.shape[1:] != chw:
            raise ShapeMismatch(f"parts disagree on (C, H, W): {p.shape[1:]} vs {chw}")
    return np.concatenate(parts, axis=0)


def split_batch(x: np.ndarray, sizes: list) -> list:
    """Inverse of concat_batch for the given part sizes."""
    x = as_tensor4(x)
    if sum(sizes) != x.shape[0]:
        raise SizeMismatch(f"sizes {sizes} do not sum to batch size {x.shape[0]}")
    out = []
    start = 0
    for s in sizes:
        out.append(x[start : start + s])
        start += s
    return out


@dataclass(frozen=True)
class SpatialConcat:
    """Result of flattening several (n, c, h_i, w_i) tensors into one batch.

    ``combined`` has shape (n, c, sum(h_i * w_i), 1), so its channel moments
    are the element-weighted moments of the union of all parts.  ``split``
    restores each part's original shape.
    """

    combined: np.ndarray
    shapes: tuple

    def split(self, y: np.ndarray) -> list:
        y = as_tensor4(y)
        if y.shape != self.combined.shape:
            raise ShapeMismatch(
                f"expected shape {self.combined.shape}, got {y.shape}"
            )
        parts = []
        start = 0
        for n, c, h, w in self.shapes:
            size = h * w
            parts.append(y[:, :, start : start + size, 0].reshape(n, c, h, w))
            start += size
        return parts


def flatten_spatial_concat(parts: list) -> SpatialConcat:
    """Combine tensors with equal (n, c) but arbitrary spatial size.

    Each part is flattened to (n, c, h*w, 1) and the pieces are concatenated
    along the flattened-spatial axis, so one set of channel moments covers
    every element of every part.
    """
    if not parts:
        raise EmptyBatch("flatten_spatial_concat of zero parts")
    parts = [as_tensor4(p) for p in parts]
    nc = parts[0].shape[:2]
    for p in parts:
        if p.shape[:2] != nc:
            raise ShapeMismatch(f"parts disagree on (N, C): {p.shape[:2]} vs {nc}")
    flat = [p.reshape(p.shape[0], p.shape[1], -1, 1) for p in parts]
    combined = np.concatenate(flat, axis=2)
    return SpatialConcat(combined=combined, shapes=tuple(p.shape for p in parts))


def pooled_moments(stats: list) -> ChannelStats:
    """Count-weighted pooling of per-part moments via E[x] and E[x^2]."""
    if not stats:
        raise EmptyBatch("pooled_moments of zero parts")
    c = stats[0].channels
    for s in stats:
        if s.channels != c:
            raise ShapeMismatch("pooled parts disagree on channel count")
    total = sum(s.count for s in stats)
    mean = sum(s.count * s.mean for s in stats) / total
    second = sum(s.count * (s.var + s.mean**2) for s in stats) / total
    return ChannelStats(mean=mean, var=second - mean**2, count=total)
