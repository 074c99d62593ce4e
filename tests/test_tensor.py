"""Per-channel moment machinery: moments and normalization."""

import dataclasses

import numpy as np
import pytest

from bnlab.errors import EmptyBatch, InvalidParams, ShapeMismatch
from bnlab.tensor import (
    SAMPLE_AXES,
    ChannelStats,
    as_tensor4,
    channel_moments,
    normalize,
)
from test_layer import _in_layout


def test_channel_moments_match_numpy():
    rng = np.random.default_rng(0)
    # a batch and a cohort stack, each in C order and channels-first
    for x in [_in_layout(a, layout)
              for a in (rng.standard_normal((7, 2, 5, 3)),
                        rng.standard_normal((4, 7, 2, 5, 3)))
              for layout in ("c_order", "channels_first")]:
        s = channel_moments(x)
        np.testing.assert_allclose(s.mean, x.mean(axis=SAMPLE_AXES), atol=1e-14)
        np.testing.assert_allclose(s.var, x.var(axis=SAMPLE_AXES), atol=1e-14)
        assert s.count == 7 * 2 * 5
        assert s.channels == 3
        # the bits of the form with two temporaries, the centred batch and
        # its squares; channel_moments squares its centred batch in place
        mean = np.add.reduce(x, axis=SAMPLE_AXES) / s.count
        centred = x - mean[..., None, None, None, :]
        np.testing.assert_array_equal(s.mean, mean)
        np.testing.assert_array_equal(
            s.var, np.add.reduce(np.square(centred), axis=SAMPLE_AXES) / s.count)


def test_channel_moments_rejects_empty_and_bad_rank():
    with pytest.raises(EmptyBatch):
        channel_moments(np.zeros((0, 1, 1, 3)))
    with pytest.raises(ShapeMismatch):
        channel_moments(np.zeros((3, 3)))


def test_channel_stats_shape_check():
    with pytest.raises(ShapeMismatch, match=r"^mean shape \(3,\) != var shape \(4,\)$"):
        ChannelStats(mean=np.zeros(3), var=np.zeros(4), count=1)


def test_channel_stats_is_frozen_and_holds_float64_arrays():
    stats = ChannelStats([1, 2], np.array([3, 4], dtype=np.float32), 5)
    assert stats.mean.dtype == stats.var.dtype == np.float64
    assert stats.mean.tolist() == [1.0, 2.0] and stats.var.tolist() == [3.0, 4.0]
    assert stats == ChannelStats(mean=stats.mean, var=stats.var, count=5)
    assert repr(stats).startswith("ChannelStats(mean=array([1., 2.]), var=")
    with pytest.raises(dataclasses.FrozenInstanceError):
        stats.count = 6


def test_normalize_standardizes():
    rng = np.random.default_rng(1)
    x = 5.0 + 2.0 * rng.standard_normal((64, 1, 1, 4))
    y = normalize(x, channel_moments(x), eps=0.0)
    s = channel_moments(y)
    np.testing.assert_allclose(s.mean, 0.0, atol=1e-12)
    np.testing.assert_allclose(s.var, 1.0, atol=1e-12)


def test_normalize_validates_eps_and_channels():
    x = np.ones((2, 1, 1, 3))
    stats = ChannelStats(np.zeros(3), np.zeros(3), 2)
    with pytest.raises(InvalidParams):
        normalize(x, stats, eps=0.0)  # zero variance needs positive eps
    with pytest.raises(InvalidParams):
        normalize(x, stats, eps=-1.0)
    with pytest.raises(ShapeMismatch):
        normalize(x, ChannelStats(np.zeros(2), np.ones(2), 2), eps=1e-5)


def test_as_tensor4_casts_to_float64():
    x = as_tensor4(np.ones((1, 1, 1, 1), dtype=np.float32))
    assert x.dtype == np.float64
