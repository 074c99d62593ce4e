"""Synthetic data generators and the grouped batch sampler."""

import numpy as np
import pytest

from bnlab import synthetic
from bnlab.errors import InvalidParams
from bnlab.synthetic import (
    DRAW_BLOCK_ROWS,
    ClusteredData,
    Corruption,
    GaussianClasses,
    GroupedBatchSampler,
    MixingCorruption,
    MultiScaleDomains,
    SpatialGaussianClasses,
    make_clustered_data,
)


def test_gaussian_classes_mean_layout():
    task = GaussianClasses(classes=5, dim=8, separation=3.0, seed=0)
    norms = np.linalg.norm(task.means, axis=1)
    np.testing.assert_allclose(norms, 3.0, atol=1e-12)
    x, y = task.sample(np.random.default_rng(1), 20)
    assert x.shape == (20, 1, 1, 8)
    assert y.shape == (20,) and y.min() >= 0 and y.max() < 5
    # the mean layout is tied to the task seed, not the sampling rng
    assert np.array_equal(task.means, GaussianClasses(5, 8, 3.0, seed=0).means)


def test_spatial_gaussian_classes_shape_and_nuisance():
    task = SpatialGaussianClasses(classes=4, channels=6, sites=3,
                                  separation=2.0, noise=0.1, seed=1)
    flat_norms = np.linalg.norm(task.means.reshape(4, -1), axis=1)
    np.testing.assert_allclose(flat_norms, 2.0, atol=1e-12)
    x, y = task.sample(np.random.default_rng(2), 10)
    assert x.shape == (10, 3, 1, 6)
    # gain/offset widen the per-sample spread without changing shapes
    noisy = SpatialGaussianClasses(4, 6, 3, 2.0, 0.1, gain=1.0, offset=2.0,
                                   seed=1)
    xn, _ = noisy.sample(np.random.default_rng(2), 200)
    assert xn.std() > x.std()


def _old_gaussian_sample(task, rng, n):
    """``GaussianClasses.sample`` as it was before it drew in place."""
    labels = rng.integers(0, task.classes, size=n)
    x = task.means[labels] + task.noise * rng.standard_normal((n, task.dim))
    return x[:, None, None], labels


def _old_spatial_sample(task, rng, n):
    """``SpatialGaussianClasses.sample`` as it was before it drew in place."""
    labels = rng.integers(0, task.classes, size=n)
    x = task.means[labels] + task.noise * rng.standard_normal(
        (n, task.channels, task.sites))
    if task.gain > 0:
        x = x * np.exp(task.gain * rng.standard_normal(n))[:, None, None]
    if task.offset > 0:
        x = x + (task.offset * rng.standard_normal(n))[:, None, None]
    return x.transpose(0, 2, 1)[:, :, None], labels


@pytest.mark.parametrize("n", [1, DRAW_BLOCK_ROWS, 2 * DRAW_BLOCK_ROWS + 3])
@pytest.mark.parametrize("gain, offset", [(0.0, 0.0), (1.2, 0.0), (0.0, 3.0),
                                          (1.2, 3.0)])
def test_in_place_draws_have_the_bits_of_the_old_expressions(n, gain, offset):
    tasks = [(GaussianClasses(noise=0.7, seed=4), _old_gaussian_sample),
             (SpatialGaussianClasses(noise=0.5, gain=gain, offset=offset, seed=5),
              _old_spatial_sample)]
    for task, old in tasks:
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        (x, labels), (want_x, want_labels) = task.sample(rng, n), old(task, ref_rng, n)
        assert x.shape == want_x.shape and x.tobytes() == want_x.tobytes()
        np.testing.assert_array_equal(labels, want_labels)
        # the stream is left where the old draw left it
        assert rng.random() == ref_rng.random()


def test_corruption_is_affine():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 1, 1, 4))
    y = Corruption(scale=2.0, shift=-1.0).apply(x, rng)
    np.testing.assert_allclose(y, 2.0 * x - 1.0, atol=1e-12)


def test_mixing_corruption_rotation_is_orthogonal_and_deterministic():
    rng = np.random.default_rng(4)
    corr = MixingCorruption.random_rotation(6, np.random.default_rng(5))
    np.testing.assert_allclose(corr.matrix @ corr.matrix.T, np.eye(6),
                               atol=1e-12)
    again = MixingCorruption.random_rotation(6, np.random.default_rng(5))
    np.testing.assert_array_equal(corr.matrix, again.matrix)
    x = rng.standard_normal((5, 1, 1, 6))
    y = corr.apply(x, rng)
    assert y.shape == x.shape
    # a rotation preserves per-sample norms
    np.testing.assert_allclose(np.linalg.norm(y[:, 0, 0], axis=1),
                               np.linalg.norm(x[:, 0, 0], axis=1),
                               atol=1e-12)


def test_multi_scale_domains_dispatch():
    base = GaussianClasses(4, 6, 3.0, 0.5, seed=6)
    domains = MultiScaleDomains(base, [Corruption(), Corruption(scale=10.0)])
    assert domains.n_domains == 2
    rng = np.random.default_rng(7)
    x0, _ = domains.sample_domain(rng, 0, 100)
    x1, _ = domains.sample_domain(rng, 1, 100)
    assert x1.std() > 5 * x0.std()


class _KeepsChildren(np.random.Generator):
    """A generator whose ``spawn`` keeps the children it hands out."""

    def spawn(self, n_children):
        self.children = super().spawn(n_children)
        return self.children


def test_batches_do_not_depend_on_the_slab_size(monkeypatch):
    # a noisy channel-wise and a noisy mixing domain each draw their noise
    # from their own child; 107 steps end in a partial slab at 7 and at 50
    base = GaussianClasses(5, 6, 3.0, 0.7, seed=11)
    domains = MultiScaleDomains(base, [
        Corruption(scale=2.0, shift=-1.0, noise=0.3),
        MixingCorruption.random_rotation(6, np.random.default_rng(12),
                                         scale=0.5, shift=1.0, noise=0.2),
        Corruption(scale=0.5),
    ])
    steps, n = 107, 4
    streams, ends = [], []
    for slab in (7, 50):
        monkeypatch.setattr(synthetic, "SLAB_STEPS", slab)
        rng = _KeepsChildren(np.random.PCG64(13))
        streams.append(list(domains.batches(rng, steps, n)))
        ends.append([child.bit_generator.state for child in rng.children])
    assert len(streams[0]) == steps and ends[0] == ends[1]
    # two fresh generators of one seed give one stream
    streams.append(list(domains.batches(np.random.default_rng(13), steps, n)))
    # each step is sample_domain's arithmetic on one draw per purpose from
    # the children: labels, features, then each noisy domain's noise
    label_rng, x_rng, *noise_rngs = np.random.default_rng(13).spawn(5)
    for step, batches in enumerate(zip(*streams, strict=True)):
        (x, y), *others = batches
        assert x.shape == (3 * n, 1, 1, 6) and y.shape == (3 * n,)
        for xo, yo in others:
            assert np.array_equal(x, xo) and np.array_equal(y, yo), step
        labels = label_rng.integers(0, 5, size=(3, n))
        z = x_rng.standard_normal((3, n, 6))
        assert np.array_equal(y, labels.reshape(-1))
        for d, t in enumerate(domains.transforms):
            noise = noise_rngs[d].standard_normal((n, 6)) if t.noise > 0 else None
            want = t.transform(base.means[labels[d]] + base.noise * z[d], noise)
            assert np.array_equal(x[d * n : (d + 1) * n, 0, 0], want), step


def test_make_clustered_data_shares_latent_within_cluster():
    task = GaussianClasses(4, 8, separation=1.0, noise=0.01, seed=8)
    rng = np.random.default_rng(9)
    data = make_clustered_data(task, rng, n_clusters=50, cluster_size=2,
                               latent_scale=20.0)
    assert isinstance(data, ClusteredData)
    assert data.x.shape == (100, 1, 1, 8)
    assert data.clusters.shape == (50, 2)
    a = data.x[data.clusters[:, 0], 0, 0]
    b = data.x[data.clusters[:, 1], 0, 0]
    # the dominant latent cancels in the within-cluster difference
    assert np.abs(a - b).max() < np.abs(a).mean()


def test_grouped_batch_sampler():
    sampler = GroupedBatchSampler(groups_per_batch=4, copies_per_group=2)
    assert sampler.batch_size == 8
    task = GaussianClasses(4, 8, seed=10)
    rng = np.random.default_rng(11)
    data = make_clustered_data(task, rng, 16, 2, 1.0)
    idx = sampler.draw(data, rng)
    assert idx.shape == (8,)
    # group-major: consecutive pairs come from one cluster
    pairs = idx.reshape(4, 2)
    for row in pairs:
        assert row[1] == row[0] + 1 and row[0] % 2 == 0
    order = sampler.one_per_group_order()
    assert sorted(order.tolist()) == list(range(8))
    # after reordering, each half holds one member of every group
    reordered = idx[order].reshape(2, 4)
    for half in reordered:
        assert len({i // 2 for i in half}) == 4
    wrong = make_clustered_data(task, rng, 8, 3, 1.0)
    with pytest.raises(InvalidParams):
        sampler.draw(wrong, rng)
