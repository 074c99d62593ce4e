"""Synthetic data generators for the experiment scenarios: Gaussian class
blobs, domain corruptions, multi-scale domains, and correlated-cluster
sampling with a grouped batch sampler."""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams

__all__ = [
    "GaussianClasses",
    "SpatialGaussianClasses",
    "Corruption",
    "MixingCorruption",
    "MultiScaleDomains",
    "ClusteredData",
    "make_clustered_data",
    "GroupedBatchSampler",
]


# rows per block in which a draw adds its class means: the means[labels]
# temporary is this many rows, not the whole draw
DRAW_BLOCK_ROWS = 256


def _add_class_means(x, means, labels):
    """x += means[labels], in blocks of DRAW_BLOCK_ROWS rows."""
    for start in range(0, len(x), DRAW_BLOCK_ROWS):
        stop = start + DRAW_BLOCK_ROWS
        x[start:stop] += means[labels[start:stop]]


@dataclass
class GaussianClasses:
    """Isotropic Gaussian blobs around class means of fixed norm.

    Class means are unit directions scaled by ``separation``; the mean
    layout is determined by ``seed`` so train/val streams share it.
    """

    classes: int = 16
    dim: int = 32
    separation: float = 4.0
    noise: float = 1.0
    seed: int = 0
    means: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        raw = rng.standard_normal((self.classes, self.dim))
        self.means = self.separation * raw / np.linalg.norm(raw, axis=1, keepdims=True)

    def sample(self, rng, n):
        """(X of shape (n, 1, 1, dim), labels).  The normals are drawn into
        X and the arithmetic runs in place, with the bits of
        means[labels] + noise * z (+ and * commute)."""
        labels = rng.integers(0, self.classes, size=n)
        x = rng.standard_normal(out=np.empty((n, self.dim)))
        x *= self.noise
        _add_class_means(x, self.means, labels)
        return x[:, None, None], labels


@dataclass
class SpatialGaussianClasses:
    """Class patterns laid out over channels x spatial sites, with a random
    per-sample gain and offset nuisance (an illumination-style variation
    applied to the whole sample)."""

    classes: int = 16
    channels: int = 32
    sites: int = 4
    separation: float = 4.0
    noise: float = 1.0
    gain: float = 0.0  # sd of log-gain
    offset: float = 0.0  # sd of additive per-sample offset
    seed: int = 0
    means: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        raw = rng.standard_normal((self.classes, self.channels, self.sites))
        norms = np.linalg.norm(raw.reshape(self.classes, -1), axis=1)
        self.means = self.separation * raw / norms[:, None, None]

    def sample(self, rng, n):
        """(X of shape (n, sites, 1, channels), labels).  As in
        ``GaussianClasses.sample``, the normals are drawn into X and the
        class means, gain and offset applied in place; they are drawn
        channel by channel, so X is a view of an (n, channels, sites)
        array."""
        labels = rng.integers(0, self.classes, size=n)
        x = rng.standard_normal(out=np.empty((n, self.channels, self.sites)))
        x *= self.noise
        _add_class_means(x, self.means, labels)
        if self.gain > 0:
            x *= np.exp(self.gain * rng.standard_normal(n))[:, None, None]
        if self.offset > 0:
            x += (self.offset * rng.standard_normal(n))[:, None, None]
        return x.transpose(0, 2, 1)[:, :, None], labels


@dataclass(frozen=True)
class Corruption:
    """Per-domain affine corruption a*x + b + xi with additive noise xi."""

    scale: float = 1.0
    shift: float = 0.0
    noise: float = 0.0

    def apply(self, x, rng):
        return self.transform(
            x, rng.standard_normal(x.shape) if self.noise > 0 else None)

    def transform(self, x, z):
        """a*x + b, plus ``noise`` times the standard-normal draws ``z`` (of
        x's shape, unused when noise is 0)."""
        y = self.scale * x + self.shift
        if self.noise > 0:
            y = y + self.noise * z
        return y


@dataclass
class MixingCorruption:
    """Channel-mixing domain shift: x -> scale * (M x) + shift + noise.

    Unlike the channel-wise :class:`Corruption`, the mixing matrix cannot be
    undone by per-channel standardization, so domains stay genuinely
    distinct after normalization."""

    matrix: np.ndarray
    scale: float = 1.0
    shift: float = 0.0
    noise: float = 0.0

    @classmethod
    def random_rotation(cls, dim, rng, scale=1.0, shift=0.0, noise=0.0):
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
        q = q * np.sign(np.diag(r))  # deterministic sign convention
        return cls(matrix=q, scale=scale, shift=shift, noise=noise)

    def apply(self, x, rng):
        z = rng.standard_normal((len(x), x.shape[-1])) if self.noise > 0 else None
        return self.transform(x[:, 0, 0], z)[:, None, None]

    def transform(self, x, z):
        """The shift of (..., dim) features ``x`` with the standard-normal
        draws ``z`` (unused when noise is 0).  A stack of batches runs one
        GEMM per batch, so each batch rounds as it would alone."""
        y = self.scale * (x @ self.matrix.T) + self.shift
        if self.noise > 0:
            y = y + self.noise * z
        return y


# training steps drawn as one slab by MultiScaleDomains.batches (~0.6 MB of
# inputs at shared_head's defaults)
SLAB_STEPS = 50


@dataclass
class MultiScaleDomains:
    """D domains sharing class structure but with distinct input scale/shift."""

    base: GaussianClasses
    transforms: list  # of Corruption / MixingCorruption

    def sample_domain(self, rng, d, n):
        x, y = self.base.sample(rng, n)
        return self.transforms[d].apply(x, rng), y

    def batches(self, rng, steps, n):
        """Yield ``steps`` training batches of n rows per domain, each a
        (D * n, 1, 1, dim) batch of D consecutive domain row blocks with
        (D * n,) labels, drawn SLAB_STEPS steps at a time.  The labels, the
        features' normals and each domain's noise come from their own
        child of ``rng`` (``rng.spawn``), one call per slab and purpose, so
        the stream does not depend on SLAB_STEPS.  It is not that of
        per-step ``sample_domain`` calls, but each slab runs their
        arithmetic."""
        base, d_count = self.base, self.n_domains
        label_rng, x_rng, *noise_rngs = rng.spawn(2 + d_count)
        for start in range(0, steps, SLAB_STEPS):
            k = min(SLAB_STEPS, steps - start)
            labels = label_rng.integers(0, base.classes, size=(k, d_count, n))
            x = x_rng.standard_normal(out=np.empty((k, d_count, n, base.dim)))
            # in place, the bits of means[labels] + noise * z (+ commutes)
            x *= base.noise
            x += base.means[labels]
            for d, (t, r) in enumerate(zip(self.transforms, noise_rngs)):
                z = r.standard_normal((k, n, base.dim)) if t.noise > 0 else None
                x[:, d] = t.transform(x[:, d], z)
            yield from zip(x.reshape(k, -1, 1, 1, base.dim), labels.reshape(k, -1))

    @property
    def n_domains(self):
        return len(self.transforms)


@dataclass
class ClusteredData:
    """Samples organized in correlation clusters sharing a latent offset."""

    x: np.ndarray
    labels: np.ndarray
    clusters: np.ndarray  # (n_clusters, cluster_size) index array


def make_clustered_data(task: GaussianClasses, rng, n_clusters, cluster_size,
                        latent_scale):
    """Each cluster holds ``cluster_size`` samples of independently random
    classes that share one latent offset of scale ``latent_scale``."""
    n = n_clusters * cluster_size
    labels = rng.integers(0, task.classes, size=n)
    x = task.means[labels] + task.noise * rng.standard_normal((n, task.dim))
    latents = latent_scale * rng.standard_normal((n_clusters, task.dim))
    x += np.repeat(latents, cluster_size, axis=0)
    clusters = np.arange(n).reshape(n_clusters, cluster_size)
    return ClusteredData(x=x[:, None, None], labels=labels, clusters=clusters)


@dataclass
class GroupedBatchSampler:
    """Batches of g groups x m copies drawn from clustered data.

    Batches are emitted group-major: the m members of a group are
    contiguous, so a ghost plan with sub-batch m normalizes each group on
    its own, and interleaving (see ``one_per_group_order``) yields cohorts
    of g distinct groups.
    """

    groups_per_batch: int
    copies_per_group: int

    @property
    def batch_size(self):
        return self.groups_per_batch * self.copies_per_group

    def draw(self, data: ClusteredData, rng):
        if data.clusters.shape[1] != self.copies_per_group:
            raise InvalidParams(
                f"data clusters hold {data.clusters.shape[1]} samples, "
                f"sampler expects {self.copies_per_group}"
            )
        chosen = rng.choice(data.clusters.shape[0], size=self.groups_per_batch,
                            replace=False)
        return data.clusters[chosen].reshape(-1)

    def one_per_group_order(self):
        """Permutation putting one member of every group in each cohort."""
        g, m = self.groups_per_batch, self.copies_per_group
        return np.arange(g * m).reshape(g, m).T.reshape(-1)
