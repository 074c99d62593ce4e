"""Oracles that only the tests use: the Monte Carlo variance-of-variance
oracle behind c01-c03, the frozen-affine fusion toy behind c05, the random
network of c04 and the precise-BN tests, ``moment_matching``, the in-order
sums that ``stats.MomentFold`` folds in pieces, and ``LoopNet``, the
reference network that every cohort-equivalence test compares against.

They exercise the package's estimators (``aggregate_naive``,
``aggregate_moment_matching``) and layers but are no part of a run, so they
live beside the tests that call them rather than in ``bnlab``.
"""

from dataclasses import dataclass

import numpy as np

from bnlab.errors import DegenerateBatch, InvalidParams
from bnlab.layer import BnLayer
from bnlab.net import Affine, Linear, Network, Relu, softmax_cross_entropy
from bnlab.stats import aggregate_moment_matching, aggregate_naive
from bnlab.tensor import ChannelStats


@dataclass(frozen=True)
class VarVarOracleReport:
    analytic_var: float
    empirical_var: float
    sigma: float
    kurtosis: float
    trials: int


def _draw_samples(rng, sigma, kurtosis, shape):
    """Samples with the requested sd and kurtosis.

    kurtosis == 3 uses Gaussians.  Other kurtosis values use a scaled
    Bernoulli mixture: 0 with probability 1 - p, +-sigma*sqrt(kappa) with
    probability p/2 each, where p = 1/kappa.  This has E[x^2] = sigma^2 and
    normalized fourth moment kappa, and requires kappa >= 1.
    """
    if kurtosis == 3.0:
        return sigma * rng.standard_normal(shape)
    if kurtosis < 1.0:
        raise InvalidParams(f"mixture construction needs kurtosis >= 1, got {kurtosis}")
    p = 1.0 / kurtosis
    hit = rng.random(shape) < p
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return sigma * np.sqrt(kurtosis) * hit * signs


def simulate_variance_estimates(
    sigma: float,
    kurtosis: float,
    k: int,
    batch_size: int,
    trials: int,
    seed: int,
    estimator: str = "naive",
) -> np.ndarray:
    """Variance estimates from `trials` independent draws of k batches of B."""
    if batch_size < 2 or k < 1 or trials < 1:
        raise InvalidParams("need batch_size >= 2, k >= 1, trials >= 1")
    rng = np.random.default_rng(seed)
    x = _draw_samples(rng, sigma, kurtosis, (trials, k, batch_size))
    # the biased moments of batch j are channel t of its ChannelStats, for
    # each trial t: the estimators pool all trials at once
    mu, var = x.mean(axis=2), x.var(axis=2)
    batches = [ChannelStats(mu[:, j], var[:, j], batch_size) for j in range(k)]
    if estimator == "naive":
        return aggregate_naive(batches).var
    if estimator == "moment_matching":
        return aggregate_moment_matching(batches, bessel=True).var
    raise InvalidParams(f"unknown estimator {estimator!r}")


def var_of_var_oracle(
    sigma: float,
    kurtosis: float,
    n_total: int,
    batch_size: int,
    trials: int,
    seed: int,
) -> VarVarOracleReport:
    """Compare the analytic Var[naive estimate] against Monte Carlo.

    analytic = sigma^4 / N * (kappa - 1 + 2 / (B - 1)), the variance of the
    B/(B-1)-corrected mean-of-batch-variances estimator.
    """
    if batch_size < 2 or n_total % batch_size != 0:
        raise InvalidParams("need B >= 2 and N divisible by B")
    if trials < 1000:
        raise InvalidParams("need at least 10^3 trials")
    k = n_total // batch_size
    analytic = sigma**4 / n_total * (kurtosis - 1.0 + 2.0 / (batch_size - 1))
    estimates = simulate_variance_estimates(
        sigma, kurtosis, k, batch_size, trials, seed, estimator="naive"
    )
    empirical = float(estimates.var(ddof=1))
    return VarVarOracleReport(
        analytic_var=float(analytic),
        empirical_var=empirical,
        sigma=sigma,
        kurtosis=kurtosis,
        trials=trials,
    )


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


def moment_matching(entries, bessel=False):
    """Moment matching of a list of batch moments: each sum a Python ``sum``
    over the log's mini-batches, one (C,) row at a time in order, as
    ``stats.MomentFold`` adds them at every C.  An entry is (C,) moments or
    the (G, C) moments of G mini-batches."""
    c = entries[0].mean.shape[-1]
    batches = [(m, v, e.count) for e in entries
               for m, v in zip(e.mean.reshape(-1, c), e.var.reshape(-1, c))]
    total = sum(count for _, _, count in batches)
    mean = sum(count * m for m, _, count in batches) / total
    second = sum(count * (m**2 + v) for m, v, count in batches) / total
    var = second - mean**2
    if bessel:
        if total < 2:
            raise DegenerateBatch("bessel correction needs at least 2 elements")
        var = var * total / (total - 1)
    return ChannelStats(mean=mean, var=np.maximum(var, 0.0), count=total)


def random_net(rng, dims):
    """Linear -> BnLayer -> Affine -> Relu per hidden width of ``dims``, then
    a Linear: a network whose affines (scale uniform in 0.5-1.5, shift
    normal) look trained, drawn from ``rng`` layer by layer."""
    layers = []
    for i in range(len(dims) - 2):
        layers.append(Linear.init(rng, dims[i], dims[i + 1]))
        layers.append(BnLayer(dims[i + 1]))
        layers.append(Affine(rng.uniform(0.5, 1.5, dims[i + 1]),
                             rng.standard_normal(dims[i + 1])))
        layers.append(Relu())
    layers.append(Linear.init(rng, dims[-2], dims[-1]))
    return Network(layers)


def _rows(n, size):
    """Consecutive slices of ``size`` rows (None: all n), the last ragged."""
    size = size or n
    return [slice(start, min(start + size, n)) for start in range(0, n, size)]


class LoopNet:
    """The reference for every pass whose rows share statistics in cohorts.

    It copies a list of layers, as a ``Network`` or a ``SharedHeadNet``
    holds them, and runs the library's math in plain loops.  ``Linear``,
    ``Relu``, ``MeanPool`` and the loss are the library's, run on the whole
    batch as the library runs them, so their bits agree.  What the cohorts
    decide is written here, one cohort or row block at a time, with no
    cohort view, flat buffer or chunk: BN's forward and backward by each
    cohort's own moments (the last cohort ragged) or by fixed statistics
    per row block, the EMA step per cohort, the (C,) or (G, C) row-block
    affine, momentum SGD per parameter with a velocity dict that each
    ``train`` call starts afresh, and precise BN's count-weighted pooling.

    Parameters are ``params[layer index, name]``; BN layer i's EMA is
    ``ema[i]``, a (mean, var) tuple.
    """

    def __init__(self, layers):
        self.layers, self.params, self.ema, self.spec = list(layers), {}, {}, {}
        for i, layer in enumerate(self.layers):
            for k in layer.param_names:
                self.params[i, k] = getattr(layer, k).copy()
            if isinstance(layer, BnLayer):
                self.spec[i] = (layer.eps, layer.momentum)
                self.ema[i] = (layer.ema.mean.copy(), layer.ema.var.copy())

    def forward(self, x, cohort=None, fixed=None, train=False, sinks=None):
        """(N, K) logits and the caches of a backward.  BN layer i
        normalizes by ``fixed[i]``, a list of (mean, var), one per equal row
        block, if given; else by the moments of each ``cohort`` rows (None:
        all), stepping its EMA per cohort in ``train`` and appending
        (mean, var, count) per cohort to ``sinks[i]`` if given."""
        caches = []
        for i, layer in enumerate(self.layers):
            if isinstance(layer, Linear):
                layer = Linear(self.params[i, "weight"], self.params[i, "bias"])
                x, cache = layer.forward(x)
                cache = (layer, cache)
            elif isinstance(layer, BnLayer):
                x, cache = self._bn(i, x, cohort, (fixed or {}).get(i), train,
                                    (sinks or {}).get(i))
            elif isinstance(layer, Affine):
                gamma, beta = (self.params[i, k].reshape(-1, x.shape[1])
                               for k in layer.param_names)
                y = np.empty_like(x)
                for rows, g, b in zip(_rows(len(x), len(x) // len(gamma)), gamma, beta):
                    y[rows] = x[rows] * g[:, None, None] + b[:, None, None]
                x, cache = y, x
            else:
                x, cache = layer.forward(x)
            caches.append(cache)
        return x[:, :, 0, 0], caches

    def _bn(self, i, x, cohort, fixed, train, sink):
        eps, lam = self.spec[i]
        y, cache = np.empty_like(x), []
        if fixed is not None:
            for rows, (mean, var) in zip(_rows(len(x), len(x) // len(fixed)), fixed):
                inv = 1.0 / np.sqrt(var + eps)
                y[rows] = (x[rows] - mean[:, None, None]) * inv[:, None, None]
                cache.append((rows, None, inv))
            return y, cache
        for rows in _rows(len(x), cohort):
            xc = x[rows]
            count = xc.shape[0] * xc.shape[2] * xc.shape[3]
            mean = np.add.reduce(xc, axis=(0, 2, 3)) / count
            centred = xc - mean[:, None, None]
            var = np.add.reduce(np.square(centred), axis=(0, 2, 3)) / count
            inv = 1.0 / np.sqrt(var + eps)
            y[rows] = centred * inv[:, None, None]
            cache.append((rows, y[rows], inv))
            if train:
                ema_mean, ema_var = self.ema[i]
                self.ema[i] = (lam * ema_mean + (1.0 - lam) * mean,
                               lam * ema_var + (1.0 - lam) * var)
            if sink is not None:
                sink.append((mean, var, count))
        return y, cache

    def backward(self, caches, dlogits):
        """{(layer index, name): gradient} of the loss whose logits
        gradient is ``dlogits``."""
        dy, grads = dlogits[:, :, None, None], {}
        for i in range(len(self.layers) - 1, -1, -1):
            layer, cache = self.layers[i], caches[i]
            if isinstance(layer, Linear):
                layer, cache = cache
                dy, g = layer.backward(cache, dy)
                grads[i, "weight"], grads[i, "bias"] = g["weight"], g["bias"]
                continue
            if not isinstance(layer, (BnLayer, Affine)):
                dy, _ = layer.backward(cache, dy)
                continue
            dx = np.empty_like(dy)
            if isinstance(layer, BnLayer):
                for rows, x_hat, inv in cache:
                    d = dy[rows]
                    if x_hat is None:  # fixed statistics are constants
                        dx[rows] = d * inv[:, None, None]
                        continue
                    m = d.shape[0] * d.shape[2] * d.shape[3]
                    sum_dy = np.add.reduce(d, axis=(0, 2, 3), keepdims=True)
                    sum_dy_xhat = np.add.reduce(d * x_hat, axis=(0, 2, 3),
                                                keepdims=True)
                    dx[rows] = (inv[:, None, None] / m) * (
                        m * d - sum_dy - x_hat * sum_dy_xhat)
            else:
                shape = self.params[i, "gamma"].shape
                gamma = self.params[i, "gamma"].reshape(-1, shape[-1])
                dgamma, dbeta = np.empty_like(gamma), np.empty_like(gamma)
                for b, rows in enumerate(_rows(len(dy), len(dy) // len(gamma))):
                    dgamma[b] = np.add.reduce(dy[rows] * cache[rows], axis=(0, 2, 3))
                    dbeta[b] = np.add.reduce(dy[rows], axis=(0, 2, 3))
                    dx[rows] = dy[rows] * gamma[b][:, None, None]
                grads[i, "gamma"], grads[i, "beta"] = (dgamma.reshape(shape),
                                                       dbeta.reshape(shape))
            dy = dx
        return grads

    def step(self, x, labels, lr, momentum, velocity, cohort=None, fixed=None):
        """One momentum-SGD step: v = g at a parameter's first step, else
        v = momentum * v + g, then p = p - lr * v.  Returns the loss."""
        logits, caches = self.forward(x, cohort, fixed, train=True)
        loss, dlogits = softmax_cross_entropy(logits, labels)
        for key, g in self.backward(caches, dlogits).items():
            v = velocity.get(key)
            velocity[key] = v = g if v is None else momentum * v + g
            self.params[key] = self.params[key] - lr * v
        return loss

    def train(self, batch_fn, cfg, plan=None, stats=None):
        """``bnlab.net.train``'s steps, from one rng seeded by ``cfg.seed``:
        ``batch_fn(rng, batch_size)``, then a shuffle's ``rng.permutation``
        of the rows; cohorts of ``plan.sub_batch`` consecutive rows, the
        layers in ``stats`` frozen.  Returns the step losses."""
        rng, velocity, losses = np.random.default_rng(cfg.seed), {}, []
        fixed = {i: [(s.mean, s.var)] for i, s in (stats or {}).items()}
        for step in range(cfg.steps):
            x, labels = batch_fn(rng, cfg.batch_size)
            cohort = None if plan is None else plan.sub_batch
            if plan is not None and plan.strategy == "shuffle":
                order = rng.permutation(len(x))
                x, labels = x[order], labels[order]
            lr = (cfg.lr * (step + 1) / cfg.warmup_steps
                  if step < cfg.warmup_steps else cfg.lr)
            losses.append(self.step(x, labels, lr, cfg.momentum, velocity,
                                    cohort, fixed))
        return losses

    def moments(self, x, cohort=None, fixed=None, layers=None):
        """{BN layer index (``layers``, default all): [(mean, var, count)
        of each cohort of ``cohort`` rows]}."""
        sinks = {i: [] for i in (self.spec if layers is None else layers)}
        self.forward(x, cohort, fixed, sinks=sinks)
        return sinks

    def precise_bn(self, x, batch_size, layerwise=False):
        """{BN layer index: (mean, var, count)} pooled over mini-batches of
        ``batch_size`` rows; ``layerwise``, each layer with the layers
        before it normalizing by their pooled statistics."""
        if not layerwise:
            return {i: _pool(m) for i, m in self.moments(x, batch_size).items()}
        result = {}
        for j in self.spec:
            fixed = {i: [s[:2]] for i, s in result.items()}
            result[j] = _pool(self.moments(x, batch_size, fixed, [j])[j])
        return result


def _pool(moments):
    """Moment matching: the count-weighted sums of the batch means and of
    mean^2 + var, one batch at a time in order."""
    total = sum(c for _, _, c in moments)
    mean = sum(c * m for m, _, c in moments) / total
    var = sum(c * (m**2 + v) for m, v, c in moments) / total - mean**2
    return mean, np.maximum(var, 0.0), total
