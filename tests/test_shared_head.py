"""The flat SharedHeadNet against a per-domain loop, and ``run_shared_head``
against one training per policy row.

``ReferenceSharedHeadNet`` and ``_reference_step`` below normalize each
domain's rows, and apply a per-domain affine to them, as separate arrays,
one domain at a time; the linear layers, relu and loss run on the
concatenated rows, as in the flat net.  Fed the same batches, the flat
network, which takes the domains as row blocks of one batch, must end with
bit-identical parameters, population statistics and validation error under
every default policy.

The runner trains one net per distinct (sgd_stats, affine) pair, each arm
on its own draw of row 1's stream; its rows must equal those of a loop that
trains every row's net on its own copy of that stream.
"""

import json
import multiprocessing
import os
from collections import namedtuple

import numpy as np
import pytest

from bnlab.cli import main
from bnlab.errors import Diverged, InvalidParams
from bnlab.net import Affine, Linear, Relu, softmax_cross_entropy
from bnlab.scenarios import (
    PER_DOMAIN,
    SHARED,
    SHARED_HEAD_DEFAULTS,
    SharedHeadNet,
    _seed,
    run_shared_head,
    shared_head_data,
)
from bnlab.synthetic import (
    Corruption,
    GaussianClasses,
    MixingCorruption,
    MultiScaleDomains,
)
from bnlab.tensor import ChannelStats, channel_moments, normalize
from test_scenarios import tiny_config

CFG = dict(SHARED_HEAD_DEFAULTS)
STEPS = 200
VAL_ROWS = 256

# a config's policy row, by name
Policy = namedtuple("Policy", "sgd_stats pop_stats affine")


def _flat_net(rng, cfg, policy, n_domains):
    """The SharedHeadNet of a policy row: per-domain SGD statistics are
    cohorts of domain_batch rows, a per-domain affine one block per
    domain."""
    return SharedHeadNet(
        rng, cfg["dim"], cfg["hidden"], cfg["classes"],
        cohort=cfg["domain_batch"] if policy.sgd_stats == PER_DOMAIN else None,
        affine_blocks=n_domains if policy.affine == PER_DOMAIN else None,
        eps=cfg["eps"])


def _domains(cfg, seed=0):
    base = GaussianClasses(cfg["classes"], cfg["dim"], cfg["separation"],
                           cfg["noise"], seed=seed)
    transforms = []
    for d, spec in enumerate(cfg["domains"]):
        if spec["mix"]:
            transforms.append(MixingCorruption.random_rotation(
                cfg["dim"], np.random.default_rng(seed + 20 + d),
                scale=spec["scale"], shift=spec["shift"], noise=spec["noise"]))
        else:
            transforms.append(
                Corruption(spec["scale"], spec["shift"], spec["noise"]))
    return MultiScaleDomains(base, transforms)


# ---------------------------------------------------------------------------
# reference per-domain network and step


def _ref_bn_backward(xhat, inv, dy):
    m = dy.shape[0] * dy.shape[2] * dy.shape[3]
    sum_dy = dy.sum(axis=(0, 2, 3), keepdims=True)
    sum_dy_xhat = (dy * xhat).sum(axis=(0, 2, 3), keepdims=True)
    return (inv[None, :, None, None] / m) * (m * dy - sum_dy - xhat * sum_dy_xhat)


class ReferenceSharedHeadNet:
    """The linear layers, relu and loss run on the concatenated rows, as
    the flat net's do; the normalization and a per-domain affine run one
    domain at a time, each domain's rows a separate array."""

    def __init__(self, rng, dim, hidden, classes, n_domains, policy, eps=1e-5):
        self.policy = policy
        self.eps = eps
        self.l1 = Linear.init(rng, dim, hidden)
        self.l2 = Linear.init(rng, hidden, classes)
        n_aff = n_domains if policy.affine == PER_DOMAIN else 1
        self.affines = [Affine.identity(hidden) for _ in range(n_aff)]
        self.relu = Relu()
        self.pop_stats = None

    def _affine_for(self, d):
        return self.affines[d if self.policy.affine == PER_DOMAIN else 0]

    def _split(self, h, sizes):
        return np.split(h, np.cumsum(sizes)[:-1], axis=0)

    def _normalized(self, hs, stats_per_domain):
        """Each domain's normalized rows, concatenated, through the affine:
        (affine output, per-domain (xhat, inv, affine cache))."""
        outs, caches = [], []
        for h, stats in zip(hs, stats_per_domain):
            caches.append((normalize(h, stats, self.eps),
                           1.0 / np.sqrt(stats.var + self.eps)))
        if self.policy.affine == PER_DOMAIN:
            for d, (xhat, _) in enumerate(caches):
                a, ca = self._affine_for(d).forward(xhat)
                outs.append(a)
                caches[d] += (ca,)
            return np.concatenate(outs), caches, None
        a, ca = self.affines[0].forward(np.concatenate([c[0] for c in caches]))
        return a, caches, ca

    def forward_train(self, xs):
        sizes = [len(x) for x in xs]
        h, c1 = self.l1.forward(np.concatenate(xs))
        hs = self._split(h, sizes)
        if self.policy.sgd_stats == SHARED:
            stats_per_domain = [channel_moments(h)] * len(xs)
        else:
            stats_per_domain = [channel_moments(hd) for hd in hs]
        a, per_domain, ca = self._normalized(hs, stats_per_domain)
        r, cr = self.relu.forward(a)
        logits, cl = self.l2.forward(r)
        return logits[:, :, 0, 0], {"l1": c1, "per_domain": per_domain,
                                    "affine": ca, "relu": cr, "l2": cl,
                                    "sizes": sizes}

    def backward_train(self, caches, dlogits):
        dr, gl2 = self.l2.backward(caches["l2"], dlogits[:, :, None, None])
        da = self.relu.backward(caches["relu"], dr)[0]
        per_domain, sizes = caches["per_domain"], caches["sizes"]
        gaffs = []
        if self.policy.affine == PER_DOMAIN:
            dxhats = []
            for d, (c, dad) in enumerate(zip(per_domain, self._split(da, sizes))):
                dxhat, gaff = self._affine_for(d).backward(c[2], dad)
                dxhats.append(dxhat)
                gaffs.append(gaff)
            dxhat = np.concatenate(dxhats)
        else:
            dxhat, gaff = self.affines[0].backward(caches["affine"], da)
            gaffs.append(gaff)
        if self.policy.sgd_stats == SHARED:
            xhat = np.concatenate([c[0] for c in per_domain])
            dh = _ref_bn_backward(xhat, per_domain[0][1], dxhat)
        else:
            dh = np.concatenate([
                _ref_bn_backward(c[0], c[1], dx)
                for c, dx in zip(per_domain, self._split(dxhat, sizes))])
        _, gl1 = self.l1.backward(caches["l1"], dh)
        return {"l1": gl1, "l2": gl2, "affines": gaffs}

    def train_population_stats(self, xs_by_domain):
        sizes = [len(x) for x in xs_by_domain]
        h, _ = self.l1.forward(np.concatenate(xs_by_domain))
        if self.policy.pop_stats == SHARED:
            self.pop_stats = channel_moments(h)
        else:
            self.pop_stats = [channel_moments(hd) for hd in self._split(h, sizes)]

    def eval_error(self, xs, ys):
        sizes = [len(x) for x in xs]
        h, _ = self.l1.forward(np.concatenate(xs))
        stats = (self.pop_stats if isinstance(self.pop_stats, list)
                 else [self.pop_stats] * len(xs))
        a, _, _ = self._normalized(self._split(h, sizes), stats)
        r, _ = self.relu.forward(a)
        logits, _ = self.l2.forward(r)
        y = np.concatenate(ys)
        return int((logits[:, :, 0, 0].argmax(axis=1) != y).sum()) / len(y)


def _reference_step(net, xs, ys, lr, momentum, velocity):
    logits, caches = net.forward_train(xs)
    _, dlogits = softmax_cross_entropy(logits, np.concatenate(ys))
    grads = net.backward_train(caches, dlogits)
    for obj, g in [(net.l1, grads["l1"]), (net.l2, grads["l2"])] + [
        (a, ga) for a, ga in zip(net.affines, grads["affines"])
    ]:
        for k, gv in g.items():
            key = (id(obj), k)
            v = velocity.get(key)
            v = gv if v is None else momentum * v + gv
            velocity[key] = v
            setattr(obj, k, getattr(obj, k) - lr * v)


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def domains():
    return _domains(CFG)


def _train_pair(domains, row):
    policy = Policy(*CFG["policies"][row])
    net = _flat_net(np.random.default_rng(3), CFG, policy, domains.n_domains)
    ref = ReferenceSharedHeadNet(np.random.default_rng(3), CFG["dim"], CFG["hidden"],
                                 CFG["classes"], domains.n_domains, policy,
                                 eps=CFG["eps"])
    rng = np.random.default_rng(10 + row)
    velocity = {}
    for _ in range(STEPS):
        xs, ys = zip(*(domains.sample_domain(rng, d, CFG["domain_batch"])
                       for d in range(domains.n_domains)))
        net.train_step(np.concatenate(xs), np.concatenate(ys), CFG["lr"],
                       CFG["sgd_momentum"])
        _reference_step(ref, xs, ys, CFG["lr"], CFG["sgd_momentum"], velocity)
    return net, ref, policy


def _assert_stats_equal(a, b):
    # the flat net's (C,) or per-domain (D, C) statistics against the
    # reference's one ChannelStats or list of them
    if isinstance(b, ChannelStats):
        b = [b]
    means, variances = a.mean.reshape(-1, a.channels), a.var.reshape(-1, a.channels)
    assert len(means) == len(b)
    for mean, var, sb in zip(means, variances, b):
        assert np.array_equal(mean, sb.mean)
        assert np.array_equal(var, sb.var)
        assert a.count == sb.count


@pytest.mark.parametrize("row", range(len(CFG["policies"])))
def test_stacked_step_matches_per_domain_loop(domains, row):
    # the domains stacked as row blocks of one batch, against the loop
    net, ref, policy = _train_pair(domains, row)
    for layer, ref_layer in ((net.l1, ref.l1), (net.l2, ref.l2)):
        for k in layer.param_names:
            assert np.array_equal(getattr(layer, k), getattr(ref_layer, k)), k
    for k in net.affine.param_names:
        ref_param = [getattr(a, k) for a in ref.affines]
        expected = (np.stack(ref_param) if policy.affine == PER_DOMAIN
                    else ref_param[0])
        assert np.array_equal(getattr(net.affine, k), expected), k
    # the reference's population pass and evaluation normalize one domain
    # at a time; the flat net views its batch's domain row blocks
    data_rng = np.random.default_rng(2)
    val = [domains.sample_domain(data_rng, d, VAL_ROWS)
           for d in range(domains.n_domains)]
    pop = [domains.sample_domain(data_rng, d, VAL_ROWS)[0]
           for d in range(domains.n_domains)]
    # per domain: a cohort of each domain's VAL_ROWS rows
    stats = net.train_population_stats(
        np.concatenate(pop), VAL_ROWS if policy.pop_stats == PER_DOMAIN else None)
    ref.train_population_stats(pop)
    _assert_stats_equal(stats, ref.pop_stats)
    xs, ys = zip(*val)
    assert net.eval_error(np.concatenate(xs), np.concatenate(ys), stats) == \
        ref.eval_error(xs, ys)


def test_eps_must_be_positive(tmp_path):
    with pytest.raises(InvalidParams, match="eps must be positive"):
        SharedHeadNet(np.random.default_rng(0), 4, 5, 3, eps=0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 0, "steps": 1}))
    # the config's range check refuses it before any work
    assert main(["run", "shared_head", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# one training per (sgd_stats, affine) pair


def _row_by_row(cfg, seed):
    """Each policy row's validation error, its own net trained on a fresh
    copy of the row-1 stream, as the runner's rows must read."""
    domains, val_x, val_y, pop_x = shared_head_data(cfg, seed)
    errors = []
    for policy in map(Policy._make, cfg["policies"]):
        net = _flat_net(np.random.default_rng(_seed(seed, 3)), cfg, policy,
                        domains.n_domains)
        rng = np.random.default_rng(_seed(seed, 10))
        for x, y in domains.batches(rng, cfg["steps"], cfg["domain_batch"]):
            net.train_step(x, y, cfg["lr"], cfg["sgd_momentum"])
        stats = net.train_population_stats(pop_x, cfg["val_per_domain"] if
                                           policy.pop_stats == PER_DOMAIN else None)
        errors.append(net.eval_error(val_x, val_y, stats))
    return errors


@pytest.mark.parametrize("seed", [0, 1])
def test_runner_rows_equal_one_training_per_row(seed):
    cfg = tiny_config("shared_head")
    run = run_shared_head(cfg, seed)
    assert [row[-1] for row in run.rows] == _row_by_row(cfg, seed)
    assert [run.summary[f"row{r + 1}"]["policy"]
            for r in range(len(cfg["policies"]))] == cfg["policies"]


def test_runner_trains_once_per_sgd_side_pair(monkeypatch):
    # on one core every arm trains in this process, where the spy sees it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    cfg = tiny_config("shared_head")
    # the six default rows hold three (sgd_stats, affine) pairs
    assert len({(p[0], p[2]) for p in cfg["policies"]}) == 3
    calls = []
    step = SharedHeadNet.train_step

    def spy(self, *args):
        calls.append(self)
        return step(self, *args)

    monkeypatch.setattr(SharedHeadNet, "train_step", spy)
    run_shared_head(cfg, 0)
    assert len(calls) == cfg["steps"] * 3
    assert len(set(map(id, calls))) == 3


@pytest.mark.parametrize("lr, policies, named", [
    (1e3, [["per_domain", "shared", "per_domain"]],
     r"\d+: .*\(sgd_stats=per_domain, affine=per_domain\)"),
    # alone, the first pair diverges at step 12 and the second at step 8:
    # the first pair's divergence is reported, at its own step
    (30, [["per_domain", "shared", "shared"], ["per_domain", "shared", "per_domain"]],
     r"12: .*\(sgd_stats=per_domain, affine=shared\)"),
])
@pytest.mark.parametrize("cores", [{0}, {0, 1}])
def test_divergence_names_the_pair(monkeypatch, lr, policies, named, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    cfg = tiny_config("shared_head")
    cfg.update(lr=lr, policies=policies)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(Diverged, match=rf"training diverged at step {named}$"):
        run_shared_head(cfg, 0)
    assert multiprocessing.active_children() == []
