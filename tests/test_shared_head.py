"""The flat SharedHeadNet against the loop reference, ``run_shared_head``
against one training per policy row, and ``SharedHeadNet``'s checks.

The flat SharedHeadNet, which takes the domains as row blocks of one
batch, is checked against the per-domain loop of ``oracles.LoopNet``: at
drawn sizes in ``test_grouped.py``'s drawn test, with every other cohort
pass, and here at the default config under every default policy row.

The runner trains one net per distinct (sgd_stats, affine) pair, each arm
on its own draw of row 1's stream; its rows must equal those of a loop that
trains every row's net on its own copy of that stream.

The population pass and the evaluation are forward only, and a memory
guard bounds what they hold.
"""

import json
import os
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from bnlab.cli import main
from bnlab.errors import Diverged, InvalidParams, ShapeMismatch
from bnlab.scenarios import (
    PER_DOMAIN,
    SHARED_HEAD_DEFAULTS,
    SharedHeadNet,
    _seed,
    run_shared_head,
    shared_head_data,
)
from bnlab.tensor import ChannelStats
from conftest import assert_no_child_left
from test_grouped import assert_shared_head_as_the_loop
from test_scenarios import tiny_config

CFG = dict(SHARED_HEAD_DEFAULTS)

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


@pytest.mark.parametrize("row", range(len(CFG["policies"])))
def test_stacked_step_matches_per_domain_loop(row):
    # 200 steps of the default config, its domains as row blocks of one batch
    policy = Policy(*CFG["policies"][row])
    data = shared_head_data(CFG, 0)
    net = _flat_net(np.random.default_rng(3), CFG, policy, data[0].n_domains)
    batches = data[0].batches(np.random.default_rng(10 + row), 200, CFG["domain_batch"])
    assert_shared_head_as_the_loop(net, CFG, data, batches,
                                   policy.pop_stats == PER_DOMAIN)


def test_eps_must_be_positive(tmp_path):
    with pytest.raises(InvalidParams, match="eps must be positive"):
        SharedHeadNet(np.random.default_rng(0), 4, 5, 3, eps=0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 0, "steps": 1}))
    # the config's range check refuses it before any work
    assert main(["run", "shared_head", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2


def test_population_and_evaluation_passes_check_their_blocks():
    # 10 rows split into no cohort of 3 and into no 3 blocks of statistics
    net = SharedHeadNet(np.random.default_rng(0), 4, 5, 3)
    x, y = np.random.default_rng(1).standard_normal((10, 1, 1, 4)), np.zeros(10)
    with pytest.raises(ShapeMismatch, match="10 rows do not split into cohorts of 3"):
        net.train_population_stats(x, cohort=3)
    with pytest.raises(InvalidParams, match="cohort must be at least 1, got 0"):
        net.train_population_stats(x, cohort=0)
    stats = ChannelStats(np.zeros((3, 5)), np.ones((3, 5)), 3)
    with pytest.raises(ShapeMismatch, match=r"10 rows do not split into 3 equal "
                                            r"blocks for \(3, 5\) statistics"):
        net.eval_error(x, y, stats)
    # the rows that split still run
    assert net.train_population_stats(x, cohort=5).mean.shape == (2, 5)
    net.eval_error(x[:9], y[:9], stats)


@pytest.mark.parametrize("row", [0, len(CFG["policies"]) - 1],
                         ids=["shared", "per_domain"])
def test_population_and_evaluation_passes_hold_two_and_one_activations(
        monkeypatch, row):
    """Peak numpy allocation of ``train_population_stats`` and
    ``eval_error`` on ``shared_head_data``'s 3 x 512 rows, from the first
    layer's output on.  One (1,536, 128) float64 activation is 1.5 MiB.
    The population pass holds the first layer's output and its centred
    copy, squared in place.  The evaluation holds the first layer's
    output, which each later layer overwrites, plus the relu's bool mask
    and the (1,536, 16) logits, an eighth of an activation each.  These
    passes peaked at 3.0 and 4.4 activations when they ran the training
    forward and kept its caches; now at 2.0 and 1.3.  ``Linear.forward``
    itself holds two for a moment (the GEMM's result and its bias sum),
    which the bounds leave out.  The port of ``shared_head`` onto
    ``Network`` keeps this guard, on the passes that replace these two."""
    policy = Policy(*CFG["policies"][row])
    domains, val_x, val_y, pop_x = shared_head_data(CFG, 0)
    net = _flat_net(np.random.default_rng(3), CFG, policy, domains.n_domains)
    activation = pop_x.shape[0] * CFG["hidden"] * 8
    first_layer = net.l1.forward

    def counted_from_its_output(x):
        out = first_layer(x)
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(net.l1, "forward", counted_from_its_output)
    tracemalloc.start()
    try:
        stats = net.train_population_stats(
            pop_x, CFG["val_per_domain"] if policy.pop_stats == PER_DOMAIN else None)
        population = tracemalloc.get_traced_memory()[1]
        net.eval_error(val_x, val_y, stats)
        evaluation = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert population < 2.25 * activation, population / activation
    assert evaluation < 1.5 * activation, evaluation / activation


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
    # alone, the first pair diverges at step 10 and the second at step 7:
    # the first pair's divergence is reported, at its own step
    (30, [["per_domain", "shared", "shared"], ["per_domain", "shared", "per_domain"]],
     r"10: .*\(sgd_stats=per_domain, affine=shared\)"),
])
@pytest.mark.parametrize("cores", [{0}, {0, 1}])
def test_divergence_names_the_pair(monkeypatch, lr, policies, named, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    cfg = tiny_config("shared_head")
    cfg.update(lr=lr, policies=policies)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(Diverged, match=rf"training diverged at step {named}$"):
        run_shared_head(cfg, 0)
    assert_no_child_left()
