"""Scenario runners: smoke runs on reduced configurations, metric-row
format, and per-seed determinism.  The qualitative directions each scenario
exists for are asserted at full size in the acceptance gate."""

import numpy as np
import pytest

from bnlab import io, scenarios
from bnlab.layer import BnLayer
from bnlab.net import Affine, Linear, Network, Relu
from bnlab.precise import precise_bn
from bnlab.scenarios import RULES, SCENARIOS, ScenarioRun, build_net

TINY = {
    "ema_vs_precise": {
        "train_size": 256, "val_size": 128, "hidden": [16], "steps": 20,
        "eval_every": 10, "precise_n": 128, "precise_b_sweep": [8, 128],
        "subset_sizes": [32, 128],
    },
    "nbs_sweep": {
        "train_size": 256, "val_size": 128, "hidden": [16], "steps": 20,
        "nbs_list": [2, 8], "precise_n": 128, "train_eval_size": 128,
    },
    "frozen_finetune": {
        "train_size": 256, "val_size": 128, "hidden": [16], "steps": 20,
        "warmup_steps": 2, "precise_n": 128,
    },
    "domain_adapt": {
        "train_size": 256, "val_size": 128, "adapt_size": 128,
        "hidden": [16], "steps": 20, "precise_n": 128,
    },
    "shared_head": {
        "hidden": 16, "steps": 30, "domain_batch": 8, "val_per_domain": 64,
    },
    "leakage": {
        "train_clusters": 128, "val_clusters": 64, "hidden": [32, 32],
        "steps": 20, "eval_window": 5, "precise_n": 128,
    },
}


def tiny_config(name):
    _, defaults = SCENARIOS[name]
    return io.validate_config(defaults, TINY[name])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_smoke_and_row_format(name):
    run = SCENARIOS[name][0](tiny_config(name), seed=0)
    assert isinstance(run, ScenarioRun)
    assert run.scenario == name
    assert run.rows, "scenario produced no metric rows"
    for row in run.rows:
        run_id, scenario, step, split, stats_mode, metric, value = row
        assert isinstance(run_id, str) and run_id
        assert scenario == name
        assert isinstance(step, int) and step >= 0
        assert isinstance(split, str) and isinstance(stats_mode, str)
        assert isinstance(metric, str)
        assert isinstance(value, float)
    assert run.summary


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_rows_deterministic(name):
    cfg = tiny_config(name)
    a = SCENARIOS[name][0](cfg, seed=1)
    b = SCENARIOS[name][0](cfg, seed=1)
    assert a.rows == b.rows
    assert a.summary == b.summary


def test_scenarios_with_checkpoints_fill_them():
    # each BN layer's statistics source: the precise statistics passed to
    # checkpoint, or, after freezing, the frozen statistics it normalized by
    # in training
    for name, source in (("ema_vs_precise", "precise"),
                         ("domain_adapt", "precise"),
                         ("frozen_finetune", "frozen")):
        run = SCENARIOS[name][0](tiny_config(name), seed=0)
        assert run.stats_checkpoint, name
        assert run.params_checkpoint, name
        for entry in run.stats_checkpoint.values():
            assert set(entry) == {"mean", "var", "count", "source"}
            assert len(entry["mean"]) == len(entry["var"])
            assert entry["source"] == source, name


def test_checkpoint_snapshots_statistics_without_installing_them():
    # the given statistics under the given source, else the EMA; every BN
    # layer's state (its EMA) is left as it was
    rng = np.random.default_rng(3)
    net = build_net(rng, [4, 6, 6, 6, 3])
    net.forward(rng.standard_normal((16, 1, 1, 4)))  # moves the EMAs
    bn = net.bn_indices
    frozen = {bn[0]: net.layers[bn[0]].ema}
    stats = precise_bn(net, rng.standard_normal((32, 1, 1, 4)), 8)
    layers = [net.layers[i] for i in bn]
    before = [dict(vars(layer)) for layer in layers]
    run = ScenarioRun("checkpoint")
    run.checkpoint(net, frozen, source="frozen")
    first = run.stats_checkpoint
    assert [e["source"] for e in first.values()] == ["frozen", "ema", "ema"]
    run.checkpoint(net, {bn[1]: stats[bn[1]]})  # the default source
    for layer, state in zip(layers, before):
        assert vars(layer).keys() == state.keys()
        assert all(vars(layer)[k] is v for k, v in state.items())
    names = list(first)
    entries = [first[names[0]], *(run.stats_checkpoint[n] for n in names[1:])]
    assert [e["source"] for e in entries] == ["frozen", "precise", "ema"]
    for entry, expected in zip(entries, (frozen[bn[0]], stats[bn[1]],
                                         before[2]["ema"])):
        assert entry["mean"] == list(expected.mean)
        assert entry["var"] == list(expected.var)


def test_different_seeds_differ():
    cfg = tiny_config("domain_adapt")
    a = SCENARIOS["domain_adapt"][0](cfg, seed=0)
    b = SCENARIOS["domain_adapt"][0](cfg, seed=1)
    assert a.rows != b.rows


DEFAULTS = {name: table for name, table in vars(scenarios).items()
            if name.endswith("_DEFAULTS")}


def test_every_config_key_has_a_range_that_its_default_meets():
    # a list of specs or of policies has none but its length (every list or
    # mapping holds at least one entry)
    assert len(DEFAULTS) == len(SCENARIOS)
    for name, table in DEFAULTS.items():
        for key, default in table.items():
            numbers = default if isinstance(default, list) else [default]
            if all(isinstance(n, (int, float)) for n in numbers):
                assert table.bounds[key], f"{name}: {key} has no declared range"
        # each default has its own type and range, and they meet every rule
        assert io.validate_config(table, table) == table
    for rule in RULES:
        assert any(rule in table.rules for table in DEFAULTS.values()), rule[2]


def test_the_config_fuzzer_draws_each_bound_and_its_neighbours():
    from test_config_fuzz import EDGES
    for table in DEFAULTS.values():
        for key, bounds in table.bounds.items():
            for bound in set(bounds) - {"distinct"}:
                b = float(bound.split()[1])
                assert {b - 1, b, b + 1} <= set(EDGES), f"{key} {bound}"


def _old_leakage_net(cfg, seed):
    # the leakage net as it was written out: BN on the first block only
    rng = np.random.default_rng(seed)
    dims = [cfg["dim"], cfg["hidden"][0]]
    return Network([
        Linear.init(rng, dims[0], dims[1]),
        BnLayer(dims[1]),
        Affine.identity(dims[1]),
        Relu(),
        Linear.init(rng, cfg["hidden"][0], cfg["hidden"][1]),
        Relu(),
        Linear.init(rng, cfg["hidden"][1], cfg["classes"]),
    ])


def test_build_net_with_one_bn_block_is_the_leakage_net():
    cfg = SCENARIOS["leakage"][1]
    old = _old_leakage_net(cfg, 7)
    new = build_net(np.random.default_rng(7),
                    [cfg["dim"], *cfg["hidden"], cfg["classes"]], bn_blocks=1)
    assert [type(l) for l in new.layers] == [type(l) for l in old.layers]
    assert new.layer_names() == old.layer_names()
    for a, b in zip(new.layers, old.layers):
        assert a.param_names == b.param_names
        for k in a.param_names:
            np.testing.assert_array_equal(getattr(a, k), getattr(b, k))
        if isinstance(a, BnLayer):
            assert (a.eps, a.momentum) == (b.eps, b.momentum)
