"""Scenario runners: smoke runs on reduced configurations, metric-row
format, and per-seed determinism.  The qualitative directions each scenario
exists for are asserted at full size in the acceptance gate."""

import pytest

from bnlab import io
from bnlab.scenarios import SCENARIOS, ScenarioRun

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
    # each BN layer's statistics source: installed precise statistics, or,
    # after freezing, the frozen statistics it normalized by in training
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


def test_different_seeds_differ():
    cfg = tiny_config("domain_adapt")
    a = SCENARIOS["domain_adapt"][0](cfg, seed=0)
    b = SCENARIOS["domain_adapt"][0](cfg, seed=1)
    assert a.rows != b.rows
