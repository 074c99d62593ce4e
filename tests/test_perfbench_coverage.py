"""perfbench's traced check, in tier-1: a traced benchmark run reports
wrong outputs when a layer boundary it expects records no call, one it
expects bypassed records calls, a boundary site is missing from bnlab, or
tracing leaves a binding wrapped.  Each workload's scenario runs here on a
tiny config under perfbench's own ``Tracer``, with one usable core so that
``fan_out`` runs its items in this process, where the tracer sees them.
The test reads perfbench and changes nothing in it."""

import json
import os
import sys
from pathlib import Path

import pytest

from bnlab import cli
from test_scenarios import TINY

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# perfbench's modules import each other by their plain names
sys.path.insert(0, str(PERFBENCH))
try:
    import spans
    import worker
    import workloads
finally:
    sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_traced_workload_enters_exactly_its_boundaries(monkeypatch, tmp_path,
                                                         name):
    workload = workloads.WORKLOADS[name]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY[workload.scenario]))
    modules = worker.loaded_bnlab()
    before = worker.bindings(modules)
    tracer = spans.Tracer()
    try:
        tracer.install(modules)
        code = cli.main(["run", workload.scenario, "--config", str(config),
                         "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.coverage_errors(workload.expected, workload.bypassed) == []
    if "precise.precise_bn" in workload.expected:
        # a precise pass pools each BN layer (one per hidden width) through
        # one boundary call
        bn_layers = len(TINY[workload.scenario]["hidden"])
        assert (tracer.edges["precise.precise_bn", "stats.aggregate_moment_matching"]
                == bn_layers * tracer.calls["precise.precise_bn"])
    after = worker.bindings(modules)
    assert [k for k in before.keys() | after.keys()
            if before.get(k) is not after.get(k)] == []
