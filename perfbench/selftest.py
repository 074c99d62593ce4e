"""Self-test of the benchmark's own machinery.

    PYTHONPATH=src python3 perfbench/selftest.py [WORKLOAD [SEED]]

Checks the self-time arithmetic on nested spans, that the tracer wraps
every place bnlab looks a boundary up and restores every binding after a
traced run, that the coverage check fails on a missing or a bypassed
boundary, that BENCHMARK.json names exactly the metrics run.py reports, and
that ``py_calls`` and every count of a traced run repeat exactly across two
runs of one seed (WORKLOAD defaults to precise_eval, the cheapest).
"""

import json
import sys

import bnlab
from run import END_TO_END, OUT, ROOT
from spans import PER_LAYER, Tracer
from worker import Runner, bindings, loaded_bnlab, profiled, traced_run


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def check_self_time_arithmetic():
    # outer [0, 10] holds inner [1, 4] and [5, 9]; the second inner holds
    # leaf [6, 8]
    tracer = Tracer(clock=FakeClock([0, 1, 4, 5, 6, 8, 9, 10]))
    tracer.enter("outer")
    tracer.enter("inner")
    tracer.exit()
    tracer.enter("inner")
    tracer.enter("leaf")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert dict(tracer.calls) == {"outer": 1, "inner": 2, "leaf": 1}
    assert dict(tracer.self_s) == {"outer": 3.0, "inner": 5.0, "leaf": 2.0}
    assert list(tracer.durations["inner"]) == [3.0, 4.0]
    assert dict(tracer.edges) == {(None, "outer"): 1, ("outer", "inner"): 2,
                                  ("inner", "leaf"): 1}


def check_same_name_folding():
    tracer = Tracer(clock=FakeClock(range(100)))
    inner = tracer.wrap(lambda: 1, "synthetic.sample")
    outer = tracer.wrap(lambda: inner() + 1, "synthetic.sample")
    assert outer() == 2
    assert tracer.calls["synthetic.sample"] == 1


# (module, name) sites that bind a boundary at import time or look it up
# lazily; each must be wrapped while a tracer is installed
LOOKUP_SITES = [
    ("bnlab.scenarios", "train"),
    ("bnlab.scenarios", "classification_error"),
    ("bnlab.scenarios", "softmax_cross_entropy"),
    ("bnlab.scenarios", "precise_bn"),
    ("bnlab.scenarios", "channel_moments"),
    ("bnlab.scenarios", "normalize"),
    ("bnlab.net", "cohort_indices"),
    ("bnlab.net", "sgd_step"),
    ("bnlab.layer", "channel_moments"),
    ("bnlab.layer", "normalize"),
    ("bnlab.layer", "ema_update"),
    ("bnlab.precise", "aggregate_moment_matching"),
    ("bnlab.tensor", "channel_moments"),  # Network.forward's lazy import
    ("bnlab.io", "validate_config"),
    ("bnlab.io", "write_json"),
]


def check_install_and_restore():
    modules = loaded_bnlab()
    before = bindings(modules)
    tracer = Tracer()
    tracer.install(modules)
    try:
        assert not tracer.missing, tracer.missing
        for module, name in LOOKUP_SITES:
            wrapped = getattr(modules[module], name)
            assert wrapped.__wrapped__ is before[module, name], (module, name)
        for key, (runner, _) in modules["bnlab.cli"].SCENARIOS.items():
            assert runner.__wrapped__ is before["SCENARIOS", key][0], key
        layer = modules["bnlab.layer"].BnLayer
        assert layer.forward.__wrapped__ is before["bnlab.layer", "BnLayer",
                                                   "forward"]
    finally:
        tracer.uninstall()
    after = bindings(modules)
    assert after.keys() == before.keys()
    stale = [k for k in before if after[k] is not before[k]]
    assert not stale, stale


def check_coverage_errors():
    tracer = Tracer()
    tracer.calls["net.sgd_step"] = 3
    assert not tracer.coverage_errors(expected=["net.sgd_step"],
                                      bypassed=["net.train"])
    tracer.calls["layer.BnLayer.forward.frozen"] = 1
    errors = tracer.coverage_errors(expected=["net.train"],
                                    bypassed=["net.sgd_step"])
    assert [e.split(":")[0] for e in errors] == [
        "net.train", "net.sgd_step", "layer.BnLayer.forward.frozen"], errors


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == PER_LAYER


def check_counts_repeat(workload, seed):
    runner = Runner(workload, seed, OUT / "selftest" / workload)
    runner.warm_up()
    first, _ = traced_run(runner)
    second, _ = traced_run(runner)
    for name in ("calls", "edges", "tallies"):
        a, b = getattr(first, name), getattr(second, name)
        assert a == b, (name, {k: (a[k], b[k]) for k in a | b if a[k] != b[k]})
    py_calls = [profiled(runner)["py_calls"] for _ in range(2)]
    assert py_calls[0] == py_calls[1], py_calls
    assert not runner.errors and not runner.failed, runner.errors


def main(argv):
    workload = argv[0] if argv else "precise_eval"
    seed = int(argv[1]) if len(argv) > 1 else 0
    checks = [
        check_self_time_arithmetic,
        check_same_name_folding,
        check_install_and_restore,
        check_coverage_errors,
        check_benchmark_json,
        lambda: check_counts_repeat(workload, seed),
    ]
    for check in checks:
        check()
    print(f"selftest ok ({len(checks)} checks, counts repeat on {workload} "
          f"seed {seed}, bnlab from {bnlab.__path__[0]})")


if __name__ == "__main__":
    main(sys.argv[1:])
