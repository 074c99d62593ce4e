"""Runs of one workload inside one process: timed, profiled or traced.

run.py starts this with bnlab importable from the checkout's ``src``:

    python3 perfbench/worker.py time|profile|trace WORKLOAD SEED SECONDS OUT

``time`` repeats the workload's run until SECONDS have passed, ``profile``
makes one run under cProfile to count Python calls, and ``trace`` makes one
untraced and one traced run.  Every ``cli.main`` call is output-checked.
The result is one JSON object on the last line of stdout.
"""

import contextlib
import cProfile
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from bnlab import cli
from outcheck import check_outputs, load_expected_keys
from spans import Tracer
from workloads import WARMUP_SCENARIO, WORKLOADS


class Runner:
    """Drives one workload through ``bnlab.cli.main(["run", ...])``."""

    def __init__(self, workload, seed, out_root):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.out_root = Path(out_root)
        # bnlab creates missing output parents; make the count of those
        # calls the same in every process
        self.out_root.mkdir(parents=True, exist_ok=True)
        self.main = cli.main
        self.expected_keys = load_expected_keys()
        self.digests = {}  # "<scenario>-s<seed>" -> sha256 of metrics.csv
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def call(self, scenario, seed):
        """One ``bnlab run``; returns (wall s, cpu s, problems)."""
        out = self.out_root / f"{scenario}-s{seed}"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run", scenario, "--seed", str(seed), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                code = self.main(argv)
            except Exception:  # a run that raises is a failed run
                code = traceback.format_exc(limit=3)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if code != 0:
            return wall, cpu, [f"{scenario} seed {seed}: exit {code}"]
        problems, digest = check_outputs(out, scenario, seed, self.expected_keys)
        if digest is not None:
            first = self.digests.setdefault(f"{scenario}-s{seed}", digest)
            if digest != first:
                problems.append("metrics.csv differs from an earlier run "
                                "of the same seed")
        return wall, cpu, [f"{scenario} seed {seed}: {p}" for p in problems]

    def warm_up(self):
        self.errors += self.call(WARMUP_SCENARIO, self.seed)[2]

    def run(self):
        """One run of the workload (all its seeds); returns (wall, cpu)."""
        wall = cpu = 0.0
        problems = []
        for seed in self.workload.seeds(self.seed):
            w, c, p = self.call(self.workload.scenario, seed)
            wall, cpu = wall + w, cpu + c
            problems += p
        self.attempted += 1
        self.failed += bool(problems)
        self.errors += problems
        return wall, cpu

    def result(self, **fields):
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors, "digests": self.digests, **fields}


def numpy_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "bnlab": str(Path(cli.__file__).parent)}


def timed(runner, seconds):
    runner.warm_up()
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        load_before = os.getloadavg()
        wall, cpu = runner.run()
        runs.append({"wall_s": wall, "cpu_s": cpu,
                     "loadavg": [load_before, os.getloadavg()]})
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return runner.result(runs=runs, peak_rss_mb=peak_rss_mb, env=numpy_info())


def profiled(runner):
    calls = 0

    def profiled_main(argv):
        nonlocal calls
        profile = cProfile.Profile()
        try:
            return profile.runcall(cli.main, argv)
        finally:
            # summed per code object: pstats merges distinct functions that
            # share a (file, line, name) label, e.g. dataclass __init__s
            calls += sum(entry.callcount for entry in profile.getstats())

    runner.main = profiled_main
    runner.run()
    return runner.result(py_calls=calls)


def loaded_bnlab():
    return {name: module for name, module in sys.modules.items()
            if name == "bnlab" or name.startswith("bnlab.")}


def bindings(modules):
    """Every object bnlab looks a name up in, by where it is looked up."""
    found = {}
    for module_name, module in modules.items():
        for name, value in vars(module).items():
            found[module_name, name] = value
            if isinstance(value, type) and value.__module__ == module_name:
                for attr, member in vars(value).items():
                    found[module_name, name, attr] = member
    for key, entry in modules["bnlab.scenarios"].SCENARIOS.items():
        found["SCENARIOS", key] = entry
    return found


def traced_run(runner):
    """One run with every boundary wrapped; returns (tracer, wall s)."""
    tracer = Tracer()
    try:
        tracer.install(loaded_bnlab())
        wall, _ = runner.run()
    finally:
        tracer.uninstall()
    return tracer, wall


def traced(runner):
    runner.warm_up()
    run_s, _ = runner.run()
    modules = loaded_bnlab()
    before = bindings(modules)
    tracer, traced_run_s = traced_run(runner)
    after = bindings(modules)
    stale = sorted(str(k) for k in before.keys() | after.keys()
                   if before.get(k) is not after.get(k))
    if stale:
        runner.errors.append(f"bindings not restored after tracing: {stale}")
    runner.errors += tracer.coverage_errors(runner.workload.expected,
                                            runner.workload.bypassed)
    return runner.result(run_s=run_s,
                         per_layer=tracer.metrics(run_s, traced_run_s),
                         env=numpy_info())


def main(argv):
    mode, workload, seed, seconds, out = argv
    runner = Runner(workload, int(seed), out)
    if mode == "time":
        result = timed(runner, float(seconds))
    elif mode == "profile":
        result = profiled(runner)
    else:
        result = traced(runner)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
