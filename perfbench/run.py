"""The bnlab benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload ghost_train|precise_eval|shared_head|all
                             [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` it measures, for the workload:

- ``setup_s``: fresh interpreters importing ``bnlab.cli`` (median of 8);
- ``run_s``, ``run_cpu_s``, ``peak_rss_mb``: one process that warms up and
  then repeats the workload's run until S seconds have passed;
- ``py_calls``: one more run, under cProfile, in its own process.

With ``--trace 1`` it makes one untraced and one traced run in one process
and reports the per-layer metrics (spans.PER_LAYER).  Every run's outputs
are checked (outcheck.py).  The report, with quartiles, sample counts and
the environment, goes to stdout and to ``.bench_out/``; the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the definitions.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import BOUNDARIES, DERIVED, PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 8
DEADLINE_S = 170  # one workload's measurement must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
END_TO_END = [("run_s", "s"), ("run_cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("py_calls", "count")]
UNITS = dict(END_TO_END) | {name: unit for name, unit, _ in PER_LAYER}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"measurement took longer than {DEADLINE_S} s")
    return left


def setup_times(probes, deadline):
    """Seconds from starting a fresh interpreter to ``bnlab.cli`` imported.
    CLOCK_MONOTONIC is system-wide, so the child's clock reading after the
    import compares with the parent's before the start."""
    probe = "import time\nimport bnlab.cli\nprint(time.perf_counter())"
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining(deadline))
        if proc.returncode != 0:
            raise BenchError(f"importing bnlab.cli failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def worker(mode, workload, seed, seconds, deadline):
    out = OUT / workload / mode
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed),
         str(seconds), str(out)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=remaining(deadline))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_max():
    try:  # read only; absent outside a cgroup-v2 CPU limit
        return Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        return None


def host_env():
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_max": cpu_max(),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def digest_conflicts(*results):
    seen, conflicts = {}, []
    for result in results:
        for key, digest in result["digests"].items():
            if seen.setdefault(key, digest) != digest:
                conflicts.append(f"{key}: metrics.csv differs between processes")
    return conflicts


def end_to_end(workload, seed, seconds, deadline):
    setup_times(1, deadline)  # compiles bytecode, fills the page cache
    # half the set-up probes before the runs and half after, so that they
    # sample more than one stretch of the host's speed
    setup = setup_times(SETUP_PROBES // 2, deadline)
    timed = worker("time", workload, seed, seconds, deadline)
    profiled = worker("profile", workload, seed, seconds, deadline)
    setup += setup_times(SETUP_PROBES - SETUP_PROBES // 2, deadline)
    samples = {
        "run_s": [r["wall_s"] for r in timed["runs"]],
        "run_cpu_s": [r["cpu_s"] for r in timed["runs"]],
        "setup_s": setup,
        "peak_rss_mb": [timed["peak_rss_mb"]],
        "py_calls": [profiled["py_calls"]],
    }
    attempted = timed["attempted"] + profiled["attempted"]
    failed = timed["failed"] + profiled["failed"]
    samples["failed_frac"] = [failed / attempted]
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": (timed["errors"] + profiled["errors"]
                   + digest_conflicts(timed, profiled)),
        "metrics": {name: statistics.median(samples[name])
                    for name, _ in END_TO_END},
        "samples": samples,
        "env": timed["env"],
        "loadavg": [r["loadavg"] for r in timed["runs"]],
    }


def per_layer(workload, seed, seconds, deadline):
    traced = worker("trace", workload, seed, seconds, deadline)
    return {
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "errors": traced["errors"],
        "metrics": traced["per_layer"],
        "untraced_run_s": traced["run_s"],
        "env": traced["env"],
    }


def print_end_to_end(result):
    print(f"{'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'n':>5}  unit")
    for name, values in result["samples"].items():
        q1, med, q3 = quartiles(values)
        unit = UNITS.get(name, "ratio")
        print(f"{name:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{len(values):>5}  {unit}")


def print_per_layer(result):
    m = result["metrics"]
    print(f"{'boundary':<48}{'calls':>10}{'self_s':>11}{'us/call':>10}")
    for name in BOUNDARIES:
        calls, self_s = m[f"{name}.calls"], m[f"{name}.self_s"]
        per_call = self_s / calls * 1e6 if calls else 0.0
        print(f"{name:<48}{calls:>10}{self_s:>11.4f}{per_call:>10.2f}")
    for name, unit, _ in DERIVED:
        print(f"{name:<48}{m[name]:>21.6g}  {unit}")


def bench(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[workload]
    print(f"== {workload}: bnlab run {wl.scenario} x {wl.seeds_per_run} "
          f"seed(s) from {seed}, trace {trace}")
    load_before = os.getloadavg()
    measure = per_layer if trace else end_to_end
    result = measure(workload, seed, seconds, deadline)
    result |= {"workload": workload, "scenario": wl.scenario, "seed": seed,
               "seconds": seconds, "trace": trace,
               "host": host_env() | {"loadavg": [load_before,
                                                 os.getloadavg()]}}
    (print_per_layer if trace else print_end_to_end)(result)
    env, host = result["env"], result["host"]
    print(f"env: python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas']}, nproc {host['nproc']}, "
          f"affinity {host['affinity']}, cpu.max {host['cpu_max']}, "
          f"threads {host['thread_vars']}, commit {host['git_commit']}, "
          f"load {host['loadavg']}")
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    report = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    report.write_text(json.dumps(result, indent=1) + "\n")
    print(f"report: {report.relative_to(ROOT)}")
    return result


def summary_line(results):
    """The result line; with several workloads metric names get a
    ``<workload>/`` prefix."""
    prefix = len(results) > 1
    metrics = {}
    for r in results:
        for name, value in r["metrics"].items():
            key = f"{r['workload']}/{name}" if prefix else name
            metrics[key] = {"value": value, "unit": UNITS[name]}
    return {
        "correct": all(not r["errors"] and not r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bnlab" / "cli.py").is_file():
        print(f"error: no bnlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [bench(name, args.seed, args.seconds, args.trace)
                   for name in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary_line(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
