"""Deterministic size and call counts of a tree, as one JSON entry.

    python tools/bench.py OUT [--rev REV]

measures this checkout's working tree or, with ``--rev``, a ``git archive``
copy of commit REV: for each workload of that tree's ``BENCHMARK.json``,
the Python calls of one run (``py_calls``, summed over the whole call
tree by cProfile) from that tree's own ``perfbench/worker.py profile
WORKLOAD 0 1 DIR``; the line counts of its ``src/bnlab`` and ``tests``
Python files and of its README; and the sha256 of its
``tools/artifacts.sha256`` manifest, which names the bits of its default
artifacts.  The tool pins itself to one core with ``os.sched_setaffinity``
(where the platform has it), so each worker runs in a child on that core,
with ``PYTHONPATH`` set to that tree's ``src`` alone: an inherited path
adds import-search calls to the count.  On one core ``fan_out`` runs every
arm in the profiled process, so the count covers the whole run.  The
counts depend on the Python and numpy versions, which the entry records.

The entry goes into OUT, a JSON object of entries keyed by the tree's
commit hash (``+changes`` appended for a working tree that differs from
HEAD), written with sorted keys; an existing OUT keeps its other entries,
so two calls make a before/after pair:

    python tools/bench.py BENCH.json --rev HEAD~1
    python tools/bench.py BENCH.json --rev HEAD

It exits 1 if a worker fails or reports a failed run.  Timings are left
out: on a shared machine they do not repeat.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# what every entry holds; tests/test_bench_tool.py checks the committed files
ENTRY_KEYS = ("artifacts_sha256", "lines", "py_calls", "stack")
LINE_COUNTS = ("README.md", "src/bnlab", "tests")


def export(rev, into):
    """Extract commit ``rev`` of this checkout into the directory ``into``;
    returns the full commit hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=ROOT, capture_output=True, text=True, check=True)
    commit = commit.stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return commit


def describe_worktree():
    """HEAD's hash, with ``+changes`` when the working tree differs from it."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.strip()
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                            cwd=ROOT, capture_output=True, text=True, check=True)
    return head + ("+changes" if status.stdout.strip() else "")


def lines(path):
    """Lines of a file, or of the ``*.py`` files directly in a directory."""
    files = sorted(path.glob("*.py")) if path.is_dir() else [path]
    return sum(len(f.read_bytes().splitlines()) for f in files)


def py_calls(tree, workload, scratch):
    """``py_calls`` of one profiled run of ``workload`` in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "worker.py"), "profile",
         workload, "0", "1", str(scratch / workload)],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload}: worker exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["failed"] or result["errors"]:
        sys.exit(f"{workload}: failed runs: {result['errors']}")
    return result["py_calls"]


def measure(tree, scratch):
    """The entry of ``tree``."""
    workloads = [w["name"] for w in
                 json.loads((tree / "BENCHMARK.json").read_text())["workloads"]]
    manifest = (tree / "tools" / "artifacts.sha256").read_bytes()
    return {
        "artifacts_sha256": hashlib.sha256(manifest).hexdigest(),
        "lines": {name: lines(tree / name) for name in LINE_COUNTS},
        "py_calls": {w: py_calls(tree, w, scratch) for w in workloads},
        "stack": f"Python {platform.python_version()}, numpy {version('numpy')}",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--rev", help="a commit to measure instead of the "
                                      "working tree")
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):  # the workers inherit the one core
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory(prefix="bnlab-bench-") as scratch:
        scratch = Path(scratch)
        if args.rev is None:
            tree, name = ROOT, describe_worktree()
        else:
            tree = scratch / "tree"
            name = export(args.rev, tree)
        entry = measure(tree, scratch / "runs")
    entries = json.loads(args.out.read_text()) if args.out.exists() else {}
    entries[name] = entry
    args.out.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    print(f"{args.out}: {name} "
          + ", ".join(f"{w} {n:,}" for w, n in entry["py_calls"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
