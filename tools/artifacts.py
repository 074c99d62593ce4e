"""Write the artifacts of every scenario at a range of seeds into one directory.

    python tools/artifacts.py OUT_DIR [--seeds 0-2] [--manifest FILE]
                                      [--check FILE]

runs each of the six scenarios at its default config and each seed of
``--seeds`` (a range ``A-B`` or a comma-separated list, default 0-2)
through ``bnlab run`` into ``OUT_DIR/<scenario>-s<seed>/`` (``metrics.csv``,
``summary.json``, ``stats.json``, ``params.json``: 72 files for seeds 0-2).
``bnlab.scenarios.fan_out`` runs them in up to four processes per usable
core, each run's own arms serially in its process (``taskset -c 0`` runs
them one after another, with the same results).
The package sets OpenBLAS's thread count itself (one thread, unless
``OPENBLAS_NUM_THREADS`` is set); results do not depend on it.  Two
checkouts give the same results when

    diff -r OUT_A OUT_B

prints nothing.  It exits 1 if any run failed (a run whose training loss
diverges exits 1 and writes nothing); ``--seeds 0-9`` thus checks that no
default run at seeds 0-9 trips the divergence bound.  The package is
imported from this checkout's ``src/``.  ``tests/test_acceptance.py``
calls ``write_all`` once per test session at seeds 0-2; c09-c12 judge
those runs and a test checks them against ``tools/artifacts.sha256``.

A manifest records the bits without a second checkout.  ``--manifest
FILE`` writes one ``sha256  path`` line per artifact (paths relative to
OUT_DIR, sorted), headed by ``# `` lines naming the stack the bits depend
on: the Python, numpy and BLAS versions.  ``--check FILE`` compares the
artifacts with such a manifest and lists every file that moved, is
missing or is new; it exits 1 if any did.  On another stack it says that
the stacks differ and how many files differ, and exits 0: the bits are
only promised on the stack they were recorded on.
"""

import argparse
import hashlib
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from bnlab.cli import main  # noqa: E402  (after the path setting)
from bnlab.scenarios import SCENARIOS, fan_out  # noqa: E402
import numpy as np  # noqa: E402  (after bnlab set OpenBLAS's threads)


def parse_seeds(text):
    """``"A-B"`` -> A, A + 1, ..., B; ``"0,3,5"`` -> those seeds."""
    try:
        if "-" in text:
            first, last = map(int, text.split("-"))
            seeds = list(range(first, last + 1))
        else:
            seeds = [int(s) for s in text.split(",")]
    except ValueError:
        seeds = []
    if not seeds or min(seeds) < 0:
        raise argparse.ArgumentTypeError(
            f"expected seeds as A-B or a,b,c with 0 <= A <= B, got {text!r}")
    return seeds


def write_all(out_dir, seeds=(0, 1, 2)):
    """Run every scenario at every seed, the runs spread over processes by
    ``fan_out``; {(scenario, seed): (exit code, seconds)}, each run timed
    in the process that ran it."""

    def timed(job):
        scenario, seed = job
        out = os.path.join(out_dir, f"{scenario}-s{seed}")
        start = time.monotonic()
        code = main(["run", scenario, "--seed", str(seed), "--out", out])
        return code, time.monotonic() - start

    jobs = [(scenario, seed) for scenario in sorted(SCENARIOS) for seed in seeds]
    return dict(zip(jobs, fan_out(timed, jobs)))


def stack():
    """The manifest's header lines: the versions the bits depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # numpy before 1.26 only prints its build config
        blas = "unknown"
    return [f"# python {platform.python_version()}",
            f"# numpy {np.__version__}", f"# blas {blas}"]


def digests(out_dir):
    """{path relative to out_dir, with '/': sha256 hex digest} of every
    file under out_dir."""
    result = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
            with open(path, "rb") as fh:
                result[rel] = hashlib.sha256(fh.read()).hexdigest()
    return result


def write_manifest(out_dir, path):
    lines = stack() + [f"{digest}  {rel}"
                       for rel, digest in sorted(digests(out_dir).items())]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_manifest(path):
    """(header lines, {path: digest})."""
    header, recorded = [], {}
    with open(path) as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                header.append(line)
            elif line:
                digest, rel = line.split("  ", 1)
                recorded[rel] = digest
    return header, recorded


def check_manifest(out_dir, path):
    """Print what moved against the manifest; the number of files that
    moved, are missing or are new, or 0 when the manifest's stack differs
    from this one."""
    header, recorded = read_manifest(path)
    here = digests(out_dir)
    files = recorded.keys() | here.keys()
    differ = {rel: "missing" if rel not in here
              else "new" if rel not in recorded else "moved"
              for rel in files
              if here.get(rel) != recorded.get(rel)}
    if header != stack():
        print(f"the manifest's stack differs from this one "
              f"(manifest: {'; '.join(h[2:] for h in header)}; here: "
              f"{'; '.join(h[2:] for h in stack())}): {len(differ)} of "
              f"{len(files)} files differ, which is no failure here")
        return 0
    for rel in sorted(differ):
        print(f"{differ[rel]:8} {rel}")
    print(f"{len(differ)} of {len(files)} files moved")
    return len(differ)


def run(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out_dir")
    parser.add_argument("--seeds", type=parse_seeds, default=[0, 1, 2],
                        help="a range A-B or a list a,b,c (default 0-2)")
    parser.add_argument("--manifest", metavar="FILE",
                        help="write the artifacts' sha256 manifest to FILE")
    parser.add_argument("--check", metavar="FILE",
                        help="list the artifacts that moved against FILE")
    args = parser.parse_args(argv)
    runs = write_all(args.out_dir, args.seeds)
    failed = sum(code != 0 for code, _ in runs.values())
    print(f"{failed} of {len(runs)} runs failed")
    if args.manifest:
        write_manifest(args.out_dir, args.manifest)
    moved = check_manifest(args.out_dir, args.check) if args.check else 0
    return 1 if failed or moved else 0


if __name__ == "__main__":
    sys.exit(run())
