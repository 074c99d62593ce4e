"""Write the artifacts of every scenario at a range of seeds into one directory.

    python tools/artifacts.py OUT_DIR [--seeds 0-2]

runs each of the six scenarios at its default config and each seed of
``--seeds`` (a range ``A-B`` or a comma-separated list, default 0-2)
through ``bnlab run`` into ``OUT_DIR/<scenario>-s<seed>/`` (``metrics.csv``,
``summary.json``, ``stats.json``, ``params.json``: 72 files for seeds 0-2).
The package sets OpenBLAS's thread count itself (one thread, unless
``OPENBLAS_NUM_THREADS`` is set); results do not depend on it.  Two
checkouts give the same results when

    diff -r OUT_A OUT_B

prints nothing.  It exits 1 if any run failed (a run whose training loss
diverges exits 1 and writes nothing); ``--seeds 0-9`` thus checks that no
default run at seeds 0-9 trips the divergence bound.  The package is
imported from this checkout's ``src/``.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from bnlab.cli import main  # noqa: E402  (after the path setting)
from bnlab.scenarios import SCENARIOS  # noqa: E402


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
    """Run every scenario at every seed; the number of failed runs."""
    failed = 0
    for scenario in sorted(SCENARIOS):
        for seed in seeds:
            out = os.path.join(out_dir, f"{scenario}-s{seed}")
            failed += main(["run", scenario, "--seed", str(seed),
                            "--out", out]) != 0
    return failed


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out_dir")
    parser.add_argument("--seeds", type=parse_seeds, default=[0, 1, 2],
                        help="a range A-B or a list a,b,c (default 0-2)")
    args = parser.parse_args()
    failed = write_all(args.out_dir, args.seeds)
    print(f"{failed} of {len(SCENARIOS) * len(args.seeds)} runs failed")
    sys.exit(1 if failed else 0)
