"""Write the artifacts of every scenario at seeds 0-2 into one directory.

    python tools/artifacts.py OUT_DIR

runs each of the six scenarios at its default config and seeds 0, 1 and 2
through ``bnlab run`` into ``OUT_DIR/<scenario>-s<seed>/`` (``metrics.csv``,
``summary.json``, ``stats.json``, ``params.json``: 72 files).  The package
sets OpenBLAS's thread count itself (one thread, unless
``OPENBLAS_NUM_THREADS`` is set); results do not depend on it.  Two
checkouts give the same results when

    diff -r OUT_A OUT_B

prints nothing.  The package is imported from this checkout's ``src/``.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from bnlab.cli import main  # noqa: E402  (after the path setting)
from bnlab.scenarios import SCENARIOS  # noqa: E402

SEEDS = (0, 1, 2)


def write_all(out_dir):
    """Run every scenario at every seed; the number of failed runs."""
    failed = 0
    for scenario in sorted(SCENARIOS):
        for seed in SEEDS:
            out = os.path.join(out_dir, f"{scenario}-s{seed}")
            failed += main(["run", scenario, "--seed", str(seed),
                            "--out", out]) != 0
    return failed


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(1 if write_all(sys.argv[1]) else 0)
