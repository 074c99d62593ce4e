"""Where one scenario run's traced memory peaks.

    python tools/memtrace.py SCENARIO [--seed N]

runs ``bnlab run SCENARIO --seed N`` (default config, seed 0) twice in this
process: once as a warm-up, so the second run allocates what a repeated run
allocates (perfbench times repeated runs), then under ``tracemalloc`` with
a profile hook that reads the traced peak at every Python call and return
and every call into C.  It prints the peak of the numpy and Python
allocations the run made, in MB, and the call chain at the first event
that saw the peak, outermost frame first: the frame that allocated it, or
the caller of the function that did.  numpy's own arithmetic raises no
event, so the line shown is where that frame was when the next event came.

A runner's ``fan_out`` workers are forked processes; the hook and the
tracing are switched off in them, so the peak is the calling process's, as
perfbench's ``peak_rss_mb`` is.  The package is imported from this
checkout's ``src/``.
"""

import argparse
import contextlib
import io
import os
import sys
import tempfile
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from bnlab import cli  # noqa: E402
from bnlab.scenarios import SCENARIOS  # noqa: E402


def run_scenario(scenario, seed):
    """One ``bnlab run`` into a temporary directory; raises on a failed run."""
    with tempfile.TemporaryDirectory(prefix="memtrace-") as out, \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", scenario, "--seed", str(seed), "--out", out])
    if code != 0:
        raise SystemExit(f"error: bnlab run {scenario} --seed {seed} exited {code}")


def _untrace():
    sys.setprofile(None)
    if tracemalloc.is_tracing():
        tracemalloc.stop()


def traced_peak(run):
    """(peak bytes, chain) of ``run()``: the traced-allocation peak, and
    the call chain at the first profile event that saw it, a list of
    ``file:line function`` strings, outermost first."""
    best = [0, []]

    def hook(frame, event, arg):
        peak = tracemalloc.get_traced_memory()[1]
        if peak <= best[0]:
            return
        # a call event's allocation was made by the caller
        where = frame.f_back if event == "call" else frame
        chain = []
        while where is not None:
            code = where.f_code
            if code.co_filename != __file__:  # this tool's frames
                chain.append(f"{os.path.relpath(code.co_filename)}:"
                             f"{where.f_lineno} {code.co_name}")
            where = where.f_back
        chain.reverse()
        if event == "c_return":
            chain.append(f"(in {getattr(arg, '__qualname__', arg)})")
        best[:] = peak, chain

    os.register_at_fork(after_in_child=_untrace)
    tracemalloc.start()
    sys.setprofile(hook)
    try:
        run()
    finally:
        _untrace()
    return best[0], best[1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    run_scenario(args.scenario, args.seed)
    peak, chain = traced_peak(lambda: run_scenario(args.scenario, args.seed))
    print(f"{args.scenario} seed {args.seed}: traced peak {peak / 2**20:.2f} MB, at")
    for line in chain:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
