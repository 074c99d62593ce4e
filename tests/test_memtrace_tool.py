"""``tools/memtrace.py``: one traced run of a scenario prints its peak and
the call chain inside bnlab that set it."""

import os
import re
import subprocess
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_memtrace_prints_a_peak_and_its_call_chain():
    # paths print relative to the working directory: the checkout's root
    proc = subprocess.run([sys.executable, os.path.join("tools", "memtrace.py"),
                           "ema_vs_precise", "--seed", "1"],
                          cwd=_ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    head, *chain = proc.stdout.splitlines()
    match = re.fullmatch(r"ema_vs_precise seed 1: traced peak ([0-9.]+) MB, at", head)
    assert match and float(match.group(1)) > 0, head
    # outermost first, from the CLI down into the package, none of the
    # tool's own frames
    assert chain[0].strip().startswith(os.path.join("src", "bnlab", "cli.py"))
    assert any("scenarios.py" in line and "run_ema_vs_precise" in line
               for line in chain), chain
    assert not any("memtrace.py" in line for line in chain), chain
