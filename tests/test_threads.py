"""Importing bnlab caps OpenBLAS at one thread, unless
``OPENBLAS_NUM_THREADS`` asks for more, read back through the library's own
getter in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bnlab

SRC = str(Path(bnlab.__file__).resolve().parents[1])

# prints the thread count of the loaded OpenBLAS after running the snippet
PROBE = """
import ctypes
{snippet}
with open("/proc/self/maps") as fh:
    paths = [line.split(maxsplit=5)[5].strip() for line in fh
             if "openblas" in line]
lib = ctypes.CDLL(paths[0]) if paths else None
names = [n for n in ("openblas_get_num_threads",
                     "scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_") if hasattr(lib, n)]
if names:
    get = getattr(lib, names[0])
    get.argtypes, get.restype = [], ctypes.c_int
    print(get())
else:
    print("none")
"""

# the maps file as seen by bnlab's reader: empty, or unreadable
NO_MAPS = """
import builtins, io, numpy
real_open = builtins.open
def fake_open(path, *args, **kwargs):
    if path == "/proc/self/maps":
        {fake}
    return real_open(path, *args, **kwargs)
builtins.open = fake_open
import bnlab
builtins.open = real_open
"""


def blas_threads(snippet, threads=None):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    out = subprocess.run([sys.executable, "-c", PROBE.format(snippet=snippet)],
                         env=env, capture_output=True, text=True, check=True)
    count = out.stdout.strip()
    if count == "none":
        pytest.skip("numpy is not linked against OpenBLAS")
    return int(count)


@pytest.mark.parametrize("snippet", ["import numpy\nimport bnlab",
                                     "import bnlab"],
                         ids=["numpy-first", "bnlab-alone"])
def test_import_caps_openblas_at_one_thread(snippet):
    assert blas_threads(snippet) == 1


@pytest.mark.parametrize("threads", ["", "0", "many"])
def test_a_count_below_one_or_not_a_number_is_capped(threads):
    # OpenBLAS reads these as its default; bnlab, as fan_out, as one
    assert blas_threads("import numpy\nimport bnlab", threads) == 1


def test_explicit_thread_count_wins():
    explicit = blas_threads("import numpy", "2")  # 2 on a machine with 2+ cores
    assert blas_threads("import numpy\nimport bnlab", "2") == explicit


@pytest.mark.parametrize("fake", ['return io.StringIO("")',
                                  'raise PermissionError(path)'],
                         ids=["no-openblas-listed", "unreadable"])
def test_import_without_a_found_library_leaves_threads_alone(fake):
    default = blas_threads("import numpy")
    assert blas_threads(NO_MAPS.format(fake=fake)) == default
