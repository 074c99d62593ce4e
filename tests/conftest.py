"""Helpers shared by the test modules, and the hypothesis profile they
all run under."""

import csv
import os
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from bnlab import io

# every drawn test sees the same examples on every run and writes no
# example database; each test sets its own example count with ``drawn``.
# BNLAB_DEEP=<factor> draws that many times the examples, at random (seeded
# by pytest's --hypothesis-seed), for a deep run outside tier-1
DEEP = int(os.environ.get("BNLAB_DEEP", "0"))
settings.register_profile("bnlab", derandomize=True, database=None, deadline=None)
settings.register_profile("bnlab-deep", derandomize=False, database=None,
                          deadline=None)
settings.load_profile("bnlab-deep" if DEEP else "bnlab")


def drawn(n):
    """The settings of a drawn test of ``n`` examples: n in tier-1, n times
    the BNLAB_DEEP factor in a deep run."""
    return settings(max_examples=n * (DEEP or 1))

# hypothesis caches the literal constants of the source files it draws
# from, from collection on; the cache goes to a directory that lives as
# long as the session, not to .hypothesis/ in the checkout
_hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_hypothesis_home.name)


def assert_no_child_left():
    """This process has no child left, running or ended and unreaped: a
    check that every ``fan_out`` worker was waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def read_metrics():
    """A reader of ``metrics.csv`` files: checks the header and returns the
    rows as (run_id, scenario, step, split, stats_mode, metric, value)."""

    def read(path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            assert next(reader) == io.METRICS_HEADER
            return [(r[0], r[1], int(r[2]), r[3], r[4], r[5], float(r[6]))
                    for r in reader]

    return read


@pytest.fixture
def moments_csv():
    """A writer of the moments CSV that ``bnlab estimate`` reads, in the
    format README documents: for a list of ChannelStats, each one
    mini-batch's (C,) moments or a (G, C) stack of G, one row per
    mini-batch and channel, numbered in order, floats as ``repr``."""

    def write(entries):
        lines = ["batch_index,channel,mean,var,count"]
        k = 0
        for e in entries:
            for means, variances in zip(e.mean.reshape(-1, e.channels),
                                        e.var.reshape(-1, e.channels)):
                lines += [f"{k},{c},{float(m)!r},{float(v)!r},{e.count}"
                          for c, (m, v) in enumerate(zip(means, variances))]
                k += 1
        return "\n".join(lines) + "\n"

    return write
