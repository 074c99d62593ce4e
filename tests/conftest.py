"""Helpers shared by the test modules."""

import csv

import pytest

from bnlab import io


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
