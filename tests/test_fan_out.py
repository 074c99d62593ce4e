"""``scenarios.fan_out``: the items' results in item order, on forked
workers or serially, with the serial loop's first exception; and the three
runners that use it write the same bytes either way."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bnlab import io, scenarios
from bnlab.cli import main
from bnlab.errors import BnLabError, Diverged
from bnlab.scenarios import fan_out

from conftest import assert_no_child_left
from test_scenarios import TINY, tiny_config
from test_shared_head import _row_by_row


@pytest.fixture
def cores(monkeypatch):
    """Set the usable cores fan_out sees (forking works on one real core),
    with BLAS at bnlab's one thread."""

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)

    return use


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    assert_no_child_left()


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("k", [2, 3])
def test_results_come_back_in_item_order(cores, n, k):
    cores(k)
    assert fan_out(lambda i: (i, i * i), range(n)) == [(i, i * i) for i in range(n)]


def test_items_run_in_workers(cores):
    # one process per item: this one runs item 0, a worker each other item
    cores(2)
    pids = fan_out(lambda _: os.getpid(), range(4))
    assert pids[0] == os.getpid()
    assert len(set(pids)) == 4


def test_workers_inherit_the_floating_point_error_state(cores):
    # bnlab run raises on a numeric fault in every arm, forked or not
    cores(2)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        states = fan_out(lambda _: (os.getpid(), np.geterr()), range(3))
    assert len({pid for pid, _ in states}) == 3
    assert [err for _, err in states] == [
        {"divide": "raise", "over": "raise", "under": "ignore", "invalid": "raise"}] * 3


def test_processes_are_capped_at_four_per_core(cores):
    cores(2)
    out = fan_out(lambda i: (i, os.getpid()), range(20))
    assert [i for i, _ in out] == list(range(20))
    pids = [pid for _, pid in out]
    assert len(set(pids)) == 8
    assert pids[0::8] == [os.getpid()] * 3


def test_a_call_inside_an_item_runs_serially(cores):
    cores(2)
    out = fan_out(lambda _: (os.getpid(), fan_out(lambda _: os.getpid(), range(3))),
                  range(2))
    assert out[0][0] == os.getpid() != out[1][0]
    assert [inner for _, inner in out] == [[pid] * 3 for pid, _ in out]
    # the calls after it fork again, also after an item failed
    with pytest.raises(ValueError):
        fan_out(lambda _: int("x"), range(2))
    assert len(set(fan_out(lambda _: os.getpid(), range(2)))) == 2


def test_one_core_runs_serially(cores):
    cores(1)
    assert fan_out(lambda _: os.getpid(), range(3)) == [os.getpid()] * 3


def test_no_affinity_call_runs_serially(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    assert fan_out(lambda _: os.getpid(), range(3)) == [os.getpid()] * 3


@pytest.mark.parametrize("threads, n_cores, processes", [
    ("1", 2, 4), ("2", 2, 1), ("2", 4, 2), ("3", 8, 2),
    ("", 2, 4), ("0", 2, 4), ("many", 2, 4)])
def test_blas_threads_share_the_cores(cores, monkeypatch, threads, n_cores,
                                      processes):
    # a count of two or more takes that many cores per process; one that
    # is not an integer >= 1 is bnlab's one thread, one process per item
    cores(n_cores)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    assert len(set(fan_out(lambda _: os.getpid(), range(4)))) == processes


def test_closure_and_unpicklable_state(cores):
    cores(2)
    scale = {"by": 3, "lock": (lambda: None)}  # a lambda does not pickle
    assert fan_out(lambda i: i * scale["by"], [1, 2, 3]) == [3, 6, 9]


@pytest.mark.parametrize("failing", [{1}, {2}, {1, 2}, {3, 4}, {0, 1}])
def test_first_failing_item_raises_as_serially(cores, failing):
    def fn(i):
        if i in failing:
            raise Diverged(f"item {i} failed")
        return i

    cores(1)
    with pytest.raises(Diverged) as serial:
        fan_out(fn, range(5))
    cores(2)  # five items, five processes
    assert len(set(fan_out(lambda _: os.getpid(), range(5)))) == 5
    with pytest.raises(Diverged) as fanned:
        fan_out(fn, range(5))
    assert str(fanned.value) == str(serial.value) == f"item {min(failing)} failed"


def test_a_worker_killed_mid_item_is_a_bnlab_error(cores):
    parent = os.getpid()

    def fn(i):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    cores(2)
    with pytest.raises(BnLabError, match=r"^fan_out item 1 \('b'\) ended without "
                                         r"a result: its worker exited with "
                                         r"code -9$"):
        fan_out(fn, ["a", "b", "c"])


@pytest.mark.parametrize("fn", [
    lambda i: lambda: i,  # a lambda does not pickle
    lambda i: sys.exit(1) if i == "b" else i,
], ids=["unpicklable_result", "system_exit"])
def test_a_worker_that_sends_nothing_is_a_bnlab_error(cores, fn):
    cores(2)
    with pytest.raises(BnLabError, match=r"^fan_out item 1 \('b'\) ended without "
                                         r"a result: its worker exited with "
                                         r"code 1$"):
        fan_out(fn, ["a", "b"])


def test_forking_imports_no_multiprocessing():
    # three items on two cores, in a fresh interpreter whose stdout is a
    # buffered pipe: three processes, and each line printed once, the
    # workers' too
    code = ("import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from bnlab.scenarios import fan_out\n"
            "print('before')\n"
            "pids = fan_out(lambda i: print(f'item {i}') or os.getpid(), range(3))\n"
            "assert len(set(pids)) == 3\n"
            "print('multiprocessing' in sys.modules)\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = str(Path(scenarios.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert sorted(lines[:-1]) == ["before", "item 0", "item 1", "item 2"]
    assert lines[-1] == "False"


def test_an_earlier_failure_wins_over_a_killed_worker(cores):
    parent = os.getpid()

    def fn(i):
        if os.getpid() == parent:
            raise ValueError(f"item {i}")
        os.kill(os.getpid(), signal.SIGKILL)

    cores(2)
    with pytest.raises(ValueError, match="^item 0$"):
        fan_out(fn, range(4))


def test_an_interrupted_parent_terminates_its_workers(cores):
    parent = os.getpid()

    def fn(i):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30)  # the worker is still busy when the parent fails

    cores(2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        fan_out(fn, range(2))
    assert time.monotonic() - start < 10


@pytest.mark.parametrize("scenario", ["nbs_sweep", "leakage", "shared_head"])
def test_runners_write_the_same_bytes_serially_and_fanned_out(
        cores, tmp_path, scenario):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY[scenario]))
    outs = []
    for n in (1, 2):
        cores(n)
        outs.append(tmp_path / f"cores{n}")
        assert main(["run", scenario, "--config", str(config),
                     "--out", str(outs[-1])]) == 0
    for name in ("metrics.csv", "summary.json", "stats.json", "params.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("scenario, arms", [
    ("nbs_sweep", [2, 8]),
    ("leakage", ["crafted", "ghost_fix", "shuffle_fix", "sync_fix", "control"]),
    ("shared_head", [("shared", "shared"), ("per_domain", "shared"),
                     ("per_domain", "per_domain")]),
])
def test_runners_fan_out_one_arm_each(cores, monkeypatch, scenario, arms):
    seen = []
    real = scenarios.fan_out
    monkeypatch.setattr(scenarios, "fan_out",
                        lambda fn, items: seen.append(list(items)) or real(fn, items))
    cores(2)
    runner, defaults = scenarios.SCENARIOS[scenario]
    runner(io.validate_config(defaults, TINY[scenario]), 0)
    assert seen == [arms]


def test_shared_head_logs_rows_in_row_order(cores):
    # the pairs are not contiguous: rows 1 and 3 train in the first arm,
    # (per_domain, per_domain), and rows 2 and 4 in the worker's,
    # (shared, shared)
    cfg = tiny_config("shared_head")
    cfg["policies"] = [["per_domain", "shared", "per_domain"],
                       ["shared", "shared", "shared"],
                       ["per_domain", "per_domain", "per_domain"],
                       ["shared", "per_domain", "shared"]]
    cores(2)
    run = scenarios.run_shared_head(cfg, 0)
    assert [row[0] for row in run.rows] == [f"shared_head-row{r}-s0" for r in (1, 2, 3, 4)]
    assert [row[-1] for row in run.rows] == _row_by_row(cfg, 0)
