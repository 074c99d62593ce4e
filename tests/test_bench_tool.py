"""``tools/bench.py``: the committed ``BENCH_*.json`` files hold each
measured tree's counts, and the tool writes and merges its entries (with
the profiled runs stubbed out)."""

import importlib.util
import json
import os
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load():
    spec = importlib.util.spec_from_file_location("bench_tool",
                                                  ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_entry(tool, entry, where):
    assert set(entry) >= set(tool.ENTRY_KEYS), where
    assert set(entry["lines"]) == set(tool.LINE_COUNTS), where
    assert entry["py_calls"], where
    for counts in (entry["lines"], entry["py_calls"]):
        assert all(type(n) is int and n > 0 for n in counts.values()), where
    assert re.fullmatch(r"[0-9a-f]{64}", entry["artifacts_sha256"]), where


def test_every_committed_bench_file_holds_integer_counts():
    tool = _load()
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        entries = json.loads(path.read_text())
        assert entries, path.name
        for name, entry in entries.items():
            _assert_entry(tool, entry, f"{path.name}: {name}")


def test_an_entry_merges_into_the_file_with_sorted_keys(tmp_path, monkeypatch):
    tool = _load()
    pinned = []
    # the worker runs are stubbed, and this process keeps its cores
    monkeypatch.setattr(tool, "py_calls", lambda tree, workload, scratch: 7)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cores: pinned.append(cores),
                        raising=False)
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"~other": {}}))  # an entry it keeps
    assert tool.main([str(out)]) == 0
    entries = json.loads(out.read_text())
    name = tool.describe_worktree()
    assert list(entries) == [name, "~other"] and entries["~other"] == {}
    assert re.fullmatch(r"[0-9a-f]{40}(\+changes)?", name)
    assert out.read_text() == json.dumps(entries, indent=2, sort_keys=True) + "\n"
    entry = entries[name]
    _assert_entry(tool, entry, name)
    assert entry["py_calls"] == {w["name"]: 7 for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]}
    assert entry["lines"]["README.md"] == len(
        (ROOT / "README.md").read_bytes().splitlines())
    if hasattr(os, "sched_getaffinity"):
        assert [len(cores) for cores in pinned] == [1]
