"""``tools/bench.py``: the committed ``BENCH_*.json`` files hold each
measured tree's counts, and the tool writes and merges its entries (with
the profiled runs stubbed out)."""

import importlib.util
import json
import os
import re
import subprocess
from pathlib import Path

import pytest

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
    # the worker runs are stubbed, and this process keeps its cores; the
    # working tree is named as a checkout's, so the test holds outside git
    monkeypatch.setattr(tool, "py_calls", lambda tree, workload, scratch: 7)
    monkeypatch.setattr(tool, "describe_worktree", lambda: "0" * 40 + "+changes")
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cores: pinned.append(cores),
                        raising=False)
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"~other": {}}))  # an entry it keeps
    assert tool.main([str(out)]) == 0
    entries = json.loads(out.read_text())
    name = "0" * 40 + "+changes"
    assert list(entries) == [name, "~other"] and entries["~other"] == {}
    assert out.read_text() == json.dumps(entries, indent=2, sort_keys=True) + "\n"
    entry = entries[name]
    _assert_entry(tool, entry, name)
    assert entry["py_calls"] == {w["name"]: 7 for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]}
    assert entry["lines"]["README.md"] == len(
        (ROOT / "README.md").read_bytes().splitlines())
    if hasattr(os, "sched_getaffinity"):
        assert [len(cores) for cores in pinned] == [1]


def test_a_working_tree_is_named_by_its_commit(tmp_path, monkeypatch):
    # a temporary repository, so the check holds in an exported tree too;
    # no inherited GIT_* variable (a hook's GIT_DIR, say) points git at
    # another repository, and git looks for none above tmp_path
    for var in [v for v in os.environ if v.startswith("GIT_")]:
        monkeypatch.delenv(var)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    tool = _load()
    with pytest.raises(subprocess.CalledProcessError):
        tool.describe_worktree(tmp_path)
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org",
           "-c", "commit.gpgsign=false"]
    (tmp_path / "f").write_text("a")
    for cmd in (["init", "-q"], ["add", "f"], ["commit", "-q", "-m", "f"]):
        subprocess.run(git + cmd, cwd=tmp_path, check=True, capture_output=True)
    head = tool.describe_worktree(tmp_path)
    assert re.fullmatch(r"[0-9a-f]{40}", head)
    (tmp_path / "f").write_text("b")
    assert tool.describe_worktree(tmp_path) == head + "+changes"
