"""``tools/artifacts.py``'s manifest: ``--manifest`` records each
artifact's sha256 under the stack's versions, ``--check`` names what moved.
Run on hand-made files, with the scenario runs stubbed out; and its run
count, with ``bnlab run`` stubbed."""

import hashlib
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "tools", "artifacts.py")


def _load():
    spec = importlib.util.spec_from_file_location("artifacts_tool", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def tool(monkeypatch):
    module = _load()
    # the artifacts are the hand-made files already in OUT_DIR
    monkeypatch.setattr(module, "write_all", lambda out_dir, seeds: {})
    return module


def _write(path, data):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data)


@pytest.fixture()
def out(tmp_path):
    out = tmp_path / "out"
    _write(str(out / "a-s0" / "metrics.csv"), b"run_id,value\n")
    _write(str(out / "b-s1" / "stats.json"), b"{}\n")
    return out


def test_manifest_lists_each_artifact_under_the_stack(tool, out, tmp_path):
    manifest = tmp_path / "manifest"
    assert tool.run([str(out), "--manifest", str(manifest)]) == 0
    lines = manifest.read_text().splitlines()
    assert lines[:3] == tool.stack()
    assert [line.split()[0] for line in lines[:3]] == ["#"] * 3
    assert [line.split()[1] for line in lines[:3]] == ["python", "numpy", "blas"]
    digest = [hashlib.sha256(data).hexdigest()
              for data in (b"run_id,value\n", b"{}\n")]
    assert lines[3:] == [f"{digest[0]}  a-s0/metrics.csv",
                         f"{digest[1]}  b-s1/stats.json"]


def test_check_names_every_file_that_moved(tool, out, tmp_path, capsys):
    manifest = tmp_path / "manifest"
    tool.run([str(out), "--manifest", str(manifest)])
    capsys.readouterr()
    assert tool.run([str(out), "--check", str(manifest)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 of 2 files moved"

    _write(str(out / "a-s0" / "metrics.csv"), b"run_id,value\nx,1\n")
    os.remove(out / "b-s1" / "stats.json")
    _write(str(out / "c-s2" / "params.json"), b"{}\n")
    assert tool.run([str(out), "--check", str(manifest)]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "moved    a-s0/metrics.csv",
        "missing  b-s1/stats.json",
        "new      c-s2/params.json",
        "3 of 3 files moved",
    ]


def test_check_on_another_stack_says_so_instead_of_failing(tool, out,
                                                          tmp_path, capsys):
    manifest = tmp_path / "manifest"
    tool.run([str(out), "--manifest", str(manifest)])
    text = manifest.read_text().replace("# numpy ", "# numpy 0.0-", 1)
    manifest.write_text(text)
    _write(str(out / "a-s0" / "metrics.csv"), b"other bits\n")
    capsys.readouterr()
    assert tool.run([str(out), "--check", str(manifest)]) == 0
    report = capsys.readouterr().out
    assert "stack differs" in report and "numpy 0.0-" in report
    assert "1 of 2 files differ" in report and "moved" not in report


def test_a_failed_run_is_counted_and_timed(monkeypatch, tmp_path, capsys):
    tool = _load()
    # two jobs, b's run fails
    monkeypatch.setattr(tool, "SCENARIOS", ("a", "b"))
    monkeypatch.setattr(tool, "main", lambda argv: 1 if argv[1] == "b" else 0)
    runs = tool.write_all(str(tmp_path), [0])
    assert sorted(runs) == [("a", 0), ("b", 0)]
    assert [runs[job][0] for job in sorted(runs)] == [0, 1]
    assert all(seconds >= 0 for _, seconds in runs.values())
    assert tool.run([str(tmp_path), "--seeds", "0"]) == 1
    assert capsys.readouterr().out == "1 of 2 runs failed\n"
