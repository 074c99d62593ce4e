"""``tools/margins.py``: c09-c12's margins and verdicts per seed and the vote
on seeds 0-2 and 3-9, read from hand-made ``summary.json`` files."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "tools", "margins.py")


@pytest.fixture()
def tool():
    spec = importlib.util.spec_from_file_location("margins_tool", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _leakage(gap, fix):
    # crafted population - minibatch_pattern = gap; each fix `fix` from control
    return {"crafted": {"population": 0.75, "minibatch_pattern": 0.75 - gap,
                        "minibatch_random": 0.8},
            "control": {"population": 0.5},
            **{name: {"population": 0.5 + fix}
               for name in ("shuffle_fix", "sync_fix", "ghost_fix")}}


def _shared_head(inconsistent, consistent=(0.125, 0.125, 0.125)):
    errs = [consistent[0], inconsistent, 0.5, consistent[1], 0.5, consistent[2]]
    return {f"row{r + 1}": {"policy": [], "error": e} for r, e in enumerate(errs)}


def _nbs_sweep(train, flip):
    out = {str(b): {"train_minibatch": t, "val_minibatch": 0.25,
                    "val_population": 0.25}
           for b, t in zip((2, 8, 32), train)}
    out["2"]["val_population"] = 0.25 + flip
    return out


def _domain_adapt(helps, coincide):
    return {"strong": {"source_stats": 0.5, "target_stats": 0.5 - helps},
            "none": {"source_stats": 0.25, "target_stats": 0.25 + coincide}}


RUNS = {
    ("leakage", 0): _leakage(0.375, 0.0),
    ("leakage", 1): _leakage(0.125, 0.0),  # gap below 0.20
    ("leakage", 2): _leakage(0.375, 0.03125),  # a fix off by more than 0.02
    ("leakage", 4): _leakage(0.25, 0.015625),
    ("shared_head", 0): _shared_head(0.5),
    ("shared_head", 3): _shared_head(0.1875),  # ratio 1.5
    ("nbs_sweep", 0): _nbs_sweep([0.5, 0.25, 0.125], 0.0625),
    ("nbs_sweep", 1): _nbs_sweep([0.5, 0.25, 0.375], 0.0625),  # not monotone
    ("nbs_sweep", 2): _nbs_sweep([0.5, 0.25, 0.125], -0.0625),  # no flip
    ("domain_adapt", 5): _domain_adapt(0.125, 0.0),
}


def _write_runs(out_dir):
    for (scenario, seed), summary in RUNS.items():
        run_dir = os.path.join(out_dir, f"{scenario}-s{seed}")
        os.makedirs(run_dir)
        with open(os.path.join(run_dir, "summary.json"), "w") as fh:
            json.dump({"scenario": scenario, "seed": seed, "config": {},
                       "summary": summary}, fh)
    # neither a run directory of these scenarios nor a run with a summary
    os.makedirs(os.path.join(out_dir, "ema_vs_precise-s0"))
    os.makedirs(os.path.join(out_dir, "leakage-s7"))


def test_margins_verdicts_and_votes(tool, tmp_path, capsys):
    _write_runs(str(tmp_path))
    assert tool.run([str(tmp_path)]) == 0
    table = json.loads((tmp_path / "margins.json").read_text())
    assert sorted(table) == ["c09", "c10", "c11", "c12"]
    c09 = table["c09"]
    assert {s: r["pass"] for s, r in c09["seeds"].items()} == {
        "0": True, "1": False, "2": False, "4": True}
    assert c09["seeds"]["0"]["margins"] == {"gap": 0.375,
                                            "max_fix_vs_control": 0.0}
    assert c09["seeds"]["2"]["margins"]["max_fix_vs_control"] == 0.03125
    assert c09["votes"] == {
        "0-2": {"passed": 1, "seeds": 3, "majority": False},
        "3-9": {"passed": 1, "seeds": 1, "majority": True}}
    assert table["c10"]["seeds"]["0"] == {
        "margins": {"ratio": 4.0, "spread": 0.0}, "pass": True}
    assert table["c10"]["seeds"]["3"]["margins"]["ratio"] == 1.5
    assert not table["c10"]["seeds"]["3"]["pass"]
    c11 = table["c11"]["seeds"]
    assert [c11[s]["pass"] for s in "012"] == [True, False, False]
    assert c11["0"]["margins"] == {"train_minibatch_nbs2_8_32": [0.5, 0.25, 0.125],
                                   "flip": 0.0625}
    assert table["c12"]["seeds"] == {"5": {
        "margins": {"helps": 0.125, "coincide": 0.0}, "pass": True}}
    # a group with no run has no vote
    assert list(table["c12"]["votes"]) == ["3-9"]
    out = capsys.readouterr().out
    assert "seed  1  FAIL  gap=0.125  max_fix_vs_control=0" in out
    assert "seeds 0-2: 1 of 3 pass (no majority)" in out


def test_margins_file_is_deterministic(tool, tmp_path):
    _write_runs(str(tmp_path))
    tool.run([str(tmp_path)])
    first = (tmp_path / "margins.json").read_bytes()
    tool.run([str(tmp_path)])
    assert (tmp_path / "margins.json").read_bytes() == first
    # sorted keys, at every level
    assert first == (json.dumps(json.loads(first), sort_keys=True, indent=1)
                     + "\n").encode()


def test_margins_exit_1_without_runs(tool, tmp_path, capsys):
    assert tool.run([str(tmp_path)]) == 1
    assert "no summary.json" in capsys.readouterr().err
    assert not (tmp_path / "margins.json").exists()
