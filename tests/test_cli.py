"""The command-line interface: run, estimate, check-grad."""

import contextlib
import csv
import io
import json
import os
import re
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed
from hypothesis import strategies as st

from bnlab.cli import main
from bnlab.layer import BnLayer
from bnlab.net import Affine, Linear, MeanPool, Relu
from bnlab.scenarios import SCENARIOS, ScenarioRun
from bnlab.tensor import channel_moments
from conftest import assert_no_child_left, drawn

# the README's smoke-size example
QUICK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "domain_adapt_quick.json"


@pytest.fixture
def tiny_config():
    return str(QUICK_CONFIG)


def test_run_writes_artifacts(tmp_path, tiny_config, capsys, read_metrics):
    out = tmp_path / "out"
    code = main(["run", "domain_adapt", "--config", tiny_config,
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    for name in ("metrics.csv", "summary.json", "stats.json", "params.json"):
        assert (out / name).exists(), name
    rows = read_metrics(str(out / "metrics.csv"))
    assert rows and all(r[1] == "domain_adapt" for r in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "domain_adapt"
    assert summary["seed"] == 1
    assert summary["config"]["steps"] == 20
    assert "wrote" in capsys.readouterr().out


def test_run_twice_is_byte_identical(tmp_path, tiny_config):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["run", "domain_adapt", "--config", tiny_config,
                     "--seed", "2", "--out", str(out)]) == 0
    assert (outs[0] / "metrics.csv").read_bytes() == \
        (outs[1] / "metrics.csv").read_bytes()


def test_run_unknown_scenario_names_valid_ones(tmp_path, capsys):
    code = main(["run", "nosuch", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    for name in ("ema_vs_precise", "nbs_sweep", "leakage", "domain_adapt",
                 "shared_head", "frozen_finetune"):
        assert name in err


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"stepz": 5}))
    code = main(["run", "domain_adapt", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "stepz" in capsys.readouterr().err


def test_shared_head_rejects_the_removed_pop_batches_key(tmp_path, capsys):
    # no pass ever read it: shared_head's population statistics are the
    # moments of all val_per_domain population rows of each domain
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({"pop_batches": 32}))
    code = main(["run", "shared_head", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "pop_batches" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("data, message", [
    (b"{oops", "is not valid JSON"),
    # not UTF-8 text
    (b"\xff\xfe", "cannot read config"),
    # JSON that is not an object: a list, null or 0 ran the defaults
    (b"[]", "expected a mapping at top level"),
    (b"null", "expected a mapping at top level"),
])
def test_run_rejects_unreadable_config(tmp_path, capsys, data, message):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(data)
    code = main(["run", "domain_adapt", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


BAD_NUMBERS = [
    ("domain_adapt", '{"steps": -1}', "steps"),
    ("domain_adapt", '{"steps": 2.5}', "steps"),
    ("domain_adapt", '{"steps": true}', "steps"),
    ("domain_adapt", '{"hidden": ["a"]}', "hidden[0]"),
    ("domain_adapt", '{"lr": NaN}', "lr"),
    # well-typed values out of the scenario's range
    ("domain_adapt", '{"batch_size": 0}', "batch_size"),
    ("ema_vs_precise", '{"eval_every": 0}', "eval_every"),
    ("shared_head", '{"domain_batch": 0}', "domain_batch"),
    ("nbs_sweep", '{"nbs_list": [3]}', "nbs_list[0]"),
    ("nbs_sweep", '{"nbs_list": [2, 0]}', "nbs_list[1]"),
    ("shared_head", '{"eps": 0}', "eps"),
    # each key's range, beside its default in its scenario's table: values
    # that crashed, failed mid-run or measured nothing
    ("ema_vs_precise", '{"val_size": 0}', "val_size"),
    ("ema_vs_precise", '{"train_size": 0}', "train_size"),
    ("ema_vs_precise", '{"classes": 0}', "classes"),
    ("ema_vs_precise", '{"dim": 0}', "dim"),
    ("nbs_sweep", '{"sites": 0}', "sites"),
    ("nbs_sweep", '{"channels": 0}', "channels"),
    ("nbs_sweep", '{"train_eval_size": 0}', "train_eval_size"),
    ("shared_head", '{"val_per_domain": 0}', "val_per_domain"),
    ("shared_head", '{"classes": 0}', "classes"),
    ("shared_head", '{"hidden": 0}', "hidden"),
    ("shared_head", '{"domains": []}', "domains"),
    ("leakage", '{"eval_window": 0}', "eval_window"),
    ("leakage", '{"train_clusters": 0}', "train_clusters"),
    ("leakage", '{"val_clusters": 0}', "val_clusters"),
    ("ema_vs_precise", '{"precise_n": 0}', "precise_n"),
    ("ema_vs_precise", '{"subset_sizes": [0]}', "subset_sizes[0]"),
    # two one-row subsets: the stats gap was 0/0, found after training
    ("ema_vs_precise", '{"steps": 3, "subset_sizes": [1]}', "subset_sizes[0]"),
    ("ema_vs_precise", '{"precise_b_sweep": [0]}', "precise_b_sweep[0]"),
    ("domain_adapt", '{"adapt_size": 0}', "adapt_size"),
    ("ema_vs_precise", '{"ema_momentum": 1.5}', "ema_momentum"),
    ("domain_adapt", '{"sgd_momentum": 1.0}', "sgd_momentum"),
    ("domain_adapt", '{"lr": -1}', "lr"),
    ("ema_vs_precise", '{"hidden": []}', "hidden"),
    ("frozen_finetune", '{"nbs": 0}', "nbs"),
    # frozen_finetune's ghost cohorts: nbs divides batch_size (32); 64 ran
    # one 32-row cohort and estimated the statistics at B = 64
    ("frozen_finetune", '{"nbs": 64}', "nbs"),
    ("frozen_finetune", '{"nbs": 5}', "nbs"),
    ("leakage", '{"copies_per_group": 0}', "copies_per_group"),
    ("leakage", '{"groups_per_batch": 0}', "groups_per_batch"),
    ("shared_head", '{"policies": [["shared", "bogus", "shared"]]}',
     "policies[0]"),
    ("shared_head", '{"policies": [["shared", "shared"]]}', "policies[0]"),
    ("frozen_finetune", '{"freeze_fraction": 2.0}', "freeze_fraction"),
    ("frozen_finetune", '{"freeze_fraction": -0.5}', "freeze_fraction"),
    ("nbs_sweep", '{"nbs_list": []}', "nbs_list"),
    ("shared_head", '{"policies": []}', "policies"),
    ("domain_adapt", '{"corruptions": {}}', "corruptions"),
    # cross-key sizes: each cut of the training rows fits in them.  These
    # trained, then failed (or, for precise_n, echoed rows never used)
    ("nbs_sweep", '{"train_size": 1000}', "train_eval_size"),
    ("ema_vs_precise", '{"train_size": 512}', "precise_n"),
    ("ema_vs_precise", '{"train_size": 2048}', "subset_sizes[2]"),
    ("nbs_sweep", '{"precise_n": 99999}', "precise_n"),
    ("leakage", '{"precise_n": 99999}', "precise_n"),
    ("leakage", '{"train_clusters": 8}', "groups_per_batch"),
    # every corruption and domain spec gives scale, shift and noise as
    # numbers, and a domain mix as a boolean
    ("domain_adapt", '{"corruptions": {"x": {"scale": 1.0}}}',
     "corruptions.x.shift"),
    ("domain_adapt",
     '{"corruptions": {"x": {"scale": 1.0, "shift": "up", "noise": 0}}}',
     "corruptions.x.shift"),
    ("domain_adapt", '{"corruptions": {"x": 3}}', "corruptions.x"),
    ("shared_head", '{"domains": [{"scale": 1.0}]}', "domains[0].shift"),
    ("shared_head",
     '{"domains": [{"scale": 1.0, "shift": 0, "noise": 0, "mix": 1}]}',
     "domains[0].mix"),
    ("shared_head",
     '{"domains": [{"scale": 1.0, "shift": 0, "noise": NaN, "mix": true}]}',
     "domains[0].noise"),
    # a spec's noise is a standard deviation, as the top-level noise is; a
    # negative one ran as no noise
    ("domain_adapt",
     '{"corruptions": {"neg": {"scale": 1.0, "shift": 0.0, "noise": -0.5}}}',
     "corruptions.neg.noise"),
    ("shared_head",
     '{"domains": [{"scale": 1.0, "shift": 0, "noise": -1.0, "mix": true}]}',
     "domains[0].noise"),
    # a repeated sweep entry trained or measured its arm twice and wrote
    # its metrics.csv keys twice; precise_b_sweep entries run capped at
    # precise_n (1024), so 1024 and 4096 are one entry
    ("nbs_sweep", '{"nbs_list": [2, 2]}', "nbs_list[1]"),
    ("nbs_sweep", '{"nbs_list": [2, 8, 2]}', "nbs_list[2]"),
    ("ema_vs_precise", '{"subset_sizes": [32, 32]}', "subset_sizes[1]"),
    ("ema_vs_precise", '{"precise_b_sweep": [8, 8]}', "precise_b_sweep[1]"),
    ("ema_vs_precise", '{"precise_b_sweep": [1024, 4096]}',
     "precise_b_sweep[1]"),
    # the default sweep [2, 8, 32, 1024] under a small precise_n: its
    # message names the cap, since the config gives no sweep
    ("ema_vs_precise", '{"precise_n": 16}', "precise_b_sweep[3]"),
]


@pytest.mark.parametrize("scenario,text,key", BAD_NUMBERS,
                         ids=[f"{text}-{key}" for _, text, key in BAD_NUMBERS])
def test_run_rejects_bad_numbers_before_any_work(tmp_path, capsys, monkeypatch,
                                                 scenario, text, key):
    def never(cfg, seed):
        raise AssertionError("the scenario ran")

    monkeypatch.setitem(SCENARIOS, scenario, (never, SCENARIOS[scenario][1]))
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    out = tmp_path / "o"
    code = main(["run", scenario, "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["run", "nbs_sweep"], ["check-grad"]],
                         ids=["run", "check-grad"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # numpy's generators take only seeds >= 0; a negative one crashed in
    # the first draw with a traceback and exit 1
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert [l for l in err.splitlines() if "error" in l] == [
        "bnlab: error: argument --seed: must be >= 0, got -1"]
    assert list(tmp_path.iterdir()) == []


def test_run_diverged_is_runtime_error_and_writes_nothing(tmp_path, capsys):
    # the loss stays finite, but would overflow the BN statistics by step 50
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps({"lr": 1e6, "steps": 50}))
    out = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", "domain_adapt", "--config", str(cfg),
                     "--seed", "0", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "training diverged at step 2: loss" in err
    assert not out.exists()


@pytest.mark.parametrize("scenario, overrides", [
    # finite throughout: parameters near 2e66 and chance-level error by
    # step 50 when the run went on
    ("domain_adapt", {"lr": 1e3, "steps": 50}),
    # SharedHeadNet's own training loop at the six default policies: the
    # (per_domain, shared) pair diverges in a worker
    ("shared_head", {"lr": 1e3, "steps": 20}),
    # one process per arm on two cores: nbs 8's runs in a worker
    ("nbs_sweep", {"lr": 1e3, "steps": 20, "nbs_list": [2, 8]}),
    ("leakage", {"lr": 1e3, "steps": 20}),
])
def test_run_finite_divergence_exits_1_naming_the_step(tmp_path, capsys,
                                                       monkeypatch, scenario,
                                                       overrides):
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps(overrides))
    lines = []
    # the error line is the same whether fan_out forks or runs serially
    for cores in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
        out = tmp_path / f"o{len(cores)}"
        code = main(["run", scenario, "--config", str(cfg), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: training diverged at step 2: loss " in err
        assert "is not <= 1000" in err
        assert not out.exists()
        assert_no_child_left()
        lines.append(err.splitlines()[0])
    assert lines[0] == lines[1]


@pytest.mark.parametrize("scenario, overrides, named", [
    # the first arm in item order, which fan_out reports
    ("nbs_sweep", {"nbs_list": [8, 2]}, "nbs=8"),
    ("leakage", {}, "variant=crafted"),
    ("frozen_finetune", {}, "before the freeze"),
    # no steps before the freeze: the unfrozen control diverges first
    ("frozen_finetune", {"freeze_fraction": 0}, "unfrozen control"),
])
def test_run_divergence_names_the_training(tmp_path, capsys, scenario, overrides,
                                           named):
    # the scenarios that train several nets say which one diverged
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps({"lr": 1e6, "steps": 20, **overrides}))
    out = tmp_path / "o"
    assert main(["run", scenario, "--config", str(cfg), "--out", str(out)]) == 1
    line = capsys.readouterr().err.splitlines()[0]
    assert re.fullmatch(r"error: training diverged at step 2: loss \S+ is not "
                        rf"<= 1000 \({named}\)", line), line
    assert not out.exists()
    assert_no_child_left()


def test_run_artifacts_take_the_mode_of_the_umask(tmp_path, tiny_config):
    # as a plain open would give them; mkstemp's files are 0600
    for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
        old = os.umask(umask)
        try:
            out = tmp_path / f"u{umask:o}"
            assert main(["run", "domain_adapt", "--config", tiny_config,
                         "--out", str(out)]) == 0
        finally:
            os.umask(old)
        for name in ("metrics.csv", "summary.json", "stats.json", "params.json"):
            assert (out / name).stat().st_mode & 0o777 == mode, name


ZERO_VARIANCE = [
    {"noise": 0, "separation": 0},
    {"noise": 0, "classes": 1},
    # passes any config rule: moment matching cancels a 1e-18 variance to 0
    {"noise": 1e-9, "separation": 0},
]


@pytest.mark.parametrize("overrides", ZERO_VARIANCE,
                         ids=["-".join(f"{k}{v}" for k, v in o.items())
                              for o in ZERO_VARIANCE])
def test_zero_variance_data_is_a_runtime_error(tmp_path, capsys, overrides):
    # the two subsets' estimates both had zero variance: the subset stats
    # gap divided 0 by 0 with numpy's warnings, then summary.json held NaN
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({"train_size": 256, "val_size": 128, "hidden": [16],
                               "steps": 3, "precise_n": 128,
                               "subset_sizes": [32, 128], **overrides}))
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "ema_vs_precise", "--config", str(cfg),
                     "--out", str(out)])
    assert code == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        "error: subset_stats_gap at subset size 32: both estimates of bn0 have "
        "zero variance in channel 0; their relative distance is 0/0"]
    assert not out.exists()


def test_run_with_non_finite_json_writes_nothing(monkeypatch, tmp_path, capsys):
    # a finite run whose statistics checkpoint holds NaN
    def nan_stats(cfg, seed):
        run = ScenarioRun("domain_adapt", rows=[("r", "domain_adapt", 1, "val",
                                                 "ema", "error", 0.5)])
        run.stats_checkpoint = {"bn0": {"count": 8, "mean": [0.0, np.nan]}}
        return run

    monkeypatch.setitem(SCENARIOS, "domain_adapt",
                        (nan_stats, SCENARIOS["domain_adapt"][1]))
    out = tmp_path / "o"
    assert main(["run", "domain_adapt", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{out}/stats.json: non-finite value at bn0.mean[1]; not written" in err
    assert not out.exists()


def _write_moments_csv(path, batches, moments_csv):
    log = [channel_moments(b) for b in batches]
    path.write_text(moments_csv(log))
    return log


def test_estimate_precise_matches_concat_oracle(tmp_path, capsys, moments_csv):
    # 64 standard-normal scalars as k=16 batches of B=4, seed 11
    rng = np.random.default_rng(11)
    x = rng.standard_normal(64)
    batches = [x[i : i + 4].reshape(4, 1, 1, 1) for i in range(0, 64, 4)]
    p = tmp_path / "moments.csv"
    _write_moments_csv(p, batches, moments_csv)
    code = main(["estimate", "--input", str(p), "--method", "precise"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    oracle = channel_moments(x.reshape(64, 1, 1, 1))
    assert abs(payload["mean"][0] - oracle.mean[0]) <= 1e-12
    assert abs(payload["var"][0] - oracle.var[0]) <= 1e-12
    assert payload["bessel"] is False


def test_estimate_naive_vs_precise_bessel_factor(tmp_path, capsys, moments_csv):
    rng = np.random.default_rng(0)
    p = tmp_path / "moments.csv"
    _write_moments_csv(p, [rng.standard_normal((2, 1, 1, 1))], moments_csv)
    results = {}
    for method in ("precise", "naive"):
        assert main(["estimate", "--input", str(p), "--method", method]) == 0
        results[method] = json.loads(capsys.readouterr().out)
    # B=2: naive applies B/(B-1) = 2 to the biased single-entry variance
    assert results["naive"]["var"][0] == pytest.approx(
        2.0 * results["precise"]["var"][0])


def test_estimate_ema_folds_entries(tmp_path, capsys, moments_csv):
    p = tmp_path / "moments.csv"
    log = _write_moments_csv(
        p, [np.full((4, 1, 1, 1), 2.0), np.full((4, 1, 1, 1), 4.0)], moments_csv)
    assert main(["estimate", "--input", str(p), "--method", "ema",
                 "--momentum", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # start (0, 1); mean: 0 -> 1.0 -> 2.5; var: 1 -> 0.5 -> 0.25
    assert payload["mean"][0] == pytest.approx(2.5)
    assert payload["var"][0] == pytest.approx(0.25)
    assert payload["momentum"] == 0.5
    assert len(log) == 2


@pytest.mark.parametrize("momentum", ["2", "-0.1", "nan"])
def test_estimate_ema_momentum_outside_unit_interval_is_config_error(
        tmp_path, capsys, momentum):
    # the input does not exist: the flag is rejected before it is read
    code = main(["estimate", "--input", str(tmp_path / "missing.csv"),
                 "--method", "ema", "--momentum", momentum])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: momentum must be in [0, 1], got {float(momentum)}" in err


def test_estimate_malformed_csv_is_config_error(tmp_path, capsys):
    p = tmp_path / "moments.csv"
    p.write_text("not,the,right,header\n")
    assert main(["estimate", "--input", str(p), "--method", "naive"]) == 2
    assert main(["estimate", "--input", str(tmp_path / "missing.csv"),
                 "--method", "naive"]) == 2
    capsys.readouterr()
    # a file that is not UTF-8 text
    p.write_bytes(b"\xff\xfe")
    assert main(["estimate", "--input", str(p), "--method", "precise"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot read {p}: ")
    assert "Traceback" not in err


def test_estimate_rejects_non_finite_and_empty_rows(tmp_path, capsys):
    p = tmp_path / "moments.csv"
    for row in ("0,0,nan,1.0,4", "0,0,0.0,1.0,0"):
        p.write_text(f"batch_index,channel,mean,var,count\n{row}\n")
        assert main(["estimate", "--input", str(p), "--method", "precise"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "bad row" in err
    # finite rows whose pooled second moment overflows: a runtime error
    p.write_text("batch_index,channel,mean,var,count\n0,0,1e200,1.0,4\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings too
        assert main(["estimate", "--input", str(p), "--method", "precise"]) == 1
    assert capsys.readouterr() == ("", "error: estimate is not finite\n")


def test_estimate_rejects_rows_of_the_wrong_width(tmp_path, capsys):
    p = tmp_path / "moments.csv"
    for row in ("0,0,1.0,2.0", "0,0,1.0,2.0,4,junk"):
        p.write_text(f"batch_index,channel,mean,var,count\n{row}\n")
        assert main(["estimate", "--input", str(p), "--method", "precise"]) == 2
        out, err = capsys.readouterr()
        fields = row.split(",")
        assert (out, err) == ("", f"error: bad row {fields!r}\n")


def test_estimate_rejects_repeated_and_inconsistent_rows(tmp_path, capsys):
    p = tmp_path / "moments.csv"
    for rows, message in (("0,0,1.0,1.0,4\n0,1,2.0,1.0,4\n0,0,5.0,1.0,4",
                           "repeats channel 0"),
                          ("0,0,1.0,1.0,4\n0,1,2.0,1.0,8",
                           "different counts"),
                          # batches that disagree on the channel count
                          ("0,0,1.0,1.0,4\n0,1,2.0,1.0,4\n1,0,5.0,1.0,4",
                           "batch 1 has 1 channels, not 2 as the first batch")):
        p.write_text(f"batch_index,channel,mean,var,count\n{rows}\n")
        assert main(["estimate", "--input", str(p), "--method", "precise"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err and "Traceback" not in err


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    # moments whose squares or sums overflow
    st.sampled_from([1e200, -1e200, 1.7976931348623157e308, 5e-324, -0.0]),
)
# per file: moments of any size, or of one whose pooled sums stay finite
_MOMENTS = st.sampled_from([_FLOATS, st.floats(-1e6, 1e6)])
# per file: small counts or 2**40 (naive aggregation's unequal counts),
# counts whose sum passes 2**53, 2**63 or 2**64, or any count up to 2**64
_COUNTS = st.sampled_from([st.sampled_from([1, 2, 4, 7, 2**40]),
                           st.sampled_from([2**52, 2**53, 2**62, 2**63, 2**64]),
                           st.integers(1, 2**64)])
_JUNK = st.sampled_from(["", "x", "1e", "nan", "-inf", "-1", "0", "1.5",
                         '"1"', " 1", str(10**30)])


@st.composite
def _moment_files(draw):
    """A moments CSV of 1-8 batches of 1-3 channels, some of its fields
    replaced by junk and some rows dropped or repeated; or random bytes."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=64))
    channels, floats, counts = draw(st.integers(1, 3)), draw(_MOMENTS), draw(_COUNTS)
    rows = []
    for b in range(draw(st.integers(1, 8))):
        count = draw(counts)
        rows += [[b, c, repr(draw(floats)), repr(abs(draw(floats))), count]
                 for c in range(channels)]
    for _ in range(min(len(rows), draw(st.sampled_from([0, 0, 0, 1, 2])))):
        row = draw(st.sampled_from(rows))
        damage = draw(st.sampled_from(["junk", "drop", "repeat", "short"]))
        if damage == "junk":
            row[draw(st.integers(0, 4))] = draw(_JUNK)
        elif damage == "drop":
            rows.remove(row)
        elif damage == "repeat":
            rows.append(list(row))
        else:
            row.pop()
    header = draw(st.sampled_from(["batch_index,channel,mean,var,count"] * 7
                                  + ["batch_index,channel,mean,var"]))
    return "\n".join([header, *(",".join(map(str, r)) for r in rows)]).encode()


def _assert_pooled_means(data, means):
    """``means`` are the count-weighted means of the moments file ``data``,
    pooled exactly, to a relative error of 1e-9 of the pooled magnitude
    sum(count * |mean|) / sum(count), or to 1e-300 where that underflows."""
    sums, magnitudes, total = {}, {}, {}
    for row in list(csv.reader(io.StringIO(data.decode())))[1:]:
        if not row:
            continue
        channel, count = int(row[1]), int(row[4])
        mean = Fraction(float(row[2]))
        sums[channel] = sums.get(channel, 0) + count * mean
        magnitudes[channel] = magnitudes.get(channel, 0) + count * abs(mean)
        total[channel] = total.get(channel, 0) + count
    assert len(means) == len(sums)
    for c, got in enumerate(means):
        exact, scale = sums[c] / total[c], magnitudes[c] / total[c]
        close = abs(Fraction(got) - exact) <= scale / 10**9 + Fraction(1e-300)
        assert close, f"channel {c}: mean {got}, exact {float(exact)}"


# each method fuzzed on its own, so that each sees the whole range of files
@pytest.mark.parametrize("method", ["ema", "precise", "naive"])
@seed(3)
@drawn(50)
@given(data=_moment_files())
# two counts of 2**62, whose int64 sum wrapped: precise printed mean -1.5
@example(data=b"batch_index,channel,mean,var,count\n0,0,1.0,0.5,4611686018427387904\n"
              b"1,0,2.0,0.5,4611686018427387904")
def test_estimate_fuzzed_input_exits_0_or_reports_one_error(method, data):
    # every outcome: 0 with finite JSON; 2 for a malformed file; 1 for an
    # estimate that overflows or that naive aggregation cannot make
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "moments.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            code = main(["estimate", "--input", path, "--method", method])
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        payload = json.loads(out, parse_constant=pytest.fail)
        assert len(payload["mean"]) == len(payload["var"]) >= 1
        if method == "precise":
            _assert_pooled_means(data, payload["mean"])
        return
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert code == 2 or err == "error: estimate is not finite\n" or (
        method == "naive" and err.startswith("error: naive aggregation needs "))


def test_check_grad_reports_every_layer_type_once(capsys):
    assert main(["check-grad"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    names = [l.split()[0] for l in lines]
    assert sorted(names) == sorted([
        "linear", "affine", "relu", "bn_train", "bn_frozen",
        "network_train", "network_frozen", "network_ghost",
        "network_ghost_affine_rows", "bn_train_grouped", "meanpool",
        "shared_head_shared", "shared_head_per_domain",
    ])
    assert all("ok" in l for l in lines)


@pytest.mark.parametrize("layer_type", [Linear, Affine, Relu, MeanPool, BnLayer])
def test_check_grad_catches_sign_flip(monkeypatch, capsys, layer_type):
    orig = layer_type.backward

    def flipped(self, cache, dy, **kwargs):
        # a first Linear in training may skip its input gradient (None)
        dx, grads = orig(self, cache, dy, **kwargs)
        return None if dx is None else -dx, grads

    monkeypatch.setattr(layer_type, "backward", flipped)
    assert main(["check-grad"]) == 1
    assert "FAIL" in capsys.readouterr().out
