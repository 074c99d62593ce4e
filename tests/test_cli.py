"""The command-line interface: run, estimate, check-grad."""

import json

import numpy as np
import pytest

from bnlab import io
from bnlab.cli import main
from bnlab.layer import BnLayer
from bnlab.stats import BatchMomentLog
from bnlab.tensor import ChannelStats, channel_moments

TINY_DOMAIN_ADAPT = {
    "train_size": 256, "val_size": 128, "adapt_size": 128,
    "hidden": [16], "steps": 20, "precise_n": 128,
}


@pytest.fixture
def tiny_config(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(TINY_DOMAIN_ADAPT))
    return str(p)


def test_run_writes_artifacts(tmp_path, tiny_config, capsys):
    out = tmp_path / "out"
    code = main(["run", "domain_adapt", "--config", tiny_config,
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    for name in ("metrics.csv", "summary.json", "stats.json", "params.json"):
        assert (out / name).exists(), name
    rows = io.read_metrics_csv(str(out / "metrics.csv"))
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


def test_run_rejects_invalid_json(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{oops")
    code = main(["run", "domain_adapt", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def _write_moments_csv(path, batches):
    log = BatchMomentLog()
    for b in batches:
        log.append(channel_moments(b))
    path.write_text(log.to_csv())
    return log


def test_estimate_precise_matches_concat_oracle(tmp_path, capsys):
    # 64 standard-normal scalars as k=16 batches of B=4, seed 11
    rng = np.random.default_rng(11)
    x = rng.standard_normal(64)
    batches = [x[i : i + 4].reshape(4, 1, 1, 1) for i in range(0, 64, 4)]
    p = tmp_path / "moments.csv"
    _write_moments_csv(p, batches)
    code = main(["estimate", "--input", str(p), "--method", "precise"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    oracle = channel_moments(x.reshape(64, 1, 1, 1))
    assert abs(payload["mean"][0] - oracle.mean[0]) <= 1e-12
    assert abs(payload["var"][0] - oracle.var[0]) <= 1e-12
    assert payload["bessel"] is False


def test_estimate_naive_vs_precise_bessel_factor(tmp_path, capsys):
    rng = np.random.default_rng(0)
    p = tmp_path / "moments.csv"
    _write_moments_csv(p, [rng.standard_normal((2, 1, 1, 1))])
    results = {}
    for method in ("precise", "naive"):
        assert main(["estimate", "--input", str(p), "--method", method]) == 0
        results[method] = json.loads(capsys.readouterr().out)
    # B=2: naive applies B/(B-1) = 2 to the biased single-entry variance
    assert results["naive"]["var"][0] == pytest.approx(
        2.0 * results["precise"]["var"][0])


def test_estimate_ema_folds_entries(tmp_path, capsys):
    p = tmp_path / "moments.csv"
    log = _write_moments_csv(
        p, [np.full((4, 1, 1, 1), 2.0), np.full((4, 1, 1, 1), 4.0)])
    assert main(["estimate", "--input", str(p), "--method", "ema",
                 "--momentum", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # start (0, 1); mean: 0 -> 1.0 -> 2.5; var: 1 -> 0.5 -> 0.25
    assert payload["mean"][0] == pytest.approx(2.5)
    assert payload["var"][0] == pytest.approx(0.25)
    assert payload["momentum"] == 0.5
    assert len(log.entries) == 2


def test_estimate_malformed_csv_is_config_error(tmp_path, capsys):
    p = tmp_path / "moments.csv"
    p.write_text("not,the,right,header\n")
    assert main(["estimate", "--input", str(p), "--method", "naive"]) == 2
    assert main(["estimate", "--input", str(tmp_path / "missing.csv"),
                 "--method", "naive"]) == 2


def test_check_grad_reports_every_layer_type_once(capsys):
    assert main(["check-grad"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    names = [l.split()[0] for l in lines]
    assert sorted(names) == sorted([
        "linear", "affine", "relu", "bn_train", "bn_frozen", "bn_virtual",
        "network_train", "network_frozen", "bn_train_grouped",
        "linear_grouped", "affine_grouped", "meanpool", "meanpool_grouped",
    ])
    assert all("ok" in l for l in lines)


def test_check_grad_catches_sign_flip(monkeypatch, capsys):
    orig = BnLayer.backward

    def flipped(self, cache, dy):
        return -orig(self, cache, dy)

    monkeypatch.setattr(BnLayer, "backward", flipped)
    assert main(["check-grad"]) == 1
    assert "FAIL" in capsys.readouterr().out
