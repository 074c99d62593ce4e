"""Config validation and the metrics/JSON artifacts."""

import copy
import json
import os
import re

import numpy as np
import pytest

from bnlab import io
from bnlab.errors import BnLabError, ConfigError
from bnlab.scenarios import EMA_VS_PRECISE_DEFAULTS, ScenarioRun, build_net
from conftest import ema_stats

TABLE = io.ConfigTable({
    "steps": 100,
    "lr": 0.05,
    "hidden": [64, 64],
    "bessel": False,
    "corruptions": {"none": {"scale": 1.0}},
    "sgd": {"momentum": 0.9, "batch_size": 32},
}, [])


def test_validate_config_merges_defaults():
    cfg = io.validate_config(TABLE, {"steps": 5, "sgd": {"momentum": 0.5,
                                                         "batch_size": 32}})
    assert cfg["steps"] == 5
    assert cfg["lr"] == 0.05
    assert cfg["sgd"] == {"momentum": 0.5, "batch_size": 32}


def test_validate_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        io.validate_config(TABLE, {"stepz": 5})
    # a config that is not a mapping: a JSON list ran the defaults
    for overrides in ([], None, 0):
        with pytest.raises(ConfigError, match="^expected a mapping at top level$"):
            io.validate_config(TABLE, overrides)


def test_validate_config_type_checks():
    with pytest.raises(ConfigError, match="must be a number"):
        io.validate_config(TABLE, {"steps": "many"})
    with pytest.raises(ConfigError, match="must be a boolean"):
        io.validate_config(TABLE, {"bessel": 1})
    with pytest.raises(ConfigError, match="must be a list"):
        io.validate_config(TABLE, {"hidden": 64})
    with pytest.raises(ConfigError, match="mapping"):
        io.validate_config(TABLE, {"sgd": 3})
    # an int default takes an int >= 0; every number is finite (json.load
    # reads NaN and Infinity); a number list's elements follow its rule
    for overrides, match in (
        ({"steps": True}, "steps must be a number"),
        ({"steps": -1}, "steps must be an integer >= 0"),
        ({"steps": 2.5}, "steps must be an integer >= 0"),
        ({"lr": float("nan")}, "lr must be finite"),
        ({"lr": float("inf")}, "lr must be finite"),
        ({"lr": False}, "lr must be a number"),
        ({"hidden": ["a"]}, r"hidden\[0\] must be a number"),
        ({"hidden": [64, -2]}, r"hidden\[1\] must be an integer >= 0"),
        ({"hidden": [64.0]}, r"hidden\[0\] must be an integer >= 0"),
        ({"sgd": {"momentum": float("-inf")}}, "sgd.momentum must be finite"),
        ({"sgd": {"momentum": 0.5, "batch_size": 1.5}},
         "sgd.batch_size must be an integer"),
    ):
        with pytest.raises(ConfigError, match=match):
            io.validate_config(TABLE, overrides)
    cfg = io.validate_config(TABLE, {"steps": 0, "lr": 1, "hidden": [0]})
    assert (cfg["steps"], cfg["lr"], cfg["hidden"]) == (0, 1, [0])


def test_validate_config_corruptions_are_free_form_maps():
    cfg = io.validate_config(
        TABLE, {"corruptions": {"fog": {"scale": 0.2, "shift": 1.0}}})
    assert cfg["corruptions"] == {"fog": {"scale": 0.2, "shift": 1.0}}


def test_validate_config_specs_give_every_key_of_the_first_default():
    table = io.ConfigTable({
        "corruptions": {"none": {"scale": 1.0, "shift": 0.0}},
        "domains": [{"scale": 1.0, "mix": False}, {"scale": 2.0, "mix": True}],
    }, [])
    spec = {"shift": -1, "scale": 0.5}
    cfg = io.validate_config(table, {"corruptions": {"fog": spec},
                                     "domains": [{"mix": True, "scale": 3}]})
    assert cfg["corruptions"] == {"fog": spec}
    assert cfg["domains"] == [{"mix": True, "scale": 3}]
    for overrides, match in (
        ({"corruptions": {"fog": {"scale": 0.5}}},
         "corruptions.fog.shift must be a number"),
        ({"corruptions": {"fog": {"scale": True, "shift": 0}}},
         "corruptions.fog.scale must be a number"),
        ({"corruptions": {"fog": 1.0}}, "corruptions.fog must be a mapping"),
        ({"corruptions": [spec]}, "corruptions must be a mapping"),
        ({"domains": [{"scale": 1.0}]}, r"domains\[0\].mix must be a boolean"),
        ({"domains": [{"scale": 1.0, "mix": True}, {"mix": True}]},
         r"domains\[1\].scale must be a number"),
        ({"domains": [{"scale": float("inf"), "mix": True}]},
         r"domains\[0\].scale must be finite"),
        ({"domains": {"a": {"scale": 1.0, "mix": True}}}, "domains must be a list"),
    ):
        with pytest.raises(ConfigError, match=match):
            io.validate_config(table, overrides)


def test_range_bounds_ends_and_lengths():
    table = io.ConfigTable({
        "m": (0.5, ">= 0", "< 1"),
        "eps": (1.0, "> 0"),
        "hidden": ([64], ">= 1"),
        "width": (128, ">= 1"),
        "specs": ([{"scale": 1.0}], ">= 1"),
        "named": {"a": {"scale": 1.0}},
    }, [])

    def check(key, value):
        io.validate_config(table, {key: value})

    for value in (0, 0.5, 0.999):
        check("m", value)
    for value in (-0.1, 1, 1.5):
        with pytest.raises(ConfigError, match="^m must be >= 0 and < 1$"):
            check("m", value)
    with pytest.raises(ConfigError, match="^eps must be > 0$"):
        check("eps", 0.0)
    check("eps", 1e-300)
    # a list's numbers each meet the bounds; every list and mapping holds
    # at least one entry
    check("hidden", [1, 64])
    check("width", 128)
    with pytest.raises(ConfigError, match=r"^hidden\[1\] must be >= 1$"):
        check("hidden", [64, 0])
    for key, empty in (("hidden", []), ("specs", []), ("named", {})):
        with pytest.raises(ConfigError, match=f"^{key} must be of length >= 1$"):
            check(key, empty)
    # a spec's numbers are not range-checked
    check("specs", [{"scale": -1.0}])


def test_rules_apply_to_tables_that_have_their_keys_and_name_the_breach():
    # a rule tests each entry of its first key, or that key's value
    rules = [(("lo", "hi"), lambda v, cfg: v > cfg["hi"], "{at} must be <= hi ({hi}), got {v}"),
             (("sweep", "hi"), lambda v, cfg: v == cfg["hi"], "{at} must not be {hi}"),
             (("lo", "absent"), lambda v, cfg: True, "never")]
    table = io.ConfigTable({"lo": 1, "hi": 2, "sweep": ([1, 3], "distinct")}, rules)
    assert table.rules == rules[:2]
    assert io.validate_config(table, {"lo": 2}) == {"lo": 2, "hi": 2, "sweep": [1, 3]}
    for overrides, message in (
            ({"lo": 3}, "lo must be <= hi (2), got 3"),
            ({"sweep": [1, 3, 2]}, "sweep[2] must not be 2"),
            ({"sweep": [1, 3, 1]}, "sweep[2] must be distinct from sweep[0] (both run as 1)")):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            io.validate_config(table, overrides)


def test_config_round_trip_fixed_point(tmp_path):
    cfg = io.validate_config(TABLE, {"steps": 7})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    again = io.load_config(str(p), TABLE)
    assert again == cfg
    p.write_text(json.dumps(again))
    assert io.load_config(str(p), TABLE) == again


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        io.load_config(str(tmp_path / "missing.json"), TABLE)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        io.load_config(str(bad), TABLE)


def test_metrics_csv_roundtrip(tmp_path, read_metrics):
    rows = [
        ("run-a", "demo", 10, "val", "ema", "error", 0.125),
        ("run-a", "demo", 20, "val", "ema", "error", 0.1 + 0.2),
    ]
    p = tmp_path / "metrics.csv"
    io.write_metrics_csv(str(p), rows)
    header = p.read_text().splitlines()[0]
    assert header == "run_id,scenario,step,split,stats_mode,metric,value"
    back = read_metrics(str(p))
    assert back == rows  # repr() float serialization round-trips exactly


def test_metrics_csv_write_is_byte_deterministic(tmp_path):
    rows = [("r", "s", 1, "val", "m", "error", 1 / 3)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    io.write_metrics_csv(str(a), rows)
    io.write_metrics_csv(str(b), rows)
    assert a.read_bytes() == b.read_bytes()


# the csv module writes a float as its repr and an int as its str
GOLDEN_METRICS_CSV = """\
run_id,scenario,step,split,stats_mode,metric,value
r,s,0,val,ema,error,-0.0
r,s,1,val,ema,error,5e-324
r,s,2,val,ema,error,2.5e+17
r,s,3,val,ema,error,0.3333333333333333
r,s,9007199254740993,val,ema,error,0.30000000000000004
"""


def test_metrics_csv_bytes(tmp_path):
    values = (-0.0, 5e-324, 2.5e17, 1 / 3)
    rows = [("r", "s", step, "val", "ema", "error", v)
            for step, v in enumerate(values)]
    rows.append(("r", "s", 2**53 + 1, "val", "ema", "error", 0.1 + 0.2))
    p = tmp_path / "metrics.csv"
    io.write_metrics_csv(str(p), rows)
    assert p.read_bytes() == GOLDEN_METRICS_CSV.encode()


def _write_json(path, payload):
    io.write_json(str(path), io.encode_json(str(path), payload))


def test_write_json_full_precision_and_sorted(tmp_path):
    p = tmp_path / "out.json"
    _write_json(p, {"b": 0.1 + 0.2, "a": [1 / 3]})
    text = p.read_text()
    assert "0.30000000000000004" in text
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": [1 / 3], "b": 0.1 + 0.2}


# floats by float.__repr__, np.float64 too; keys sorted; every item after a
# container's first on a line of its own
GOLDEN_JSON = """\
{"layers": [{"count": 8,
"mean": [-0.0,
2.5e+17]},
{"count": 2,
"mean": [1e-07,
-1.5]}],
"seed": 0,
"summary": {"curve": [0.30000000000000004,
0.3333333333333333],
"steps": 300,
"tiny": 5e-324}}
"""


def test_write_json_bytes_of_numpy_floats_and_ints(tmp_path):
    payload = {
        "summary": {"curve": [np.float64(0.1) + np.float64(0.2),
                              np.float64(1 / 3)],
                    "steps": 300, "tiny": np.float64(5e-324)},
        "layers": [{"mean": [np.float64(-0.0), np.float64(2.5e17)], "count": 8},
                   {"mean": [1.0e-7, -1.5], "count": 2}],
        "seed": 0,
    }
    p = tmp_path / "out.json"
    _write_json(p, payload)
    assert p.read_bytes() == GOLDEN_JSON.encode()


def test_one_changed_weight_changes_one_line_of_params_json():
    d = EMA_VS_PRECISE_DEFAULTS
    net = build_net(np.random.default_rng(3), [d["dim"], *d["hidden"], d["classes"]],
                    ema_momentum=d["ema_momentum"])
    run = ScenarioRun("ema_vs_precise")
    run.checkpoint(net, ema_stats(net), source="ema")
    payload = run.params_checkpoint
    changed = copy.deepcopy(payload)
    changed["linear1"]["weight"][100] += 1.0
    before = io.encode_json("params.json", payload).splitlines()
    after = io.encode_json("params.json", changed).splitlines()
    assert len(before) == len(after)
    moved = [(a, b) for a, b in zip(before, after) if a != b]
    assert len(moved) == 1 and repr(changed["linear1"]["weight"][100]) in moved[0][1]
    # no line holds two numbers, so each value has a line of its own
    numbers = [re.findall(r"-?\d+(?:\.\d+)?(?:e[-+]\d+)?", re.sub(r'"[^"]*"', "", line))
               for line in before]
    assert max(map(len, numbers)) == 1
    assert sum(map(len, numbers)) == sum(len(v) for p in payload.values()
                                         for v in p.values()) >= 7000


def test_encode_json_names_the_first_non_finite_key():
    for payload, key in (
        ({"b": [1.0, np.float64("inf")], "a": {"x": float("nan")}}, r"a\.x"),
        ({"bn0": {"mean": [0.5, np.float64("inf"), 1.0], "count": 4}},
         r"bn0\.mean\[1\]"),
        # inside a list of dicts
        ({"layers": [{"mean": [0.0]}, {"mean": [1.0, float("-inf")], "s": "a"}]},
         r"layers\[1\]\.mean\[1\]"),
        ({"curve": (np.float64(2.0), np.float64("nan"))}, r"curve\[1\]"),
    ):
        with pytest.raises(BnLabError, match=rf"^out/s.json: non-finite value "
                                             rf"at {key}; not written$"):
            io.encode_json("out/s.json", payload)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    p = tmp_path / "metrics.csv"
    io.write_metrics_csv(str(p), [])
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    assert leftovers == []

    # nor does a writer that fails midway, which leaves the old file as it was
    def writer(fh):
        fh.write("half a ro")
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        io._atomic_write(str(p), writer)
    assert os.listdir(tmp_path) == ["metrics.csv"]
    assert p.read_text() == ",".join(io.METRICS_HEADER) + "\n"


def test_encode_json_names_a_payload_that_holds_itself():
    payload = {"curve": [1.0]}
    payload["curve"].append(payload)
    with pytest.raises(BnLabError, match=r"^out/s.json: a circular reference; "
                                         r"not written$"):
        io.encode_json("out/s.json", payload)
    # a NaN before the cycle in file order is still the one named
    payload["a"] = float("nan")
    with pytest.raises(BnLabError, match=r"^out/s.json: non-finite value at a; "
                                         r"not written$"):
        io.encode_json("out/s.json", payload)

