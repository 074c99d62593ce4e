"""The output check behind ``failed_frac``.

A run passes when ``bnlab run`` exited 0 and its output directory holds all
four artifacts; ``metrics.csv`` has exactly the recorded set of
``(run_id, split, stats_mode, metric)`` keys (``expected_keys.json``, with
the run's seed written as ``{seed}``), every value is finite and every
``error`` lies in [0, 1]; and the JSON artifacts parse.  Values are not
pinned: a vectorized reduction may round differently.  Byte-determinism is
checked by the caller, by comparing :func:`check_outputs` digests of
repeat runs of one seed.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

ARTIFACTS = ("metrics.csv", "summary.json", "stats.json", "params.json")
METRICS_HEADER = ["run_id", "scenario", "step", "split", "stats_mode",
                  "metric", "value"]
EXPECTED_KEYS = Path(__file__).with_name("expected_keys.json")


def load_expected_keys():
    """scenario -> set of (run_id template, split, stats_mode, metric)."""
    with open(EXPECTED_KEYS) as fh:
        return {scenario: {tuple(key) for key in keys}
                for scenario, keys in json.load(fh).items()}


def key_template(run_id, seed):
    suffix = f"-s{seed}"
    if not run_id.endswith(suffix):
        return run_id
    return run_id[: -len(suffix)] + "-s{seed}"


def check_outputs(out_dir, scenario, seed, expected_keys):
    """(list of problems, sha256 of metrics.csv or None)."""
    out_dir = Path(out_dir)
    missing = [name for name in ARTIFACTS if not (out_dir / name).is_file()]
    if missing:
        return [f"missing artifacts {missing}"], None
    errors = []
    raw = (out_dir / "metrics.csv").read_bytes()
    rows = list(csv.reader(raw.decode().splitlines()))
    if not rows or rows[0] != METRICS_HEADER:
        return [f"metrics.csv header is {rows[:1]}"], None
    keys = set()
    for row in rows[1:]:
        if len(row) != len(METRICS_HEADER):
            errors.append(f"metrics.csv row {row} has {len(row)} fields")
            continue
        run_id, row_scenario, _, split, stats_mode, metric, value = row
        keys.add((key_template(run_id, seed), split, stats_mode, metric))
        if row_scenario != scenario:
            errors.append(f"row {row} names scenario {row_scenario}")
        try:
            v = float(value)
        except ValueError:
            errors.append(f"row {row} value is not a number")
            continue
        if not math.isfinite(v):
            errors.append(f"row {row} value is not finite")
        elif metric == "error" and not 0.0 <= v <= 1.0:
            errors.append(f"row {row} error outside [0, 1]")
    want = expected_keys[scenario]
    if keys != want:
        errors.append(f"metrics.csv keys differ from the recorded set: "
                      f"missing {sorted(want - keys)}, "
                      f"unexpected {sorted(keys - want)}")
    for name in ARTIFACTS[1:]:
        try:
            payload = json.loads((out_dir / name).read_text())
        except json.JSONDecodeError as exc:
            errors.append(f"{name} is not JSON: {exc}")
            continue
        if name == "summary.json" and (payload.get("scenario"),
                                       payload.get("seed")) != (scenario, seed):
            errors.append(f"summary.json names {payload.get('scenario')} "
                          f"seed {payload.get('seed')}")
    return errors, hashlib.sha256(raw).hexdigest()
