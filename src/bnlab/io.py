"""Config loading/validation and deterministic on-disk artifacts.

Runs write three artifacts into the output directory: ``metrics.csv`` (long
format, one metric observation per row), ``summary.json``, and the
``stats.json`` / ``params.json`` checkpoints.  All writes are atomic
(temp file + rename) and byte-deterministic for a fixed seed: floats are
serialized with ``repr`` so the shortest round-trippable decimal is used.
Each JSON payload is encoded once, by ``encode_json``, one value per line so
that a line diff of two runs names each value that moved; JSON has no NaN
or infinity, so a payload holding one is refused.
"""

import csv
import json
import math
import operator
import os
import tempfile

from .errors import BnLabError, ConfigError

__all__ = [
    "load_config",
    "validate_config",
    "ConfigTable",
    "write_metrics_csv",
    "encode_json",
    "write_json",
    "METRICS_HEADER",
]

METRICS_HEADER = ["run_id", "scenario", "step", "split", "stats_mode",
                  "metric", "value"]


def _entries(key, value):
    """(key path, entry) of each entry of a list or of a mapping of names;
    of anything else, the value itself."""
    if isinstance(value, dict):
        return [(f"{key}.{name}", v) for name, v in value.items()]
    if isinstance(value, list):
        return [(f"{key}[{i}]", v) for i, v in enumerate(value)]
    return [(key, value)]


class ConfigTable(dict):
    """A scenario's config defaults, from ``keys``: each key's default and
    range, ``(default, *bounds)``, or a bare default.  Of ``rules``, the
    cross-key rows of ``validate_config``, it keeps those whose keys it has."""

    def __init__(self, keys, rules):
        keys = {k: e if isinstance(e, tuple) else (e,) for k, e in keys.items()}
        super().__init__((k, e[0]) for k, e in keys.items())
        self.bounds = {k: e[1:] for k, e in keys.items()}
        self.rules = [rule for rule in rules if set(rule[0]) <= set(keys)]


_OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def _check(default, value, key, bounds=()):
    """Raise ConfigError naming ``key`` unless ``value`` takes the type of
    ``default`` and meets ``bounds``: a finite number (json.load reads NaN),
    an int >= 0 for an int default; a non-empty list or mapping of names
    whose entries each take the first default entry's type and the bounds
    (``"distinct"``: no entry twice); or a spec, a mapping of other values,
    with each key of the default (any further key is the user's own)."""
    if isinstance(default, bool) and not isinstance(value, bool):
        raise ConfigError(f"{key} must be a boolean")
    if type(default) in (int, float):
        if type(value) not in (int, float):
            raise ConfigError(f"{key} must be a number")
        if type(value) is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite")
        if type(default) is int and not (type(value) is int and value >= 0):
            raise ConfigError(f"{key} must be an integer >= 0")
        if not all(_OPS[op](value, float(b)) for op, b in map(str.split, bounds)):
            raise ConfigError(f"{key} must be {' and '.join(bounds)}")
    if not isinstance(default, (list, dict)):
        return
    if not isinstance(value, type(default)):
        kind = "list" if isinstance(default, list) else "mapping"
        raise ConfigError(f"{key} must be a {kind}")
    if isinstance(default, dict) and not all(
            isinstance(v, dict) for v in default.values()):  # a spec
        for k, d in default.items():  # a key it leaves out is None: refused
            _check(d, value.get(k), f"{key}.{k}")
        return
    if not value:
        raise ConfigError(f"{key} must be of length >= 1")
    first = _entries(key, default)[0][1]
    for i, (at, v) in enumerate(_entries(key, value)):
        _check(first, v, at, [b for b in bounds if b != "distinct"])
        if "distinct" in bounds and v in value[:i]:
            raise ConfigError(f"{at} must be distinct from {key}[{value.index(v)}] "
                              f"(both run as {v})")


def validate_config(table, overrides):
    """Merge user overrides onto a scenario's ConfigTable in one walk: each
    value's type and range, then each rule ``(keys, broken, message)`` on
    every entry ``v`` of its first key.  The first value that fails raises
    ConfigError, with ``message`` given its key path ``at``, ``v`` and cfg."""
    if not isinstance(overrides, dict):
        raise ConfigError("expected a mapping at top level")
    unknown = sorted(set(overrides) - set(table))
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown} at top level; "
                          f"valid keys: {sorted(table)}")
    for key, value in overrides.items():
        _check(table[key], value, key, table.bounds[key])
    cfg = {**table, **overrides}
    for keys, broken, message in table.rules:
        for at, v in _entries(keys[0], cfg[keys[0]]):
            if broken(v, cfg):
                raise ConfigError(message.format_map({**cfg, "at": at, "v": v}))
    return cfg


def load_config(path, table):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(table, raw)


def _atomic_write(path, writer):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        umask = os.umask(0o077)  # reading it sets it: set it back
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # as a plain open, not mkstemp's 0600
        with os.fdopen(fd, "w", newline="") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_metrics_csv(path, rows):
    """Rows are (run_id, scenario, step, split, stats_mode, metric, value);
    the csv module writes a float as its ``repr``."""

    def writer(fh):
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(METRICS_HEADER)
        out.writerows(rows)

    _atomic_write(path, writer)


def _nonfinite_key(obj, key=""):
    """Key path of the first NaN or infinity in ``obj`` in file order."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else key
    if isinstance(obj, dict):
        items = ((f"{key}.{k}", v) for k, v in sorted(obj.items()))
    elif isinstance(obj, (list, tuple)):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    return next(filter(None, (_nonfinite_key(v, k) for k, v in items)), None)


def encode_json(path, payload):
    """The JSON text of ``payload`` for ``path``, from one call of json's C
    encoder: keys sorted, each dict or list item after a container's first
    on a line of its own, unindented, and a final newline; every float
    (np.float64 too) is ``float.__repr__``.  Raises BnLabError naming
    ``path`` and the first NaN's or infinity's key path, or a cycle."""
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False,
                          separators=(",\n", ": ")) + "\n"
    except ValueError as exc:  # a NaN or infinity, or a payload that holds itself
        what = ("a circular reference" if "Circular" in str(exc) else
                f"non-finite value at {_nonfinite_key(payload).lstrip('.')}")
        raise BnLabError(f"{path}: {what}; not written") from None


def write_json(path, text):
    """Write ``text``, from ``encode_json``, to ``path`` atomically."""
    _atomic_write(path, lambda fh: fh.write(text))
