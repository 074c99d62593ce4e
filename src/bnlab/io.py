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
    "Range",
    "write_metrics_csv",
    "encode_json",
    "write_json",
    "METRICS_HEADER",
]

METRICS_HEADER = ["run_id", "scenario", "step", "split", "stats_mode",
                  "metric", "value"]


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_number(default, value, key):
    """A number key takes a finite number (json.load accepts NaN and
    Infinity), and an int default's key an int >= 0."""
    if not _is_number(value):
        raise ConfigError(f"{key} must be a number")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite")
    if isinstance(default, int) and not (isinstance(value, int) and value >= 0):
        raise ConfigError(f"{key} must be an integer >= 0")


class Range:
    """A config key's values: a number, or each number of a list, meets
    every bound (``">= 1"``, ``"< 1"``), and a list or mapping holds at least
    ``min_len`` entries; ``check(key, value)`` raises ConfigError if not."""

    OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}

    def __init__(self, *bounds, min_len=0):
        self.bounds, self.min_len = bounds, min_len

    def check(self, key, value):
        if isinstance(value, (list, dict)):
            if len(value) < self.min_len:
                raise ConfigError(f"{key} must be of length >= {self.min_len}")
            if isinstance(value, list):  # a mapping's keys are names
                for i, v in enumerate(value):
                    self.check(f"{key}[{i}]", v)
        elif _is_number(value) and not all(
                self.OPS[op](value, float(bound))
                for op, bound in map(str.split, self.bounds)):
            raise ConfigError(f"{key} must be {' and '.join(self.bounds)}")


def _holds_specs(default):
    """Whether ``default`` is a list of specs (mappings) or a mapping of
    user-chosen names to specs, as ``domains`` and ``corruptions`` are."""
    entries = default.values() if isinstance(default, dict) else default
    return isinstance(default, (dict, list)) and bool(default) and all(
        isinstance(entry, dict) for entry in entries)


def _check_specs(default, value, key):
    """Each spec of ``value`` gives every key of the default's first spec,
    each of that spec's type (``corruptions.x.shift must be a number``).
    Like a spec's name, any further key is the user's own."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{key} must be a mapping")
        template = next(iter(default.values()))
        specs = ((f"{key}.{name}", spec) for name, spec in value.items())
    else:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list")
        template = default[0]
        specs = ((f"{key}[{i}]", spec) for i, spec in enumerate(value))
    for where, spec in specs:
        if not isinstance(spec, dict):
            raise ConfigError(f"{where} must be a mapping")
        # a key the spec leaves out is checked as None, so it is refused
        _merge_validate(template, {k: spec.get(k) for k in template}, f"{where}.")


def _merge_validate(defaults, overrides, path=""):
    if not isinstance(overrides, dict):
        raise ConfigError(f"expected a mapping at {path or 'top level'}")
    merged = {}
    for key, default in defaults.items():
        if key in overrides:
            value = overrides[key]
            if _holds_specs(default):
                _check_specs(default, value, f"{path}{key}")
            elif isinstance(default, dict):
                value = _merge_validate(default, value, f"{path}{key}.")
            elif isinstance(default, bool):
                if not isinstance(value, bool):
                    raise ConfigError(f"{path}{key} must be a boolean")
            elif _is_number(default):
                _check_number(default, value, f"{path}{key}")
            elif isinstance(default, list):
                if not isinstance(value, list):
                    raise ConfigError(f"{path}{key} must be a list")
                # elements follow the rule of the default's first element
                if default and all(map(_is_number, default)):
                    for i, v in enumerate(value):
                        _check_number(default[0], v, f"{path}{key}[{i}]")
            merged[key] = value
        else:
            merged[key] = default
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise ConfigError(
            f"unknown config key(s) {unknown} at {path or 'top level'}; "
            f"valid keys: {sorted(defaults)}"
        )
    return merged


def validate_config(defaults, overrides):
    """Merge user overrides onto scenario defaults, rejecting unknown keys."""
    return _merge_validate(defaults, overrides or {})


def load_config(path, defaults):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(defaults, raw)


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
