"""A fuzzer of ``bnlab run``'s config, for README's exit-code promise: a
config either runs, exiting 0 with its four artifacts, or is refused, exiting
2 (a config error, before any work) or 1 (a runtime error) with one
``error:`` line, no numpy warning and no artifact.

Each example starts from a scenario's smoke-size config at three steps and
sets one to three of its keys to values drawn from the key's default: the
default, the default ± 1, each bound of a range ± 1, 0, −1, a fraction, a
value of the wrong type; for a list or mapping also an empty, repeated or
over-long one, or one whose entry, or a spec's key, is dropped or mistyped.
A config whose sizes pass the cap is checked but not run."""

import contextlib
import io
import json
import os
import tempfile
import warnings
from unittest import mock

from hypothesis import example, given, seed
from hypothesis import strategies as st

from bnlab import scenarios
from bnlab.cli import main
from bnlab.scenarios import SCENARIOS
from conftest import drawn
from test_scenarios import TINY

# every bound that a config range names is 0, 1 or 2 (checked in
# tests/test_scenarios.py), so these are each bound, each bound ± 1, and a
# fraction between two
EDGES = [-1, 0, 0.5, 1, 2, 3]
STEPS, CAP = 3, 256  # a run longer, or with any number larger, is not run
ARTIFACTS = {"metrics.csv", "summary.json", "stats.json", "params.json"}


def defaults(name):
    return vars(scenarios)[f"{name.upper()}_DEFAULTS"]


def kind(value):
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return "number" if number else type(value)


@st.composite
def like(draw, default):
    """A value for a key, list entry or spec key whose default is
    ``default``."""
    if draw(st.integers(0, 5)) == 0:  # a value of the wrong type
        return draw(st.sampled_from([v for v in ("x", 1, True, None, [1], {"x": 1})
                                     if kind(v) != kind(default)]))
    if isinstance(default, (str, bool)):
        return draw(st.sampled_from([default, "x" if isinstance(default, str)
                                     else not default]))
    if kind(default) == "number":
        return draw(st.sampled_from([default, default - 1, default + 1, *EDGES]))
    named = isinstance(default, dict) and all(
        isinstance(v, dict) for v in default.values())
    if isinstance(default, dict) and not named:  # a spec
        spec, key = dict(default), draw(st.sampled_from(sorted(default)))
        if draw(st.booleans()):
            del spec[key]
        else:
            spec[key] = draw(like(default[key]))
        return draw(st.sampled_from([default, spec]))
    entries = list(default.values()) if named else list(default)
    entry = st.one_of(*map(like, entries))
    value = draw(st.one_of(
        st.just(entries), st.just([]),
        entry.map(lambda e: [e, e]),  # repeated
        st.lists(entry, min_size=len(entries) + 1,  # over-long
                 max_size=len(entries) + 6),
        # one entry edited
        st.tuples(st.integers(0, len(entries) - 1), entry).map(
            lambda ie: [*entries[:ie[0]], ie[1], *entries[ie[0] + 1:]])))
    return {f"s{i}": e for i, e in enumerate(value)} if named else value


@st.composite
def configs(draw):
    """(scenario, config) pairs."""
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    keys = draw(st.lists(st.sampled_from(sorted(defaults(name))), min_size=1,
                         max_size=3, unique=True))
    return name, {**TINY[name], "steps": STEPS,
                  **{key: draw(like(defaults(name)[key])) for key in keys}}


def numbers(value):
    """Every number in a config value, at any depth."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [n for v in value for n in numbers(v)]
    return [value] if kind(value) == "number" else []


class Skipped(Exception):
    """The config was accepted; its run is over the cap."""


def skip(cfg, seed):
    raise Skipped


@seed(4)
@drawn(250)
@given(case=configs())
# zero-variance data: the subset-stats gap divided 0 by 0
@example(case=("ema_vs_precise", {**TINY["ema_vs_precise"], "steps": STEPS,
                                  "noise": 0, "separation": 0}))
@example(case=("ema_vs_precise", {**TINY["ema_vs_precise"], "steps": STEPS,
                                  "noise": 0, "classes": 1}))
@example(case=("ema_vs_precise", {**TINY["ema_vs_precise"], "steps": STEPS,
                                  "noise": 1e-9, "separation": 0}))
def test_a_drawn_config_runs_or_is_refused_in_one_error_line(case):
    name, cfg = case
    small = cfg["steps"] in range(STEPS + 1) and all(
        n <= CAP for n in numbers(cfg))
    runner = SCENARIOS[name] if small else (skip, SCENARIOS[name][1])
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        stdout, stderr = io.StringIO(), io.StringIO()
        with (mock.patch.dict(SCENARIOS, {name: runner}),
              mock.patch.object(os, "sched_getaffinity", lambda pid: {0}),
              warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(stdout),
              contextlib.redirect_stderr(stderr)):
            warnings.simplefilter("always")
            try:
                code = main(["run", name, "--config", path, "--out", out])
            except Skipped:
                code = None
        written = set(os.listdir(out)) if os.path.exists(out) else set()
    err = stderr.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "Warning" not in err
    if code == 0:
        assert written == ARTIFACTS and err == ""
        return
    assert written == set()
    if code is None:
        return
    assert code in (1, 2), err
    assert err.startswith("error: ") and [
        line for line in err.splitlines() if line.startswith("error: ")] == [
        err.splitlines()[0]]
    if code == 2:
        assert err.count("\n") == 1  # no traceback
