"""README's quoted outputs against the code: the ``bnlab run`` smoke
example's output line and the ``metrics.csv`` it writes, the ``bnlab
estimate`` example's JSON, byte for byte, the ``bnlab check-grad``
listing's component names and statuses (its error figures are not
checked), every quoted ``error:`` line against the command or call that
this file's table pairs it with, the criterion table against
``tests/test_acceptance.py``, the scenario table against ``SCENARIOS``,
each quoted ``module.CONSTANT`` value, the table of pinned Python calls in
"How cohorts run", the config table of ``bnlab run`` against the
scenarios' tables and rules, and the JSON artifact examples of "File
formats" in ``io.encode_json``'s layout."""

import contextlib
import importlib
import io as text_io
import json
import re
from pathlib import Path

import pytest

from bnlab import cli, io
from bnlab.errors import BnLabError
from bnlab.gradcheck import TOLERANCE, run_full_suite
from bnlab.scenarios import RULES, SCENARIOS
from test_step_calls import CALLS_PER_PASS, CALLS_PER_SLAB, CALLS_PER_STEP

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _section(title):
    """The fenced blocks of README's ``## title`` or ``### title`` section:
    [(language, body)], in order."""
    text = README.read_text(encoding="utf-8")
    body = re.search(rf"^###? {re.escape(title)}\n(.*?)(?=^##|\Z)", text,
                     re.MULTILINE | re.DOTALL).group(1)
    return re.findall(r"^```(\w*)\n(.*?)^```", body, re.MULTILINE | re.DOTALL)


def test_the_run_smoke_example_prints_the_quoted_line(tmp_path, capsys,
                                                      monkeypatch):
    # and writes the metrics.csv that "File formats" quotes
    (example,) = [body for lang, body in _section("`bnlab run`")
                  if body.startswith("bnlab run ") and "\n# " in body]
    command, quoted = example.splitlines()
    argv = command.split()[1:]
    config = argv.index("--config") + 1
    argv[config] = str(ROOT / argv[config])
    monkeypatch.chdir(tmp_path)  # the quoted --out is relative
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == quoted.removeprefix("# ") + "\n"
    (metrics,) = [body for lang, body in _section("File formats") if lang == "csv"]
    assert (tmp_path / "out" / "metrics.csv").read_text(encoding="utf-8") == metrics


def test_the_estimate_example_prints_the_quoted_json(tmp_path, capsys):
    blocks = _section("`bnlab estimate`")
    (csv_text,) = [body for lang, body in blocks if lang == "csv"]
    (example,) = [body for lang, body in blocks if body.startswith("$ bnlab estimate")]
    command, quoted = example.split("\n", 1)
    path = tmp_path / "moments.csv"
    path.write_text(csv_text, encoding="utf-8")
    argv = [str(path) if arg == "moments.csv" else arg
            for arg in command.split()[2:]]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == quoted


def test_the_check_grad_listing_names_each_component_and_its_status():
    (listing,) = [body for lang, body in _section("`bnlab check-grad`")
                  if "max rel err" in body]
    quoted = re.findall(r"^(\w+) +max rel err \S+ +(\w+)$", listing, re.MULTILINE)
    assert len(quoted) == len(listing.splitlines())
    report = run_full_suite(seed=0)
    assert quoted == [(name, "ok" if err < TOLERANCE else "FAIL")
                      for name, err in report.items()]


def test_the_calls_table_quotes_every_pin():
    text = README.read_text(encoding="utf-8")
    body = re.search(r"^## How cohorts run\n(.*?)(?=^## )", text,
                     re.MULTILINE | re.DOTALL).group(1)
    quoted = re.findall(r"^\| `(\w+)` \|.*\| (\d+) \|$", body, re.MULTILINE)
    assert len(quoted) == len(dict(quoted))  # each case quoted once
    assert {name: int(calls) for name, calls in quoted} == \
        {**CALLS_PER_STEP, **CALLS_PER_PASS, **CALLS_PER_SLAB}


def test_the_config_table_quotes_every_range_and_rule_once():
    text = README.read_text(encoding="utf-8")
    table = re.search(r"^\| keys \| range, or the rule's message \|\n\| --- \| --- \|\n"
                      r"((?:\|.*\n)+)", text, re.MULTILINE).group(1)
    ranges, rules = {}, []
    for keys, right in re.findall(r"^\| (.+) \| (.+) \|$", table, re.MULTILINE):
        keys = tuple(re.findall(r"`(\w+)`", keys))
        if re.fullmatch(r"`([<>]=? \d+|distinct)`( and `([<>]=? \d+|distinct)`)*", right):
            for key in keys:
                assert key not in ranges, f"{key} quoted twice"
                ranges[key] = tuple(re.findall(r"`(.+?)`", right))
        else:
            rules.append((keys, re.fullmatch(r"`(.+)`", right).group(1)))
    declared = {}
    for _, defaults in SCENARIOS.values():
        for key, bounds in defaults.bounds.items():
            if bounds:  # a key has the same range in every scenario
                assert declared.setdefault(key, bounds) == bounds, key
    assert ranges == declared
    assert rules == [(keys, message) for keys, _, message in RULES]


def test_the_file_formats_json_examples_are_encode_json_bytes():
    blocks = [body for lang, body in _section("File formats") if lang == "json"]
    assert len(blocks) == 3  # summary.json, stats.json, params.json
    for body in blocks:
        assert body == io.encode_json("example.json", json.loads(body))


def _bnlab(*argv, config=None, moments=None):
    """The first stderr line of ``bnlab *argv`` that holds ``error:``, and
    the exit code, run in the working directory: ``config`` is written to
    cfg.json and passed as ``--config``, ``moments`` to moments.csv."""
    if config is not None:
        Path("cfg.json").write_text(json.dumps(config), encoding="utf-8")
        argv += ("--config", "cfg.json")
    if moments is not None:
        Path("moments.csv").write_bytes(moments)
    err = text_io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return next(line for line in err.getvalue().splitlines()
                if "error:" in line), code


def _encode_error(path, payload):
    """``bnlab run``'s line for a payload that ``io.encode_json`` refuses,
    and its exit code."""
    with pytest.raises(BnLabError) as exc:
        io.encode_json(path, payload)
    return f"error: {exc.value}", cli.EXIT_RUNTIME


ESTIMATE = ("estimate", "--input", "moments.csv", "--method")
HEADER = b"batch_index,channel,mean,var,count\n"

# every error line README quotes: (the line, what prints it, the exit code)
ERROR_LINES = [
    ("bnlab: error: argument --seed: must be >= 0, got -1",
     lambda: _bnlab("run", "nbs_sweep", "--seed", "-1"), 2),
    ("error: unknown scenario 'bogus'; valid scenarios: domain_adapt, "
     "ema_vs_precise, frozen_finetune, leakage, nbs_sweep, shared_head",
     lambda: _bnlab("run", "bogus"), 2),
    ("error: hidden[0] must be a number",
     lambda: _bnlab("run", "domain_adapt", config={"hidden": ["a"]}), 2),
    ("error: precise_n must be <= train_size (512), got 1024",
     lambda: _bnlab("run", "ema_vs_precise", config={"train_size": 512}), 2),
    ("error: precise_b_sweep[1] must be distinct from precise_b_sweep[0] "
     "(both run as 8)",
     lambda: _bnlab("run", "ema_vs_precise", config={"precise_b_sweep": [8, 8]}), 2),
    ("error: precise_b_sweep[0] must be >= 2",
     lambda: _bnlab("run", "ema_vs_precise", config={"precise_b_sweep": [1, 32]}), 2),
    ("error: training diverged at step 2: loss 10345.5 is not <= 1000",
     lambda: _bnlab("run", "domain_adapt", config={"lr": 1e3, "steps": 50}), 1),
    ("error: training failed at step 1: overflow encountered in square",
     lambda: _bnlab("run", "ema_vs_precise", config={"separation": 1e300}), 1),
    ("error: out/stats.json: non-finite value at bn1.var[4]; not written",
     lambda: _encode_error("out/stats.json",
                           {"bn1": {"var": [1.0, 1.0, 1.0, 1.0, float("nan")]}}),
     1),
    ("error: subset_stats_gap at subset size 32: both estimates of bn0 have "
     "zero variance in channel 2; their relative distance is 0/0",
     lambda: _bnlab("run", "ema_vs_precise",
                    config={"noise": 1e-9, "separation": 0}), 1),
    ("error: momentum must be in [0, 1], got 1.5",
     lambda: _bnlab(*ESTIMATE, "ema", "--momentum", "1.5"), 2),
    ("error: batch 1 takes the count total above 2**53",
     lambda: _bnlab(*ESTIMATE, "precise", moments=HEADER
                    + b"0,0,0.0,1.0,9007199254740992\n1,0,0.0,1.0,1\n"), 2),
    ("error: cannot read moments.csv: 'utf-8' codec can't decode byte 0xff "
     "in position 0: invalid start byte",
     lambda: _bnlab(*ESTIMATE, "precise", moments=b"\xff\xfe"), 2),
    ("error: estimate is not finite",
     lambda: _bnlab(*ESTIMATE, "precise", moments=HEADER + b"0,0,1e200,1.0,4\n"), 1),
]


def test_every_quoted_error_line_is_what_its_command_prints(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    quoted = {re.sub(r"\n\s*", " ", span)
              for span in re.findall(r"`((?:bnlab: )?error: [^`]+)`", text)}
    assert quoted == {line for line, _, _ in ERROR_LINES}
    monkeypatch.chdir(tmp_path)
    for line, prints, code in ERROR_LINES:
        assert prints() == (line, code)


def test_the_criterion_table_names_each_acceptance_test():
    source = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    criteria = sorted(re.findall(r"^def (test_c\d\d_\w+)\(", source, re.MULTILINE))
    assert len(criteria) == 14
    quoted = re.findall(r"`(test_c\d\d_\w+)`", README.read_text(encoding="utf-8"))
    assert quoted == criteria


def test_the_scenario_table_lists_each_scenario_in_order():
    text = README.read_text(encoding="utf-8")
    table = re.search(r"^\| scenario \| question it answers \|\n\| --- \| --- \|\n"
                      r"((?:\|.*\n)+)", text, re.MULTILINE).group(1)
    assert re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE) == list(SCENARIOS)


def test_each_quoted_constant_is_the_code_s():
    text = README.read_text(encoding="utf-8")
    quoted = re.findall(r"`(\w+)\.([A-Z][A-Z_]+)` =\s+(\d+(?:\.\d+)?(?:e-?\d+)?)",
                        text)
    assert quoted and len(quoted) == len(re.findall(r"`\w+\.[A-Z][A-Z_]+` =", text))
    for module, name, value in quoted:
        assert getattr(importlib.import_module(f"bnlab.{module}"), name) == \
            float(value), f"{module}.{name}"
