"""README's quoted outputs against the code: the ``bnlab estimate``
example's JSON, byte for byte, the ``bnlab check-grad`` listing's
component names and statuses (its error figures are not checked), the
table of pinned Python calls in "How cohorts run", the config table of
``bnlab run`` against the scenarios' tables and rules, and the JSON artifact
examples of "File formats" in ``io.encode_json``'s layout."""

import json
import re
from pathlib import Path

from bnlab import cli, io
from bnlab.gradcheck import TOLERANCE, run_full_suite
from bnlab.scenarios import RULES, SCENARIOS
from test_step_calls import CALLS_PER_PASS, CALLS_PER_SLAB, CALLS_PER_STEP

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title):
    """The fenced blocks of README's ``## title`` or ``### title`` section:
    [(language, body)], in order."""
    text = README.read_text(encoding="utf-8")
    body = re.search(rf"^###? {re.escape(title)}\n(.*?)(?=^##|\Z)", text,
                     re.MULTILINE | re.DOTALL).group(1)
    return re.findall(r"^```(\w*)\n(.*?)^```", body, re.MULTILINE | re.DOTALL)


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
