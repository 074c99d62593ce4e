"""Margins and verdicts of the seed-voted acceptance criteria, c09-c12, from a
directory of run artifacts.

    python tools/margins.py OUT_DIR

reads every ``OUT_DIR/<scenario>-s<seed>/summary.json`` (as
``python tools/artifacts.py OUT_DIR --seeds 0-9`` writes them) of the four
scenarios the criteria judge.  For each criterion it prints each seed's
margins and verdict, then how many of seeds 0-2 (the acceptance gate's)
and of seeds 3-9 (held out) pass.  It writes the same table to
``OUT_DIR/margins.json`` with sorted keys, so equal tables are equal
bytes.  It exits 1 if OUT_DIR holds no summary of these scenarios.

``tests/test_acceptance.py`` runs ``tools/artifacts.py``'s ``write_all``
once per session at seeds 0-2, and c10-c12 assert this module's
``ledger`` majority over those seeds, so the thresholds and the vote live
here once.  c09's vote also needs each seed's leakage run to end under
60 s, which that test reads from ``write_all``'s timings: ``summary.json``
records no run time, so the verdicts here leave it out.
"""

import argparse
import json
import os
import re
import sys


def c09_leakage(s):
    """The crafted batches leak: their population error exceeds their
    mini-batch error (pattern kept) by >= 0.20; and every fix lands within
    0.02 of the uncrafted control's error."""
    gap = s["crafted"]["population"] - s["crafted"]["minibatch_pattern"]
    fix_diffs = [abs(s[name]["population"] - s["control"]["population"])
                 for name in ("shuffle_fix", "sync_fix", "ghost_fix")]
    margins = {"gap": gap, "max_fix_vs_control": max(fix_diffs)}
    return margins, gap >= 0.20 and all(d <= 0.02 for d in fix_diffs)


def c10_shared_head(s):
    """Inconsistent statistics (row 2) degrade: its error is >= 2 times
    every consistent row's (rows 1, 4, 6), which agree within 0.03."""
    errs = [s[f"row{r}"]["error"] for r in range(1, 7)]
    consistent = [errs[0], errs[3], errs[5]]
    inconsistent = errs[1]
    spread = max(consistent) - min(consistent)
    margins = {
        "ratio": (inconsistent / max(consistent) if max(consistent) > 0
                  else float("inf")),
        "spread": spread,
    }
    degraded = all(inconsistent >= 2.0 * e for e in consistent)
    return margins, degraded and spread <= 0.03


def c11_nbs_sweep(s):
    """Mini-batch train error does not increase with the normalization
    batch size (2, 8, 32), and at nbs 2 population statistics lose to
    mini-batch ones on validation (flip > 0)."""
    tr = [s[str(b)]["train_minibatch"] for b in (2, 8, 32)]
    flip = s["2"]["val_population"] - s["2"]["val_minibatch"]
    margins = {"train_minibatch_nbs2_8_32": tr, "flip": flip}
    mono = tr[0] >= tr[1] >= tr[2]
    return margins, mono and s["2"]["val_population"] > s["2"]["val_minibatch"]


def c12_domain_adapt(s):
    """Target-domain statistics help under strong corruption (helps > 0)
    and coincide with the source's within 0.02 under none."""
    strong, none = s["strong"], s["none"]
    coincide = abs(none["target_stats"] - none["source_stats"])
    margins = {"helps": strong["source_stats"] - strong["target_stats"],
               "coincide": coincide}
    return margins, (strong["target_stats"] < strong["source_stats"]
                     and coincide <= 0.02)


# criterion -> (the scenario whose summary it judges, its margin function)
CRITERIA = {
    "c09": ("leakage", c09_leakage),
    "c10": ("shared_head", c10_shared_head),
    "c11": ("nbs_sweep", c11_nbs_sweep),
    "c12": ("domain_adapt", c12_domain_adapt),
}
# the acceptance gate's seeds, and the held-out ones
GROUPS = {"0-2": range(0, 3), "3-9": range(3, 10)}


def summaries(out_dir, scenario):
    """{seed: the run's summary dict} of every ``<scenario>-s<seed>`` run
    in out_dir that has a summary.json."""
    found = {}
    for name in os.listdir(out_dir):
        match = re.fullmatch(rf"{scenario}-s(\d+)", name)
        path = os.path.join(out_dir, name, "summary.json")
        if match and os.path.isfile(path):
            with open(path) as fh:
                found[int(match.group(1))] = json.load(fh)["summary"]
    return found


def ledger(out_dir):
    """{criterion: {"scenario", "seeds": {seed: {"margins", "pass"}},
    "votes": {group: {"passed", "seeds", "majority"}}}} over the runs
    found; a criterion with no run is left out."""
    table = {}
    for name, (scenario, judge) in CRITERIA.items():
        runs = summaries(out_dir, scenario)
        if not runs:
            continue
        seeds = {}
        for seed in sorted(runs):
            margins, verdict = judge(runs[seed])
            seeds[str(seed)] = {"margins": margins, "pass": verdict}
        votes = {}
        for group, members in GROUPS.items():
            verdicts = [seeds[str(s)]["pass"] for s in members if s in runs]
            if verdicts:
                passed = sum(verdicts)
                votes[group] = {"passed": passed, "seeds": len(verdicts),
                                "majority": passed >= len(verdicts) // 2 + 1}
        table[name] = {"scenario": scenario, "seeds": seeds, "votes": votes}
    return table


def _fmt(value):
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return f"{value:.4g}"


def render(table):
    lines = []
    for name, entry in table.items():
        lines.append(f"{name} ({entry['scenario']})")
        for seed, row in entry["seeds"].items():
            margins = "  ".join(f"{k}={_fmt(v)}"
                                for k, v in row["margins"].items())
            verdict = "pass" if row["pass"] else "FAIL"
            lines.append(f"  seed {seed:>2}  {verdict}  {margins}")
        for group, vote in entry["votes"].items():
            majority = "majority" if vote["majority"] else "no majority"
            lines.append(f"  seeds {group}: {vote['passed']} of "
                         f"{vote['seeds']} pass ({majority})")
    return "\n".join(lines)


def run(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out_dir")
    args = parser.parse_args(argv)
    table = ledger(args.out_dir)
    if not table:
        print(f"error: no summary.json of {', '.join(s for s, _ in CRITERIA.values())} "
              f"runs in {args.out_dir}", file=sys.stderr)
        return 1
    print(render(table))
    with open(os.path.join(args.out_dir, "margins.json"), "w") as fh:
        fh.write(json.dumps(table, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(run())
