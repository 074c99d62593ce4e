"""Command-line entry point: scenario runs, offline statistics aggregation,
and the finite-difference gradient check."""

import argparse
import json
import os
import sys
import traceback

import numpy as np

from . import io
from .errors import BnLabError, ConfigError, MalformedCsv, UnknownScenario
from .gradcheck import TOLERANCE, run_full_suite
from .scenarios import SCENARIOS
from .stats import (
    aggregate_moment_matching,
    aggregate_naive,
    ema_update,
    read_moments_csv,
)
from .tensor import ChannelStats

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bnlab",
        description="Normalization-statistics laboratory: scenario runs, "
        "offline aggregation, gradient checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write its artifacts")
    run.add_argument("scenario")
    run.add_argument("--config", help="JSON config overriding scenario defaults")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default="out", help="output directory")

    est = sub.add_parser("estimate",
                         help="aggregate a per-batch moment log from CSV")
    est.add_argument("--input", required=True, help="moments CSV path")
    est.add_argument("--method", required=True,
                     choices=["ema", "precise", "naive"])
    est.add_argument("--momentum", type=float, default=0.9,
                     help="EMA momentum lambda (ema method only)")
    est.add_argument("--bessel", action="store_true",
                     help="apply the N/(N-1) correction (precise method)")

    grad = sub.add_parser("check-grad",
                          help="finite-difference check of every backward")
    grad.add_argument("--seed", type=int, default=0)
    return parser


def _load_scenario_config(name, path):
    if name not in SCENARIOS:
        raise UnknownScenario(
            f"unknown scenario {name!r}; valid scenarios: "
            f"{', '.join(sorted(SCENARIOS))}"
        )
    _, table = SCENARIOS[name]
    if path is None:
        return io.validate_config(table, {})
    return io.load_config(path, table)


def cmd_run(args):
    try:
        cfg = _load_scenario_config(args.scenario, args.config)
    except (ConfigError, UnknownScenario) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    fn, _ = SCENARIOS[args.scenario]
    out = os.path.join(args.out, "")  # "out" and "out/" name "out/..." alike
    try:
        result = fn(cfg, args.seed)
        checkpoints = {
            f"{out}summary.json": {
                "scenario": result.scenario,
                "seed": args.seed,
                "config": cfg,
                "summary": result.summary,
            },
            f"{out}stats.json": result.stats_checkpoint,
            f"{out}params.json": result.params_checkpoint,
        }
        # every payload is encoded before any file is written, so a run
        # whose JSON would hold NaN writes none of its artifacts
        texts = {path: io.encode_json(path, payload)
                 for path, payload in checkpoints.items()}
        io.write_metrics_csv(f"{out}metrics.csv", result.rows)
        for path, text in texts.items():
            io.write_json(path, text)
    except (BnLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        traceback.print_exc(limit=2, file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {out}metrics.csv ({len(result.rows)} rows)")
    return EXIT_OK


def cmd_estimate(args):
    if args.method == "ema" and not 0.0 <= args.momentum <= 1.0:
        # a bad flag is a config error, found before the CSV is read
        print(f"error: momentum must be in [0, 1], got {args.momentum}",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        with open(args.input, encoding="utf-8") as fh:
            entries = read_moments_csv(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MalformedCsv as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # finite rows whose pooled moments overflow give inf or NaN, which
        # the encoder below refuses; numpy's warnings about it stay unprinted
        with np.errstate(over="ignore", invalid="ignore"):
            if args.method == "ema":
                c = entries[0].channels
                stats = ChannelStats(np.zeros(c), np.ones(c), 1)
                for entry in entries:
                    stats = ema_update(stats, entry, args.momentum)
                note = {"momentum": args.momentum}
            elif args.method == "precise":
                stats = aggregate_moment_matching(entries, bessel=args.bessel)
                note = {"bessel": args.bessel}
            else:
                stats = aggregate_naive(entries)
                note = {}
    except BnLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    payload = {"method": args.method, **note,
               "mean": list(stats.mean), "var": list(stats.var)}
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        # finite inputs whose pooled moments overflow
        print("error: estimate is not finite", file=sys.stderr)
        return EXIT_RUNTIME
    print(text)
    return EXIT_OK


def cmd_check_grad(args):
    report = run_full_suite(seed=args.seed)
    width = max(map(len, report))
    ok = True
    for name, err in report.items():
        status = "ok" if err < TOLERANCE else "FAIL"
        ok = ok and err < TOLERANCE
        print(f"{name:{width}s} max rel err {err:.3e}  {status}")
    return EXIT_OK if ok else EXIT_RUNTIME


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "estimate" and args.seed < 0:
        # numpy's generators take only seeds >= 0
        parser.error(f"argument --seed: must be >= 0, got {args.seed}")
    if args.command == "run":
        return cmd_run(args)
    if args.command == "estimate":
        return cmd_estimate(args)
    return cmd_check_grad(args)


if __name__ == "__main__":
    sys.exit(main())
