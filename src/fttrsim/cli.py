"""Command-line interface: run, compare and validate subcommands.

Exit status: 0 success, 2 scenario schema violation, unreadable scenario
file or summaries that cannot be compared, 3 runtime invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .scenario import load_scenario, ConfigError
from .simulation import run_scenario_config
from .metrics import write_outputs, compare_summaries
from .energy import LedgerError
from .engine import SimError


def _run(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.duration_ms is not None:
        overrides["duration_ms"] = args.duration_ms
    if args.dump_schedule:
        overrides["dump_schedule"] = True
    try:
        cfg = load_scenario(args.scenario, overrides)
    except ConfigError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    try:
        res = run_scenario_config(cfg)
    except (LedgerError, SimError, RuntimeError) as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 3
    out = args.out or f"out/{cfg.name}"
    summary = write_outputs(res, out)
    print(f"wrote {out}/summary.json")
    print(f"digest {summary['digest']}")
    return 0


def _compare(args) -> int:
    try:
        a, b = (json.loads(Path(p).read_text(encoding="utf-8"))
                for p in (args.summary_a, args.summary_b))
        report = compare_summaries(a, b)
    except (OSError, ValueError) as exc:   # unreadable, not JSON, other shape
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError) as exc:   # JSON that is not a run summary
        print(f"refusing to compare: not a run summary: {exc!r}",
              file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def _validate(args) -> int:
    try:
        load_scenario(args.scenario)
    except ConfigError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    print("ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fttr-sim",
        description="Deterministic G.fin FTTR network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("scenario", help="scenario YAML file")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--mode")
    run_p.add_argument("--duration-ms", type=float, dest="duration_ms")
    run_p.add_argument("--out", help="output directory")
    run_p.add_argument("--dump-schedule", action="store_true")
    run_p.set_defaults(func=_run)

    cmp_p = sub.add_parser("compare", help="delta report between two summaries")
    cmp_p.add_argument("summary_a")
    cmp_p.add_argument("summary_b")
    cmp_p.add_argument("--out")
    cmp_p.set_defaults(func=_compare)

    val_p = sub.add_parser("validate", help="schema-check a scenario file")
    val_p.add_argument("scenario")
    val_p.set_defaults(func=_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
