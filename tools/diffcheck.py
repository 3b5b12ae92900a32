"""Differential check: run one case list on two revisions of the simulator
and report the first model output that differs and in how many cases each
model field differs.

Each revision is taken with ``git archive <rev> | tar -x`` into a temporary
directory; HEAD defaults to the working tree. The case list runs in one
child process per tree (``PYTHONPATH=<tree>/src``), the two trees at the
same time. Per case the child records, each as a sha256:

  - ``summary.json`` without ``digest`` and the ``events_*`` counters
  - ``flows.csv``, ``schedule.log`` as written, grants in the order they
    were issued (its writer orders the SLOT lines itself), and the MFU's
    sleep and wake commands in ``res.events`` (a tree that also logs
    light-sleep reports, wakes and alarms there has them in the ledgers and
    summary)
  - ``omci_delays``, ``bursts``, the sorted ``upstream_slots``, the MIB
    snapshots and ``relay_overflow_drops``
  - the wire bytes of every response the OLT received, in order: the
    ``olt_received`` stream itself, or each message of a tree that keeps
    them decoded, encoded again (``encode_omci`` of a decoded response
    gives its bytes back)
  - every node's raw ledger records, zero-length ones included
  - for a run that ends with exit 2 (scenario error) or 3 (invariant
    breach), the exit code and the message instead

The digest and the ``events_*`` counters are compared on their own: a change
to how events are scheduled moves them by design. The summary line also
gives the summed ``events_dispatched`` of each side, base -> head, and a
last line the lines of ``src/fttrsim/*.py`` in each tree.

Beside its hashes the child returns each run's numbers (``numbers``): per
flow offered, delivered, dropped, late and the p50 and p99 latency; per
room air time and collisions; joules per node; ``omci_delivered`` and the
largest OMCI delay; bursts forwarded and ``relay_overflow_drops``.
Before the summary line one line per metric gives the cases it moved in,
the median and the largest relative change, and the case and item of the
largest; ``--json PATH`` writes the same, a change from 0 as ``Infinity``.
Neither changes the comparison of hashes or the exit status.

Cases: the shipped scenarios in every mode at seeds 1 and 7, the
scenarios of ``tests/data/runs/`` in every mode, the three benchmark sweeps
at seeds 41 and 42, the seed-41 ``control_plane`` sweep in every mode but
``centralized``, and ``--random N`` scenarios from ``random_scenario``.

``--python PATH`` compares interpreters instead of revisions: the working
tree's case list runs once under this interpreter and once under PATH, and
the same lines compare the two runs. A run of a (scenario, seed) pair must give
the same bytes under every interpreter the package supports.

Usage, from a git checkout:
    python3 tools/diffcheck.py BASE [HEAD] [--random N] [--json PATH]
    python3 tools/diffcheck.py --python PATH [--random N] [--json PATH]
Exit status 0 when every model field matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
# small scenarios that reach what no shipped one does
RUNS = ROOT / "tests" / "data" / "runs"
# a literal, so that the case list does not depend on the tree compared
MODES = ("centralized", "distributed", "phy_relay")
# fields compared on their own line
EVENT_FIELDS = ("digest", "events")
# the kinds of `res.events` entries compared: what the MFU sends
COMMANDS = ("deep_sleep_command", "wake_command")
# a field of the child's record that is not a hash
NUMBERS = "numbers"


def scenario_dicts(folder: Path) -> dict[str, dict]:
    """The scenarios of `folder`'s YAML files, by file name stem."""
    import yaml
    return {path.stem: yaml.safe_load(path.read_text(encoding="utf-8"))
            for path in sorted(folder.glob("*.yaml"))}


def mode_cases(raws: dict[str, dict]) -> list[dict]:
    """Each scenario at its own seed in every mode."""
    return [{"id": f"{name}/{mode}", "raw": raw, "overrides": {"mode": mode}}
            for name, raw in raws.items() for mode in MODES]


def _yaml_cases() -> list[dict]:
    return [{"id": f"{name}/{mode}/seed{seed}", "raw": raw,
             "overrides": {"mode": mode, "seed": seed}}
            for name, raw in scenario_dicts(SCENARIOS).items()
            for mode in MODES for seed in (1, 7)]


def _sweep_cases() -> list[dict]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cases = []
    for name in workloads.WORKLOADS:
        for seed in (41, 42):
            for i, raw in enumerate(workloads.sweep(name, seed)):
                cases.append({"id": f"{name}/seed{seed}/{i}", "raw": raw,
                              "overrides": {}})
    for mode in MODES[1:]:
        for i, raw in enumerate(workloads.sweep("control_plane", 41)):
            cases.append({"id": f"control_plane/{mode}/seed41/{i}",
                          "raw": raw, "overrides": {"mode": mode}})
    return cases


def random_scenario(rng: random.Random) -> dict:
    """A small scenario: 1-4 rooms, some with a resident IoT device, a few
    flows and bursts, maybe a storm, a kill and a slow MFU link (10 or
    100 Mb/s, up to 2.5 ms of propagation), short timers and a horizon of
    5-40 ms. Times are mostly drawn on coarse grids, so that events of
    different kinds often fall on the same nanosecond; 0.3 of flow and burst
    starts are drawn to the µs instead, so that some, such as 1.019 ms
    (1,018,999.99... ns as a float), round and truncate to different ns."""
    rooms = [f"r{i}" for i in range(rng.randint(1, 4))]
    sfus = [{"name": r, "iot_resident": True} if rng.random() < 0.3 else r
            for r in rooms]
    conflicts = [[a, b] for i, a in enumerate(rooms) for b in rooms[i + 1:]
                 if rng.random() < 0.5]
    horizon_ms = rng.choice((5, 10, 20, 40))
    flows = []
    for i in range(rng.randint(0, 3)):
        model = rng.choice(("constant_rate", "on_off", "batch"))
        flow = {"name": f"f{i}", "dst": rng.choice(rooms),
                "priority": rng.randint(0, 7),
                "size_bytes": rng.choice((200, 1000, 1500, 4000)),
                "model": model,
                "start_ms": (round(rng.uniform(0, 3), 3)
                             if rng.random() < 0.3
                             else rng.choice((0, 0.5, 1, 2, 3)))}
        if model == "batch":
            flow.update(count=rng.randint(1, 8),
                        interval_us=rng.choice((0, 100, 250, 1000)))
        else:
            flow["rate_mbps"] = rng.choice((0.1, 1, 4, 8, 20))
        if model == "on_off":
            flow.update(on_ms=rng.choice((0.5, 1, 2)),
                        off_ms=rng.choice((1, 3, 5)))
        if rng.random() < 0.2:
            flow["stop_ms"] = flow["start_ms"] + rng.choice((1, 5))
        flows.append(flow)
    bursts = [{"sfu": rng.choice(rooms),
               "period_us": rng.choice((242, 250, 500, 1000, 2000)),
               "air_duration_us": rng.choice((20, 50, 100)),
               "start_ms": (round(rng.uniform(0, 1), 3)
                            if rng.random() < 0.3
                            else rng.choice((0, 0.25, 1))),
               "coordinated": rng.random() < 0.5,
               "rus": [{"bytes": rng.choice((0, 500, 2000, 4000))}
                       for _ in range(rng.randint(1, 3))]}
              for _ in range(rng.randint(0, 3))]
    management: dict = {"poll_cycle_ms": rng.choice((1, 2, 5))}
    if rng.random() < 0.5:
        management["storm"] = {"count": rng.randint(1, 200),
                               "content_bytes": rng.randint(0, 16)}
    if rng.random() < 0.5:
        at = rng.choice((1, 2, 5))
        management["kill"] = {"sfu": rng.choice(rooms), "at_ms": at}
        if rng.random() < 0.6:
            management["kill"]["recover_ms"] = at + rng.choice((1, 3, 10))
    optical = {}
    if rng.random() < 0.3:
        optical = {"downstream_gbps": rng.choice((0.01, 0.1)),
                   "prop_delay_ns": rng.choice((0, 50, 100_000, 500_000,
                                                1_000_000, 2_500_000))}
    return {
        "name": "random", "seed": rng.randrange(1, 1000),
        "horizon_ms": horizon_ms, "mode": rng.choice(MODES),
        "topology": {"sfus": sfus, "conflicts": conflicts},
        "optical": optical,
        "control": {"status_cycle_us": rng.choice((250, 500, 1000)),
                    "control_delay_us": rng.choice((0, 5, 50, 250))},
        "flows": flows, "uplink_bursts": bursts, "management": management,
        "phy_relay": {"buffer_bytes": rng.choice((24000, 100000))},
        "energy": {"savings_enabled": rng.random() < 0.6,
                   "t_act_idle_ms": rng.choice((0.5, 1, 2)),
                   "t_idle_sleep_ms": rng.choice((1, 2)),
                   "sfu": {"wake_light_ms": 1, "wake_deep_ms": 2,
                           "t_listen_ms": 3}},
    }


def case_list(n_random: int = 0) -> list[dict]:
    cases = _yaml_cases() + mode_cases(scenario_dicts(RUNS)) + _sweep_cases()
    rng = random.Random(0)
    cases += [{"id": f"random{i}", "raw": random_scenario(rng),
               "overrides": {}} for i in range(n_random)]
    return cases


# ----------------------------------------------------------------------
# child side: runs with the tree's fttrsim on its path


def _sha(value) -> str:
    data = value if isinstance(value, bytes) else repr(value).encode()
    return hashlib.sha256(data).hexdigest()


def numbers(res, summary: dict) -> dict[str, dict[str, float]]:
    """The numbers of one run that `explain` compares, as metric ->
    {flow, room or node: value}; the item of a run-wide value is ""."""
    flows, cells = summary["flows"], summary["cells"]
    out = {f"flow.{key}": {name: row[key] for name, row in flows.items()}
           for key in ("offered", "delivered", "dropped")}
    out["flow.late"] = {name: flow.late
                        for name, flow in sorted(res.flow_stats.items())}
    for key in ("latency_p50_ns", "latency_p99_ns"):
        out[f"flow.{key}"] = {name: row[key] for name, row in flows.items()}
    for key in ("airtime_ns", "collisions"):
        out[f"room.{key}"] = {name: row[key] for name, row in cells.items()}
    out["node.joules"] = {name: row["joules"]
                          for name, row in summary["nodes"].items()}
    management, uplink = summary["management"], summary["uplink"]
    out["omci_delivered"] = {"": management["omci_delivered"]}
    out["max_omci_delay_ns"] = {"": management["max_upstream_omci_delay_ns"]}
    out["bursts"] = {"": uplink["bursts"]}
    out["relay_overflow_drops"] = {"": uplink["relay_overflow_drops"]}
    return out


def record(case: dict) -> dict:
    """The compared fields of one case, each as a sha256, and its
    `numbers`."""
    from fttrsim.engine import SimError
    from fttrsim.energy import LedgerError
    from fttrsim.frames import encode_omci
    from fttrsim.metrics import (build_summary, flow_table_bytes,
                                 schedule_dump_bytes, summary_bytes)
    from fttrsim.scenario import ConfigError, parse_scenario
    from fttrsim.simulation import run_scenario_config
    try:
        res = run_scenario_config(parse_scenario(case["raw"],
                                                 case["overrides"]))
    except ConfigError as exc:
        return {"exit": _sha((2, str(exc)))}
    except (LedgerError, SimError, RuntimeError) as exc:
        return {"exit": _sha((3, str(exc)))}
    summary = build_summary(res)
    flows_csv = flow_table_bytes(summary)
    counters = summary["counters"]
    events = {k: counters.pop(k) for k in list(counters)
              if k.startswith("events_")}
    digest = summary.pop("digest")
    received = res.olt_received
    if not isinstance(received, bytearray):
        received = b"".join(map(encode_omci, received))
    return {
        "summary": _sha(summary_bytes(summary)),
        "flows": _sha(flows_csv),
        "schedule": _sha(schedule_dump_bytes(res)),
        "events_log": _sha([e for e in res.events if e[1] in COMMANDS]),
        "omci_delays": _sha(res.omci_delays),
        "olt_received": _sha(bytes(received)),
        "bursts": _sha(res.bursts),
        "upstream_slots": _sha(sorted(res.upstream_slots)),
        "mibs": _sha({name: sorted(mib.snapshot().items())
                      for name, mib in res.mibs.items()}),
        "relay_overflow_drops": _sha(res.relay_overflow_drops),
        "ledgers": _sha({name: ledger.records
                         for name, ledger in res.ledgers.items()}),
        "digest": digest,
        "events": json.dumps(events, sort_keys=True),
        NUMBERS: numbers(res, summary),
    }


def _child() -> None:
    import fttrsim
    out = {"fttrsim": fttrsim.__file__, "results": {}}
    for case in json.load(sys.stdin):
        out["results"][case["id"]] = record(case)
    json.dump(out, sys.stdout)


# ----------------------------------------------------------------------
# parent side


def export(rev: str, dest: Path) -> Path:
    """Extract revision `rev` of the repository into `dest`."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def start(tree: Path, cases: list[dict], python: str) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.Popen(
        [python, str(Path(__file__).resolve()), "--child"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
    proc.stdin.write(json.dumps(cases))
    proc.stdin.close()
    return proc


def finish(proc: subprocess.Popen, tree: Path) -> dict:
    out = json.loads(proc.stdout.read())
    if proc.wait() != 0:
        raise RuntimeError(f"case runner failed in {tree}")
    if not Path(out["fttrsim"]).resolve().is_relative_to(tree.resolve()):
        raise RuntimeError(f"{tree} ran fttrsim from {out['fttrsim']}")
    return out["results"]


def run_trees(trees: list[Path], cases: list[dict],
              pythons: list[str] | None = None) -> list[dict]:
    """Run `cases` in each tree, all trees at the same time, each under its
    interpreter of `pythons` (by default this one)."""
    pythons = pythons or [sys.executable] * len(trees)
    procs = [start(tree, cases, python)
             for tree, python in zip(trees, pythons)]
    return [finish(proc, tree) for proc, tree in zip(procs, trees)]


def python_name(python: str) -> str:
    """`python <version>` of the interpreter `python`."""
    return "python " + subprocess.run(
        [python, "-c", "import platform; print(platform.python_version())"],
        check=True, capture_output=True, text=True).stdout.strip()


def compare(base: dict, head: dict) -> dict:
    """{"model": [(case, field)], "events": [case]} of the differences,
    in case order."""
    model, moved = [], []
    for case, a in base.items():
        b = head.get(case, {})
        for name in sorted((set(a) | set(b)) - {NUMBERS}):
            if name not in EVENT_FIELDS and a.get(name) != b.get(name):
                model.append((case, name))
        if any(a.get(name) != b.get(name) for name in EVENT_FIELDS):
            moved.append(case)
    return {"model": model, "events": moved}


def fields_line(model: list[tuple[str, str]]) -> str:
    """`fields: <field> <cases>, ...`: in how many cases each model field
    differs, the most frequent first."""
    counts = Counter(name for _, name in model).most_common()
    return "fields: " + ", ".join(f"{name} {n}" for name, n in counts)


def relative(x: float, y: float) -> float:
    """The change from `x` to `y` relative to `x`; from 0 it is infinite."""
    return (y - x) / abs(x) if x else math.copysign(math.inf, y - x)


def explain(base: dict, head: dict) -> dict[str, dict]:
    """Per metric of the cases' `numbers`, in the order the records give
    them: the cases it moved in, the median and the largest relative change
    over every moved value (the median of their sizes), and the case, item
    and values of the largest. A case that ends with exit 2 or 3 on either
    side has no numbers to compare."""
    moves: dict[str, list] = {}
    for case, a in base.items():
        b = head.get(case, {})
        if NUMBERS not in a or NUMBERS not in b:
            continue
        for metric, values in a[NUMBERS].items():
            moved = moves.setdefault(metric, [])
            other = b[NUMBERS].get(metric, {})
            for item, x in values.items():
                y = other.get(item, x)
                if y != x:
                    moved.append((relative(x, y), case, item, x, y))
    report = {}
    for metric, moved in moves.items():
        report[metric] = entry = {"cases_moved": len({m[1] for m in moved})}
        if moved:
            change, case, item, x, y = max(moved, key=lambda m: abs(m[0]))
            entry.update(median_change=statistics.median(
                abs(m[0]) for m in moved), largest_change=change,
                case=case, item=item, base=x, head=y)
    return report


def explain_lines(report: dict[str, dict]) -> list[str]:
    """One line per metric of `explain`'s report."""
    lines = []
    for metric, entry in report.items():
        line = f"{metric}: {entry['cases_moved']} cases moved"
        if entry["cases_moved"]:
            where = entry["case"] + (f" {entry['item']}" if entry["item"]
                                     else "")
            line += (f", median {100 * entry['median_change']:.3g}%, "
                     f"largest {100 * entry['largest_change']:+.3g}% in "
                     f"{where} ({entry['base']} -> {entry['head']})")
        lines.append(line)
    return lines


def dispatched(results: dict) -> int:
    """The summed `events_dispatched` of the cases that ran to the end."""
    return sum(json.loads(r["events"])["events_dispatched"]
               for r in results.values() if "events" in r)


def source_lines(tree: Path) -> int:
    """Lines of `src/fttrsim/*.py` in `tree`, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src" / "fttrsim").glob("*.py"))


def summary_line(base_name: str, head_name: str, base: dict,
                 head: dict) -> str:
    diff = compare(base, head)
    exits = sum("exit" in r for r in head.values())
    return (f"diffcheck {base_name} -> {head_name}: {len(head)} cases "
            f"({exits} end with exit 2/3), "
            f"{len({c for c, _ in diff['model']})} differ in model fields, "
            f"digest/events_* moved in {len(diff['events'])}, "
            f"events_dispatched {dispatched(base)} -> {dispatched(head)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?", help="base revision")
    parser.add_argument("head", nargs="?",
                        help="head revision (default: the working tree)")
    parser.add_argument("--python", metavar="PATH",
                        help="in place of revisions, compare the working "
                        "tree under this interpreter and under PATH")
    parser.add_argument("--random", type=int, default=0, metavar="N",
                        help="add N random scenarios")
    parser.add_argument("--json", metavar="PATH",
                        help="write how far each run metric moved to PATH")
    args = parser.parse_args(argv)
    if (args.base is None) == (args.python is None):
        parser.error("give a base revision or --python, not both")
    cases = case_list(args.random)
    if args.python:
        base_name, head_name = python_name(sys.executable), python_name(
            args.python)
        base, head = run_trees([ROOT, ROOT], cases,
                               [sys.executable, args.python])
        n = source_lines(ROOT)
        lines = f"src/fttrsim lines: {n} -> {n}"
    else:
        base_name, head_name = args.base, args.head or "working tree"
        with tempfile.TemporaryDirectory(prefix="diffcheck-") as tmp:
            base_tree = export(args.base, Path(tmp) / "base")
            head_tree = (export(args.head, Path(tmp) / "head") if args.head
                         else ROOT)
            base, head = run_trees([base_tree, head_tree], cases)
            lines = (f"src/fttrsim lines: {source_lines(base_tree)} -> "
                     f"{source_lines(head_tree)}")
    report = explain(base, head)
    print("\n".join(explain_lines(report)))
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    diff = compare(base, head)
    if diff["model"]:
        case, name = diff["model"][0]
        print(f"first difference: case {case}, field {name}")
        print(fields_line(diff["model"]))
    if diff["events"]:
        print(f"digest/events_* moved in {len(diff['events'])} cases, "
              f"first {diff['events'][0]}")
    print(summary_line(base_name, head_name, base, head))
    print(lines)
    return 1 if diff["model"] else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        _child()
    else:
        sys.exit(main())
