"""Child process of the benchmark: runs one workload's sweep and checks it.

Reads ``{"scenarios": [...], "seconds": S, "trace": bool}`` as JSON on
stdin and prints one JSON object on stdout. The sweep's instances are run
in passes until ``seconds`` of host time have gone by (at least
``MIN_PASSES`` passes, so that every instance is re-run and its outputs
compared with its first run). With ``trace`` each instance is run once
untraced and once under ``tracing.Tracer``. The calibration kernel runs
between instances (see calibrate.py).

Usage: python3 perfbench/worker.py < request.json
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from fttrsim import metrics, scheduling  # noqa: E402
from fttrsim.scenario import parse_scenario  # noqa: E402
from fttrsim.simulation import Simulation  # noqa: E402

import calibrate  # noqa: E402
from tracing import Tracer  # noqa: E402

MIN_PASSES = 2


def simulate(raw: dict, tracer: Tracer | None = None) -> dict:
    """Run one instance through the public API.

    The timed span runs from ``Simulation.run()`` to the bytes of
    ``summary.json`` and ``flows.csv``. Functions are looked up on their
    modules at call time so that an active tracer's wrappers are used.
    """
    cfg = parse_scenario(raw)
    with tracer or nullcontext():
        sim = Simulation(cfg)
        t0 = time.perf_counter()
        res = sim.run()
        summary = metrics.build_summary(res)
        summary_b = metrics.summary_bytes(summary)
        flows_b = metrics.flow_table_bytes(summary)
        host_s = time.perf_counter() - t0
    return {"sim": sim, "res": res, "summary": summary, "host_s": host_s,
            "sim_s": cfg.horizon_ns / 1e9, "summary_bytes": summary_b,
            "flows_bytes": flows_b}


def _overlap_clusters(grants: list) -> list[list]:
    """Split grants into groups such that any two grants whose air times
    overlap fall in the same group."""
    clusters: list[list] = []
    cluster_end = None
    for g in sorted(grants, key=lambda g: (g.start, g.max_duration, g.sfu)):
        if cluster_end is None or g.start >= cluster_end:
            clusters.append([])
            cluster_end = g.start
        clusters[-1].append(g)
        cluster_end = max(cluster_end, g.start + g.max_duration)
    return clusters


def check_outputs(run: dict) -> list[str]:
    """Correctness gate of one instance; returns the problems found."""
    problems = []
    for name, row in run["summary"]["flows"].items():
        if row["offered"] < row["delivered"] + row["dropped"]:
            problems.append(f"flow {name}: offered {row['offered']} < "
                            f"delivered {row['delivered']} + "
                            f"dropped {row['dropped']}")
    res, graph = run["res"], run["sim"].graph
    for cluster in _overlap_clusters(res.grants):
        bad = scheduling.check_grant_overlap(cluster, graph)
        if bad:
            problems.append(f"{len(bad)} overlapping grant pairs, first {bad[0]}")
            break
    slots = sorted(res.upstream_slots, key=lambda s: (s[1], s[2]))
    for a, b in zip(slots, slots[1:]):
        if a[1] + a[2] > b[1]:
            problems.append(f"upstream slots overlap: {a} and {b}")
            break
    return problems


def fingerprint(run: dict) -> dict:
    """Simulated-time outputs of one instance; identical on every host."""
    summary = run["summary"]
    flows = summary["flows"].values()
    return {
        "model.offered": sum(f["offered"] for f in flows),
        "model.delivered": sum(f["delivered"] for f in flows),
        "model.latency_p99_ns": max((f["latency_p99_ns"] for f in flows),
                                    default=0),
        "model.collisions": sum(c["collisions"]
                                for c in summary["cells"].values()),
        "model.omci_delay_max_ns":
            summary["management"]["max_upstream_omci_delay_ns"],
        "model.forwarding_delay_max_ns":
            summary["uplink"]["max_forwarding_delay_ns"],
        "model.total_joules": summary["energy"]["total_joules"],
        "digest.trace": run["res"].digest,
        "digest.summary": hashlib.sha256(run["summary_bytes"]).hexdigest(),
    }


def counts(run: dict) -> dict:
    """Exact per-layer counters of one instance, read from its results."""
    res, summary = run["res"], run["summary"]
    counters, mgmt = summary["counters"], summary["management"]
    return {
        "engine.events": counters["events_dispatched"],
        "engine.scheduled": counters["events_scheduled"],
        "scheduling.grants": len(res.grants),
        "scheduling.upstream_slots": len(res.upstream_slots),
        "management.omci_sent": mgmt["omci_sent"],
        "management.omci_delivered": mgmt["omci_delivered"],
        "management.omci_failed": mgmt["omci_failed"],
        "energy.rejected_transitions": counters["rejected_transitions"],
    }


def attempt(raw: dict, reference: dict | None,
            tracer: Tracer | None = None) -> tuple[dict | None, list[str]]:
    """Run and check one instance; return its timing, fingerprint and
    counters, and the problems found. ``reference`` is the fingerprint of
    an earlier run of the same instance, which this run must reproduce.
    The simulation's results are dropped on return, so that one instance
    at a time is held in memory."""
    try:
        run = simulate(raw, tracer)
    except Exception:
        return None, [traceback.format_exc(limit=3)]
    problems = check_outputs(run)
    record = {"sim_s": run["sim_s"], "host_s": run["host_s"],
              "fingerprint": fingerprint(run), "counts": counts(run)}
    if reference is not None:
        for key in ("digest.trace", "digest.summary"):
            if record["fingerprint"][key] != reference[key]:
                problems.append(f"{key} not reproduced: "
                                f"{record['fingerprint'][key]} != "
                                f"{reference[key]}")
    return record, problems


def run_sweep(scenarios: list[dict], seconds: float, trace: bool) -> dict:
    """Run the sweep in passes; per instance, list every checked run.

    Each run's host time is normalised by the calibration kernel timed
    right before and right after it (``ref_s``); a traced run's span times
    are normalised by the same factor."""
    deadline = time.perf_counter() + seconds
    references: list[dict | None] = [None] * len(scenarios)
    runs: list[list[dict]] = [[] for _ in scenarios]
    traced_runs: list[list[dict]] = [[] for _ in scenarios]
    problems: list[str] = []
    attempted = failed = passes = 0
    peak_rss_kb = None
    kernel_before = calibrate.kernel_s()

    def measure(i: int, tracer: Tracer | None) -> dict | None:
        nonlocal attempted, failed, kernel_before
        attempted += 1
        record, bad = attempt(scenarios[i], references[i], tracer)
        kernel_after = calibrate.kernel_s()
        scale = calibrate.scale(kernel_before, kernel_after)
        kernel_before = kernel_after
        if record is not None and references[i] is None:
            references[i] = record["fingerprint"]
        if bad:
            failed += 1
            label = "traced instance" if tracer else "instance"
            problems.append(f"{label} {i} pass {passes}: " + "; ".join(bad))
            return None
        return {"sim_s": record["sim_s"], "host_s": record["host_s"],
                "ref_s": record["host_s"] * scale, "scale": scale,
                "counts": record["counts"]}

    while passes < MIN_PASSES or time.perf_counter() < deadline:
        for i in range(len(scenarios)):
            run = measure(i, None)
            if run is not None:
                runs[i].append(run)
            if not trace:
                continue
            tracer = Tracer()
            # the traced run must reproduce the untraced run's digests
            run = measure(i, tracer)
            if run is not None:
                run["calls"] = dict(tracer.calls)
                run["self_s"] = {k: v * run["scale"]
                                 for k, v in tracer.self_s.items()}
                run["total_s"] = {k: v * run["scale"]
                                  for k, v in tracer.total_s.items()}
                traced_runs[i].append(run)
        passes += 1
        if peak_rss_kb is None:
            # after one pass every instance has run once; later passes
            # repeat the same work, so this does not depend on host speed
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "passes": passes,
        "runs": runs,
        "traced_runs": traced_runs,
        "fingerprints": references,
        "peak_rss_kb": peak_rss_kb,
        "peak_rss_kb_end": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main() -> int:
    request = json.load(sys.stdin)
    result = run_sweep(request["scenarios"], request["seconds"],
                       request["trace"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
