"""fttrsim benchmark: one workload, one seed, tracing off or on.

Usage:
    python3 perfbench/run.py --workload downlink_grants --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout. The sweep of scenario instances is
generated from --seed (see workloads.py) and handed to child processes:
several fresh interpreters that each time one set-up, then one worker that
runs the sweep in passes for --seconds and checks every instance (see
worker.py). Report lines come first on stdout; the last line is one JSON
object with "correct", "attempted", "failed" and "metrics". With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
Exits 2 without a result when the simulator's sources are missing and 1
when a child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calibrate
from tracing import LAYER_FUNCTIONS, SPANS, handler_span
from workloads import WORKLOADS, sweep

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# fresh interpreters timed for set-up; one more runs first, unmeasured, so
# that byte-compiling the sources is not counted
SETUP_SAMPLES = 15
# every child is stopped once the run has taken this long in all
BUDGET_S = 170

# every (target class, event kind) that Simulation dispatches
HANDLER_KINDS = {
    "mfu": ("flow_arrival", "status_cycle", "alloc_cycle", "poll_cycle",
            "upstream_burst_done", "power_check"),
    "sfu": ("optical_rx", "air_delivered", "grant_start", "burst_start",
            "omci_rx", "power_check", "sleep_check", "deep_cmd", "wake_done",
            "kill", "recover"),
    "domain": ("round",),
    "olt": ("omci_rx",),
}
HANDLER_SPANS = tuple(handler_span(t, k) for t, kinds in HANDLER_KINDS.items()
                      for k in kinds)

# Self times that are reported as per-layer metrics on their own. Only spans
# that run on every workload are listed, so that no reported time is a
# constant 0; the stdout trace report gives every span's time.
TIMED_SPANS = (
    "simulation.mfu.flow_arrival", "simulation.sfu.optical_rx",
    "simulation.sfu.air_delivered", "simulation.mfu.poll_cycle",
    "simulation.sfu.power_check",
    "links.WifiCell.airtime_ns",
    "frames.pma_wire_len", "frames.classification_tag",
    "management.LivenessMonitor.record_poll",
    "energy.EnergyLedger.check_tiling", "energy.ftth_baseline_joules",
    "metrics.build_summary", "metrics.percentile",
)
# layers whose summed self time is reported (scheduling runs nothing on
# downlink_csma, so its time is in the trace report only)
TIMED_LAYERS = ("links", "frames", "management", "energy")
COUNTED_SPANS = tuple(
    f"{layer}.{name}" for layer in ("scheduling", "links", "frames",
                                    "management", "energy")
    for name in LAYER_FUNCTIONS[layer]) + ("metrics.percentile",)


class BenchError(RuntimeError):
    """A child process failed or printed no result."""


def child(script: str, payload: dict, deadline: float) -> dict:
    # children may write bytecode caches, as an installed package has them,
    # so that set-up does not time compiling the sources
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, script)],
        input=json.dumps(payload), capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 0.1), check=False, env=env)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{script} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(raw: dict, deadline: float) -> dict[str, float]:
    """Median of each normalised set-up time over fresh interpreters.

    The calibration kernel runs here right before each child starts (not in
    the child, whose imports must all be timed) and in the child right
    after its set-up."""
    child("setup_probe.py", raw, deadline)
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = calibrate.kernel_s()
        sample = child("setup_probe.py", raw, deadline)
        sample["scale"] = calibrate.scale(before, sample["kernel_s"])
        samples.append(sample)
    out = {key: statistics.median(s[key] * s["scale"] for s in samples)
           for key in ("import_s", "parse_s", "build_s", "setup_s")}
    out["raw_setup_s"] = statistics.median(s["setup_s"] for s in samples)
    return out


def per_instance(runs: list[list[dict]], value) -> float:
    """Sum over the sweep's instances of the median of ``value(run)`` over
    that instance's runs."""
    return sum(statistics.median(value(r) for r in rs) for rs in runs if rs)


def rate(runs: list[list[dict]], host: str = "ref_s") -> float:
    """Simulated seconds of one sweep pass per (median) host second."""
    host_s = per_instance(runs, lambda r: r[host])
    return per_instance(runs, lambda r: r["sim_s"]) / host_s if host_s else 0.0


def end_to_end(result: dict, setup: dict) -> dict:
    return {
        "sim_s_per_s": (rate(result["runs"]), "sim_s/s"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MiB"),
    }


def span_report(traced: list[list[dict]]) -> dict:
    """Per span, summed over one sweep pass: calls, median self and
    total time."""
    names = sorted(set(SPANS) | set(HANDLER_SPANS)
                   | {n for rs in traced for r in rs for n in r["calls"]})
    return {name: {
        "calls": sum(rs[0]["calls"].get(name, 0) for rs in traced if rs),
        "self_s": per_instance(traced, lambda r: r["self_s"].get(name, 0.0)),
        "total_s": per_instance(traced, lambda r: r["total_s"].get(name, 0.0)),
    } for name in names}


def per_layer(result: dict, setup: dict) -> dict:
    traced = result["traced_runs"]
    spans = span_report(traced)

    def count(key: str) -> int:
        return sum(rs[0]["counts"][key] for rs in traced if rs)

    def self_sum(names) -> float:
        return per_instance(traced, lambda r: sum(r["self_s"].get(n, 0.0)
                                                  for n in names))

    engine_self = self_sum([f"engine.{n}" for n in LAYER_FUNCTIONS["engine"]])
    events = count("engine.events")
    untraced, traced_rate = rate(result["runs"]), rate(traced)
    out = {
        "engine.events": (events, "count"),
        "engine.scheduled": (count("engine.scheduled"), "count"),
        "engine.self_s": (engine_self, "s"),
        "engine.ns_per_event": (engine_self / events * 1e9 if events else 0.0,
                                "ns"),
        "engine.rng_draws": (spans["engine.RngStreams.for_node"]["calls"],
                             "count"),
        "scenario.import_s": (setup["import_s"], "s"),
        "scenario.parse_s": (setup["parse_s"], "s"),
        "scenario.build_s": (setup["build_s"], "s"),
        "simulation.run_overhead_s": (per_instance(
            traced, lambda r: r["total_s"].get("simulation.Simulation.run", 0.0)
            - r["total_s"].get("engine.Simulator.run_until", 0.0)), "s"),
        "simulation.handlers.self_s": (self_sum(HANDLER_SPANS), "s"),
    }
    for name in HANDLER_SPANS + COUNTED_SPANS:
        out[f"{name}.calls"] = (spans[name]["calls"], "count")
    for name in TIMED_SPANS:
        out[f"{name}.self_s"] = (spans[name]["self_s"], "s")
    for layer in TIMED_LAYERS:
        out[f"{layer}.self_s"] = (self_sum(
            [f"{layer}.{n}" for n in LAYER_FUNCTIONS[layer]]), "s")
    for key in ("scheduling.grants", "scheduling.upstream_slots",
                "management.omci_sent", "management.omci_delivered",
                "management.omci_failed", "energy.rejected_transitions"):
        out[key] = (count(key), "count")
    out["metrics.serialize_s"] = (self_sum(
        ["metrics.summary_bytes", "metrics.flow_table_bytes"]), "s")
    out["trace.sim_s_per_s"] = (traced_rate, "sim_s/s")
    out["trace.overhead_sim_s_per_s"] = (traced_rate - untraced, "sim_s/s")
    return out


def repeat_problems(traced: list[list[dict]]) -> list[str]:
    """Counts must repeat exactly in every traced run of an instance."""
    return [f"instance {i} run {j}: traced counts differ from run 0"
            for i, rs in enumerate(traced) for j, r in enumerate(rs[1:], 1)
            if r["calls"] != rs[0]["calls"] or r["counts"] != rs[0]["counts"]]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fttrsim", "simulation.py")):
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    # The two vCPUs of the reference host run at different, changing speeds.
    # This process and its children (which inherit the mask) stay on one
    # CPU, so a span and the calibration kernel around it share a CPU.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scenarios = sweep(args.workload, args.seed)
    try:
        setup = measure_setup(scenarios[0], deadline)
        result = child("worker.py", {"scenarios": scenarios,
                                     "seconds": args.seconds,
                                     "trace": bool(args.trace)}, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = result["problems"]
    if args.trace:
        problems += repeat_problems(result["traced_runs"])
        metrics = per_layer(result, setup)
    else:
        metrics = end_to_end(result, setup)

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"instances={len(scenarios)} passes={result['passes']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    print(f"# host: nproc={os.cpu_count()} "
          f"python={platform.python_implementation()} "
          f"{platform.python_version()} {platform.machine()}")
    print(f"# raw host time: sim_s_per_s={rate(result['runs'], 'host_s')} "
          f"setup_s={setup['raw_setup_s']} "
          f"peak_rss_kb_end={result['peak_rss_kb_end']}")
    for i, fp in enumerate(result["fingerprints"]):
        print(json.dumps({"fingerprint": {
            "workload": args.workload, "seed": args.seed, "instance": i,
            "scenario_seed": scenarios[i]["seed"], **(fp or {})}},
            sort_keys=True))
    if args.trace:
        print(json.dumps({"trace_report": span_report(result["traced_runs"])},
                         sort_keys=True))
    for line in problems:
        print(f"# problem: {line}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(json.dumps({
        "correct": not problems and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
