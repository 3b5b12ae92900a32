"""Scaling sweep: wall time per simulated second, events/s, microseconds
per event and peak memory of the simulator as the number of rooms and the
horizon grow.

Points:
  - a conflict ring of 4, 8, 16, 32 and 64 rooms, one constant-rate
    downlink flow per room of 1500 B frames, for 1 s. Each room gets
    20 Mb/s, or the largest whole Mb/s below it that keeps the offered
    load on the MFU's downstream link at most 0.8: 11 Mb/s at 64 rooms
  - scenarios/conflict_pair.yaml over 1, 10 and 40 s
each in centralized and distributed mode, and
  - the 64-room ring at 20 Mb/s per room, in centralized mode, labelled
    ``overload``: it offers the link 1.39 times what it carries
  - an OMCI storm over 8 rooms, one request per 250 us allocation cycle
    and nothing else, over 1, 10 and 40 s, in centralized mode: the
    management plane's own scaling, and the memory its retained records
    (responses at the OLT, upstream slots) take as the horizon grows
  - the uplink bursts of the benchmark's seed-41 `control_plane` instance
    (8 rooms, half of them coordinated) and nothing else: no storm, no
    flows, no kill and no sleep, over 1, 10 and 40 s, in centralized mode:
    the cost of the burst pass, with the OMCI slot booking every burst run
    makes
  - the OMCI codec alone (kind "omci_codec"): `encode_omci` and
    `decode_omci` calls per second, for each of the three message shapes
    a storm sends: an extended SET request with 16 B of content, its
    standard form, and an extended SET_RESPONSE.

Every run of a point is made in a fresh interpreter (this script with
--point), through the benchmark's ``perfbench/worker.simulate``: the timed
span runs from ``Simulation.run()`` to the bytes of summary.json and
flows.csv. The calibration kernel of ``perfbench/calibrate.py`` is timed
right before and right after the span, and ``ref_s`` is the span scaled to
the kernel's reference host, as the benchmark does. Peak RSS is the
child's maximum resident set, interpreter and imports included.
``gc_collections`` counts the garbage collector's gen-0, gen-1 and gen-2
collections during ``simulate``, and ``gc_s`` the time spent in them, both
read with ``gc.callbacks``: records a run retains cost time too, as every
gen-1 and gen-2 collection scans them again. After the timed run and its
peak RSS, the point is run once more, untimed, under ``tracemalloc``:
``traced_peak_kib`` is that run's traced peak and ``retained_kib`` what it
still holds with its results kept, both in KiB of Python allocations.
``offered_load`` is the offered load on the MFU's downstream link, framing
included: Σ frame rate × optical time per frame over the flows, all of
them constant-rate.
``s_per_sim_s`` is ``ref_s`` per simulated second: unlike events/s, it
compares two versions of the simulator that reach the same outputs with
different numbers of events. A single run of a second or less still
varies by up to a third with the host's speed, so each point is run 5
times and reported by its median, with the lowest and highest s_per_sim_s
and events/s. The codec point times `CODEC_CALLS` calls per shape and
direction, with the kernel right before and right after, `REPEATS` times
in one interpreter, and reports the median rate per shape, scaled to the
reference host.

Usage, from the root of a source checkout:
    python3 tools/scaling_sweep.py
    python3 tools/scaling_sweep.py --point \
        '{"kind": "ring", "sfus": 4, "mode": "centralized", "horizon_ms": 20}'
    python3 tools/scaling_sweep.py --point '{"kind": "omci_codec"}'
    python3 tools/scaling_sweep.py --point \
        '{"kind": "uplink_bursts", "mode": "centralized", "horizon_ms": 1000}'
One line per point goes to stderr; stdout gets one JSON object per run
(with --point) or one JSON list of all points.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

RING_SIZES = (4, 8, 16, 32, 64)
MODES = ("centralized", "distributed")
RING_MS = 1000
RING_RATE_MBPS = 20  # per room, unless that overloads the MFU link
MAX_LOAD = 0.8  # the largest offered downstream load of a ring point
HORIZONS_S = (1, 10, 40)  # conflict_pair, the OMCI storm and the bursts
STORM_ROOMS = 8
STORM_CYCLE_US = 250
REPEATS = 5  # fresh-interpreter runs per point
CODEC_CALLS = 20_000  # codec calls per shape and direction in one timed run


def ring(sfus: int, mode: str, horizon_ms: float,
         rate_mbps: int | None = None) -> dict:
    """A conflict ring of `sfus` rooms, one constant-rate flow of 1500 B
    frames to each, at `rate_mbps`, by default `ring_rate_mbps(sfus)`."""
    if rate_mbps is None:
        rate_mbps = ring_rate_mbps(sfus)
    rooms = [f"room{i:02d}" for i in range(sfus)]
    return {
        "name": f"ring{sfus}_{mode}",
        "horizon_ms": horizon_ms,
        "mode": mode,
        "topology": {"sfus": rooms,
                     "conflicts": [[rooms[i], rooms[(i + 1) % sfus]]
                                   for i in range(sfus)]},
        "flows": [{"name": f"dl_{room}", "dst": room, "size_bytes": 1500,
                   "model": "constant_rate", "rate_mbps": rate_mbps}
                  for room in rooms],
        "energy": {"savings_enabled": False},
    }


def offered_load(raw: dict) -> float:
    """The offered load on the MFU's downstream link in scenario `raw`, of
    constant-rate flows: Σ frame rate × optical time per frame, framing
    included."""
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    from fttrsim.scenario import parse_scenario
    from fttrsim.simulation import Simulation

    return sum(flow.optical_ns / flow.interarrival_ns
               for flow in Simulation(parse_scenario(raw)).flows)


def ring_rate_mbps(sfus: int) -> int:
    """The per-room rate of a ring point: RING_RATE_MBPS, or the largest
    whole Mb/s below it whose offered load stays at most MAX_LOAD."""
    rate = RING_RATE_MBPS
    while offered_load(ring(sfus, "centralized", RING_MS, rate)) > MAX_LOAD:
        rate -= 1
    return rate


def conflict_pair(mode: str, horizon_ms: float) -> dict:
    import yaml
    with open(os.path.join(ROOT, "scenarios", "conflict_pair.yaml"),
              encoding="utf-8") as f:
        raw = yaml.safe_load(f)
    return {**raw, "mode": mode, "horizon_ms": horizon_ms}


def storm(mode: str, horizon_ms: float) -> dict:
    """Rooms that only answer OMCI: one SET request in every allocation
    cycle that starts by the horizon, round robin over the rooms."""
    rooms = [f"room{i}" for i in range(STORM_ROOMS)]
    cycles = int(horizon_ms * 1000) // STORM_CYCLE_US + 1
    return {
        "name": f"storm{STORM_ROOMS}",
        "horizon_ms": horizon_ms,
        "mode": mode,
        "topology": {"sfus": rooms},
        "control": {"alloc_cycle_us": STORM_CYCLE_US},
        "management": {"storm": {"count": cycles, "entity_class": 257,
                                 "content_bytes": 16}},
        "energy": {"savings_enabled": False},
    }


def uplink_bursts(mode: str, horizon_ms: float) -> dict:
    """The rooms, alloc cycle and uplink bursts of the first instance of the
    benchmark's seed-41 `control_plane` sweep, and nothing else."""
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    from workloads import sweep

    raw = sweep("control_plane", 41)[0]
    return {"name": "bursts8", "horizon_ms": horizon_ms, "mode": mode,
            **{key: raw[key] for key in ("topology", "control",
                                         "uplink_bursts")},
            "energy": {"savings_enabled": False}}


def scenario(point: dict) -> dict:
    if point["kind"] == "ring":
        return ring(point["sfus"], point["mode"], point["horizon_ms"],
                    point.get("rate_mbps"))
    if point["kind"] == "storm":
        return storm(point["mode"], point["horizon_ms"])
    if point["kind"] == "uplink_bursts":
        return uplink_bursts(point["mode"], point["horizon_ms"])
    return conflict_pair(point["mode"], point["horizon_ms"])


def omci_codec(point: dict) -> dict:
    """Encodes/s and decodes/s of each OMCI message shape a storm sends,
    on the reference host: the median of `REPEATS` timed runs."""
    sys.path[:0] = [PERFBENCH, os.path.join(ROOT, "src")]
    import calibrate
    from fttrsim.frames import OmciMessage, OmciType, decode_omci, encode_omci

    shapes = {
        "extended_set": OmciMessage(1, OmciType.SET, 257, 1, bytes(16), 1, 1),
        "standard_set": OmciMessage(1, OmciType.SET, 257, 1, bytes(16)),
        "extended_set_response": OmciMessage(1, OmciType.SET_RESPONSE, 257, 1,
                                             b"", 1, 1),
    }
    rates = {(name, op): [] for name in shapes for op in ("encode", "decode")}
    for _ in range(REPEATS):
        host = {}
        before = calibrate.kernel_s()
        for name, msg in shapes.items():
            data = encode_omci(msg)
            if decode_omci(data) != msg:
                raise RuntimeError(f"{name} does not decode to itself")
            for op, call, arg in (("encode", encode_omci, msg),
                                  ("decode", decode_omci, data)):
                t0 = time.perf_counter()
                for _ in range(CODEC_CALLS):
                    call(arg)
                host[name, op] = time.perf_counter() - t0
        scale = calibrate.scale(before, calibrate.kernel_s())
        for key, host_s in host.items():
            rates[key].append(CODEC_CALLS / (host_s * scale))
    return {**point, **{
        f"{op}s_per_s": {name: statistics.median(rates[name, op])
                         for name in shapes}
        for op in ("encode", "decode")}}


def run_point(point: dict) -> dict:
    """Time one point in this interpreter."""
    if point["kind"] == "omci_codec":
        return omci_codec(point)
    sys.path.insert(0, PERFBENCH)
    import calibrate
    import worker

    raw = scenario(point)
    collections = [0, 0, 0]
    gc_s = started = 0.0

    def on_gc(phase: str, info: dict) -> None:
        nonlocal gc_s, started
        if phase == "start":
            started = time.perf_counter()
        else:
            gc_s += time.perf_counter() - started
            collections[info["generation"]] += 1

    before = calibrate.kernel_s()
    gc.callbacks.append(on_gc)
    try:
        run = worker.simulate(raw)
    finally:
        gc.callbacks.remove(on_gc)
    after = calibrate.kernel_s()
    events = run["res"].counters["events_dispatched"]
    ref_s = run["host_s"] * calibrate.scale(before, after)
    result = {**point, "events": events, "host_s": run["host_s"],
              "ref_s": ref_s, "offered_load": offered_load(raw),
              "s_per_sim_s": ref_s / (point["horizon_ms"] / 1000),
              "events_per_s": events / ref_s,
              "us_per_event": ref_s / events * 1e6,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024,
              "gc_collections": collections, "gc_s": gc_s,
              "digest": run["res"].digest}
    # the untimed second run, under tracemalloc: its peak, and what it
    # still holds while `run` keeps its results
    del run
    tracemalloc.start()
    try:
        run = worker.simulate(raw)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {**result, "traced_peak_kib": peak / 1024,
            "retained_kib": retained / 1024}


def points() -> list[dict]:
    out = [{"kind": "ring", "sfus": n, "mode": mode, "horizon_ms": RING_MS,
            "rate_mbps": ring_rate_mbps(n)}
           for n in RING_SIZES for mode in MODES]
    out.append({"kind": "ring", "sfus": 64, "mode": "centralized",
                "horizon_ms": RING_MS, "rate_mbps": RING_RATE_MBPS,
                "label": "overload"})
    out += [{"kind": "conflict_pair", "mode": mode, "horizon_ms": s * 1000}
            for s in HORIZONS_S for mode in MODES]
    out += [{"kind": kind, "mode": "centralized", "horizon_ms": s * 1000}
            for kind in ("storm", "uplink_bursts") for s in HORIZONS_S]
    return out


def child(point: dict) -> dict | None:
    """One run of `point` in a fresh interpreter; None if it fails."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--point",
         json.dumps(point)], capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--point", help="run one point, given as JSON, here")
    args = ap.parse_args(argv)
    if args.point:
        print(json.dumps(run_point(json.loads(args.point))))
        return 0
    # as perfbench/run.py does: this process and its children stay on one
    # CPU, so a span and the kernel around it share a CPU
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # the codec point takes its median of REPEATS runs in one interpreter
    codec = child({"kind": "omci_codec"})
    if codec is None:
        return 1
    print(" ".join(f"{name} {codec['encodes_per_s'][name]:.0f}/"
                   f"{codec['decodes_per_s'][name]:.0f}"
                   for name in codec["encodes_per_s"])
          + " encodes/decodes per s", file=sys.stderr)
    results = [codec]
    for point in points():
        runs = []
        for _ in range(REPEATS):
            run = child(point)
            if run is None:
                return 1
            runs.append(run)
        rates = [r["events_per_s"] for r in runs]
        costs = [r["s_per_sim_s"] for r in runs]
        result = {**point, "events": runs[0]["events"],
                  "digest": runs[0]["digest"], "runs": len(runs),
                  "offered_load": runs[0]["offered_load"],
                  "s_per_sim_s": statistics.median(costs),
                  "s_per_sim_s_min": min(costs),
                  "s_per_sim_s_max": max(costs),
                  "events_per_s": statistics.median(rates),
                  "events_per_s_min": min(rates),
                  "events_per_s_max": max(rates),
                  "us_per_event": statistics.median(
                      r["us_per_event"] for r in runs),
                  "peak_rss_mb": statistics.median(
                      r["peak_rss_mb"] for r in runs),
                  "gc_collections": [statistics.median(
                      r["gc_collections"][g] for r in runs) for g in range(3)],
                  "gc_s": statistics.median(r["gc_s"] for r in runs),
                  "traced_peak_kib": statistics.median(
                      r["traced_peak_kib"] for r in runs),
                  "retained_kib": statistics.median(
                      r["retained_kib"] for r in runs)}
        results.append(result)
        label = (f"ring{point['sfus']}" if point["kind"] == "ring"
                 else point["kind"])
        if "label" in point:
            label += f" {point['label']}"
        print(f"{label:>14} {point['mode']:<12} "
              f"{point['horizon_ms'] / 1000:6.2f} s  "
              f"{result['s_per_sim_s']:6.3f} s/sim_s "
              f"({min(costs):.3f}-{max(costs):.3f})  "
              f"{result['events_per_s']:9.0f} events/s "
              f"({min(rates):.0f}-{max(rates):.0f})  "
              f"{result['us_per_event']:6.2f} us/event  "
              f"{result['peak_rss_mb']:6.1f} MiB  "
              f"load {result['offered_load']:.3f}", file=sys.stderr)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
