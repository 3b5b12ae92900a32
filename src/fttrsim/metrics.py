"""Metrics assembly and machine-readable output.

One run produces a summary JSON document (stable key order, includes the
trace digest) plus a per-flow CSV table. Two runs of the same scenario and
seed produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .scenario import MFU
from .simulation import SimResults

FLOW_COLUMNS = ("offered", "delivered", "lost", "dropped", "latency_p50_ns",
                "latency_p95_ns", "latency_p99_ns")


def percentiles(values: list[int], pcts: tuple[float, ...]) -> list[int]:
    """Nearest-rank percentiles over complete per-frame records, from one
    sort of `values`."""
    ordered = sorted(values)
    n = len(ordered)
    return [ordered[int(max(1, -(-n * pct // 100))) - 1] if n else 0
            for pct in pcts]


def percentile(values: list[int], pct: float) -> int:
    return percentiles(values, (pct,))[0]


def build_summary(res: SimResults) -> dict:
    cfg = res.config
    flows = {}
    for name in sorted(res.flow_stats):
        st = res.flow_stats[name]
        lost = st.offered - st.delivered
        p50, p95, p99 = percentiles(st.latencies, (50, 95, 99))
        flows[name] = {
            "offered": st.offered,
            "delivered": st.delivered,
            "lost": lost,
            "dropped": st.dropped,
            "latency_p50_ns": p50,
            "latency_p95_ns": p95,
            "latency_p99_ns": p99,
        }
    cells = {}
    for name in sorted(res.cell_stats):
        st = res.cell_stats[name]
        cells[name] = {
            "airtime_ns": st.airtime_ns,
            "utilization": round(st.airtime_ns / cfg.horizon_ns, 9),
            "collisions": st.collisions,
        }
    nodes = {}
    total_j = 0.0
    for name in sorted(res.ledgers):
        ledger = res.ledgers[name]
        joules = ledger.joules(cfg.mfu_profile if name == MFU
                               else cfg.sfu_profile)
        total_j += joules
        nodes[name] = {
            "joules": round(joules, 9),
            "residency_ns": dict(sorted(ledger.residency_ns().items())),
        }
    ratio = total_j / res.ftth_joules if res.ftth_joules else 0.0
    summary = {
        "scenario": cfg.name,
        "seed": cfg.seed,
        "mode": cfg.mode.value,
        "horizon_ns": cfg.horizon_ns,
        "digest": res.digest,
        "flows": flows,
        "cells": cells,
        "nodes": nodes,
        "management": {
            "omci_sent": res.omci_sent,
            "omci_delivered": res.omci_delivered,
            "omci_failed": res.omci_failed,
            "max_upstream_omci_delay_ns": max(res.omci_delays, default=0),
            "alarm_count": len(res.alarms),
            "alarms": [line for a in res.alarms for line in a.log_lines()],
        },
        "uplink": {
            "bursts": len(res.bursts),
            "max_forwarding_delay_ns": max(res.bursts, default=0),
            "total_forwarding_delay_ns": sum(res.bursts),
            "relay_overflow_drops": res.relay_overflow_drops,
        },
        "energy": {
            "total_joules": round(total_j, 9),
            "ftth_joules": round(res.ftth_joules, 9),
            "fttr_ftth_ratio": round(ratio, 9),
        },
        "counters": {
            **res.counters,
            "sleep_drops": res.sleep_drops,
            "rejected_transitions": res.rejected_transitions,
        },
    }
    return summary


def summary_bytes(summary: dict) -> bytes:
    return (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()


def flow_table_bytes(summary: dict) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["flow", *FLOW_COLUMNS])
    for name, row in summary["flows"].items():
        writer.writerow([name, *[row[key] for key in FLOW_COLUMNS]])
    return buf.getvalue().encode()


def schedule_dump_bytes(res: SimResults) -> bytes:
    lines = []
    for g in res.grants:
        lines.append(
            f"GRANT {g.sfu} start={g.start} duration={g.max_duration}")
    # the OMCI slots are booked after the event loop, so the calendar is
    # written in start order
    for sfu, start, dur, tcont in sorted(res.upstream_slots,
                                         key=lambda s: (s[1], s[2])):
        lines.append(f"SLOT {sfu} start={start} duration={dur} tcont={tcont}")
    return ("\n".join(lines) + "\n").encode() if lines else b""


def write_outputs(res: SimResults, out_dir: str | Path) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = build_summary(res)
    (out / "summary.json").write_bytes(summary_bytes(summary))
    (out / "flows.csv").write_bytes(flow_table_bytes(summary))
    if res.config.dump_schedule:
        (out / "schedule.log").write_bytes(schedule_dump_bytes(res))
    alarms = summary["management"]["alarms"]
    if alarms:
        (out / "alarms.log").write_bytes(("\n".join(alarms) + "\n").encode())
    return summary


def compare_summaries(a: dict, b: dict) -> dict:
    """Per-metric deltas and ratios for two runs of the same scenario shape."""
    if set(a["flows"]) != set(b["flows"]) or set(a["cells"]) != set(b["cells"]):
        raise ValueError("summaries come from different scenarios")
    flows = {}
    for name in sorted(a["flows"]):
        fa, fb = a["flows"][name], b["flows"][name]
        flows[name] = {
            "delta_delivered": fb["delivered"] - fa["delivered"],
            "delta_p99_ns": fb["latency_p99_ns"] - fa["latency_p99_ns"],
            "p99_ratio": (fb["latency_p99_ns"] / fa["latency_p99_ns"]
                          if fa["latency_p99_ns"] else 0.0),
        }
    coll_a = sum(c["collisions"] for c in a["cells"].values())
    coll_b = sum(c["collisions"] for c in b["cells"].values())
    return {
        "a": {"scenario": a["scenario"], "mode": a["mode"], "seed": a["seed"]},
        "b": {"scenario": b["scenario"], "mode": b["mode"], "seed": b["seed"]},
        "flows": flows,
        "delta_collisions": coll_b - coll_a,
        "delta_energy_joules": round(
            b["energy"]["total_joules"] - a["energy"]["total_joules"], 9),
        "energy_ratio": (b["energy"]["total_joules"] / a["energy"]["total_joules"]
                         if a["energy"]["total_joules"] else 0.0),
    }
