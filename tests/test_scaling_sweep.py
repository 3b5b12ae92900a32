"""Smoke test of tools/scaling_sweep.py: small points in fresh
interpreters."""

import json
import subprocess
import sys
from pathlib import Path

from pytest import approx

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "scaling_sweep.py"


def run_point(point: dict) -> dict:
    out = subprocess.run([sys.executable, str(SWEEP), "--point",
                          json.dumps(point)], check=True, capture_output=True,
                         text=True, timeout=120)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert {k: result[k] for k in point} == point
    return result


def test_one_ring_point_reports_rate_and_memory():
    point = {"kind": "ring", "sfus": 4, "mode": "centralized",
             "horizon_ms": 20}
    result = run_point(point)
    assert result["events"] > 0
    assert result["events_per_s"] > 0
    assert result["us_per_event"] * result["events_per_s"] == approx(1e6)
    assert (result["s_per_sim_s"] * point["horizon_ms"] / 1000
            == approx(result["ref_s"]))
    assert result["peak_rss_mb"] > 0
    # gen-0, gen-1 and gen-2 collections during the run, and their time
    assert len(result["gc_collections"]) == 3
    assert result["gc_s"] >= 0


def test_one_storm_point_reports_cost_and_memory():
    point = {"kind": "storm", "mode": "centralized", "horizon_ms": 20}
    result = run_point(point)
    assert (result["s_per_sim_s"] * point["horizon_ms"] / 1000
            == approx(result["ref_s"]))
    assert result["s_per_sim_s"] > 0
    assert result["peak_rss_mb"] > 0
    # the run allocates enough to start the collector
    assert result["gc_collections"][0] > 0
    assert 0 < result["gc_s"] < result["host_s"]
