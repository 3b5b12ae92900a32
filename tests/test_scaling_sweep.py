"""Smoke test of tools/scaling_sweep.py: small points and the OMCI codec
point in fresh interpreters, and the scenario of the uplink bursts point;
and the memory an OMCI storm run retains per cycle."""

import gc
import importlib.util
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

from pytest import approx

from fttrsim.scenario import parse_scenario
from fttrsim.simulation import Simulation

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
    # four rooms at 20 Mb/s: 1500 B frames every 600 us, each 13,056 ns on
    # the MFU link (PMA framing included)
    assert result["offered_load"] == approx(4 * 13_056 / 600_000)


def test_ring_points_stay_below_the_link_but_one_overload_point():
    sweep = load_sweep()
    loads = {(p["sfus"], p["mode"], p.get("label")):
             (p["rate_mbps"], sweep.offered_load(sweep.scenario(p)))
             for p in sweep.points() if p["kind"] == "ring"}
    assert {key: rate for key, (rate, _) in loads.items()} == {
        **{(n, mode, None): 20 if n < 64 else 11
           for n in (4, 8, 16, 32, 64)
           for mode in ("centralized", "distributed")},
        (64, "centralized", "overload"): 20}
    assert loads[64, "centralized", "overload"][1] == approx(1.39264)
    assert max(load for key, (_, load) in loads.items()
               if key[2] is None) == approx(0.7659513617)
    # one Mb/s more per room would pass 0.8
    assert sweep.offered_load(sweep.ring(64, "centralized", 1000, 12)) > 0.8


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
    # the untraced timed run, then a second run under tracemalloc
    assert 0 < result["retained_kib"] <= result["traced_peak_kib"]


def test_one_uplink_bursts_point_reports_cost_and_memory():
    point = {"kind": "uplink_bursts", "mode": "centralized", "horizon_ms": 20}
    result = run_point(point)
    assert (result["s_per_sim_s"] * point["horizon_ms"] / 1000
            == approx(result["ref_s"]))
    assert result["s_per_sim_s"] > 0
    assert result["peak_rss_mb"] > 0
    assert 0 < result["retained_kib"] <= result["traced_peak_kib"]


def test_the_uplink_bursts_point_runs_the_control_plane_bursts_alone():
    raw = load_sweep().uplink_bursts("centralized", 20)
    assert "flows" not in raw and "management" not in raw
    bursts = raw["uplink_bursts"]
    assert len(bursts) == len(raw["topology"]["sfus"]) == 8
    assert sum(b["coordinated"] for b in bursts) == 4
    res = Simulation(parse_scenario(raw)).run()
    assert res.bursts and res.omci_sent == 0


def test_the_omci_codec_point_reports_calls_per_second_per_shape():
    result = run_point({"kind": "omci_codec"})
    shapes = {"extended_set", "standard_set", "extended_set_response"}
    for rates in (result["encodes_per_s"], result["decodes_per_s"]):
        assert set(rates) == shapes
        assert all(rate > 0 for rate in rates.values())


def load_sweep():
    spec = importlib.util.spec_from_file_location("scaling_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_storm_run_retains_at_most_150_bytes_per_cycle():
    # what a finished storm run still holds grows with its cycles: one OMCI
    # slot, one response's bytes and one list entry for its delay, an int
    # every response shares. Measured as the difference
    # between a 100 ms and a 300 ms storm, 800 cycles apart, with the
    # results held; it repeats to the byte
    storm = load_sweep().storm

    def held(horizon_ms: float) -> tuple[int, int]:
        cfg = parse_scenario(storm("centralized", horizon_ms))
        gc.collect()
        tracemalloc.start()
        try:
            res = Simulation(cfg).run()
            gc.collect()
            return tracemalloc.get_traced_memory()[0], res.omci_sent
        finally:
            tracemalloc.stop()

    held(100)  # warm up: first-use caches are not what a cycle retains
    (small, n_small), (large, n_large) = held(100), held(300)
    assert n_large - n_small == 800
    assert (large - small) / (n_large - n_small) <= 150
