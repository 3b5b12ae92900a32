"""End-to-end acceptance checks. Each test prints one PASS/FAIL line on the
real stdout so the verdicts survive pytest's capture."""

import functools
import itertools
import json
import random
import sys
import time
from pathlib import Path

import pytest
import yaml

from fttrsim import frames as fr, framing as fm
from fttrsim.energy import PowerState
from fttrsim.engine import RngStreams
from fttrsim.links import InterferenceGraph
from fttrsim.management import AlarmKind
from fttrsim.metrics import build_summary, summary_bytes, percentile
from fttrsim.scenario import load_scenario, parse_scenario
from fttrsim.scheduling import (check_grant_overlap, report_order_key,
                                SfuStatusReport, phy_relay_buffer_bytes,
                                phy_relay_slot_ns)
from fttrsim.simulation import run_scenario_config

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
DATA = Path(__file__).resolve().parent / "data"


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} {label}: FAIL", file=sys.__stdout__)
                raise
            print(f"criterion {num:2d} {label}: PASS", file=sys.__stdout__)
        return wrapper
    return deco


@functools.lru_cache(maxsize=None)
def conflict_run(mode, seed):
    cfg = load_scenario(SCENARIOS / "conflict_pair.yaml",
                        {"mode": mode, "seed": seed})
    t0 = time.monotonic()
    res = run_scenario_config(cfg)
    return res, time.monotonic() - t0


@functools.lru_cache(maxsize=None)
def scenario_run(name):
    return run_scenario_config(load_scenario(SCENARIOS / f"{name}.yaml"))


# ---------------------------------------------------------------------------
# 1. codec soundness

@criterion(1, "codec roundtrips")
def test_codec_roundtrips_at_scale():
    n = 100_000
    rng = random.Random(0xC0DEC)
    t0 = time.monotonic()

    for _ in range(n):
        frame = fm.FemFrame(fm.FemKind(rng.randint(1, 3)),
                            rng.randint(0, 0xFFFF),
                            rng.randbytes(rng.randint(1, 24)))
        back, _ = fm.parse_fem_frame(frame.encode())
        assert back == frame

    pool = [fm.FemFrame(fm.FemKind.APDU, i, bytes([i % 251] or [1]) * (i % 9 + 1))
            for i in range(64)]
    for i in range(n):
        mpdu = fm.Mpdu(tuple(pool[(i + k) % 64] for k in range(1 + i % 3)))
        assert fm.Mpdu.decode(mpdu.encode()) == mpdu

    for i in range(n):
        entries, offset = [], 0
        for k in range(i % 3):
            dur = rng.randint(1, 500)
            entries.append(fm.TamapEntry(k, offset, dur, 1 if k == 0 else 2))
            offset += dur + rng.randint(1, 50)
        ploams = [fm.PloamMsg(fm.PloamKind(rng.randint(1, 5)),
                              rng.randint(0, 0xFFFF), rng.randint(0, 2**32 - 1))
                  for _ in range(i % 3)]
        pcs = fm.PcsFrame(tuple(ploams), fm.Tamap(i, tuple(entries)),
                          rng.randbytes(rng.randint(0, 16)))
        assert fm.parse_pcs_frame(pcs.encode()) == pcs

    for i in range(n):
        extended = i % 2 == 0
        msg = fr.OmciMessage(
            rng.randint(0, 0xFFFF), fr.OmciType(rng.randint(1, 5)),
            rng.randint(0, 0xFFFF), rng.randint(0, 0xFFFF),
            rng.randbytes(rng.randint(0, 12)),
            rng.randint(0, 255) if extended else None,
            rng.randint(0, 255) if extended else None)
        assert fr.decode_omci(fr.encode_omci(msg)) == msg

    for _ in range(n):
        data = rng.randbytes(rng.randint(1, 48))
        assert fm.pma_decode(fm.pma_encode(data)) == data

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"codec sweep took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 2. determinism

@criterion(2, "deterministic outputs")
def test_repeat_runs_are_byte_identical():
    runs = []
    for _ in range(2):
        res = run_scenario_config(load_scenario(SCENARIOS / "golden.yaml"))
        runs.append(summary_bytes(build_summary(res)))
    assert runs[0] == runs[1]
    frozen = (DATA / "golden_summary.json").read_bytes()
    assert runs[0] == frozen, "output drifted from the pinned reference"


# ---------------------------------------------------------------------------
# 3. contention-free coordination

@criterion(3, "contention-free air interface")
def test_coordination_eliminates_collisions():
    cen, cen_wall = conflict_run("centralized", 1)
    dis, dis_wall = conflict_run("distributed", 1)
    assert sum(c.collisions for c in cen.cell_stats.values()) == 0
    assert sum(c.collisions for c in dis.cell_stats.values()) > 0
    assert cen_wall < 10.0 and dis_wall < 10.0


# ---------------------------------------------------------------------------
# 4. latency benefit

@criterion(4, "coordinated latency no worse at p99")
def test_centralized_p99_not_worse_across_seeds():
    for seed in (1, 2, 3, 4, 5):
        cen, _ = conflict_run("centralized", seed)
        dis, _ = conflict_run("distributed", seed)
        for flow in cen.flow_stats:
            p_cen = percentile(cen.flow_stats[flow].latencies, 99)
            p_dis = percentile(dis.flow_stats[flow].latencies, 99)
            assert p_cen <= p_dis, (flow, seed, p_cen, p_dis)


# ---------------------------------------------------------------------------
# 5. schedule validity

def _sweep_configs():
    topologies = [
        (["a", "b"], [("a", "b")]),
        (["a", "b", "c"], [("a", "b"), ("b", "c")]),
        (["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]),
        (["a", "b", "c", "d"], [("a", "b"), ("c", "d")]),
        (["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]),
    ]
    # each topology at the default processing delay, and at that of a
    # MAC-integrated MFU (25 us)
    processing = [{}, {"processing_us": 25}]
    configs = []
    for i, ((sfus, conflicts), proc) in enumerate(itertools.product(
            topologies, processing)):
        for seed in (1, 2):
            flows = [{"name": f"f{j}", "dst": s, "size_bytes": 3000 + 500 * j,
                      "rate_mbps": 20 + 7 * j, "priority": (3 * j + i) % 8,
                      "service_class": "video"}
                     for j, s in enumerate(sfus)]
            raw = {
                "name": f"sweep{i}_{seed}", "seed": seed, "horizon_ms": 100,
                "mode": "centralized", **proc,
                "topology": {"sfus": list(sfus),
                             "conflicts": [list(c) for c in conflicts]},
                "wifi": {"air_rate_mbps": 300},
                "flows": flows,
                "uplink_bursts": [{"sfu": sfus[0], "period_us": 500,
                                   "air_duration_us": 50,
                                   "rus": [{"sta": "s", "bytes": 2000}]}],
                "energy": {"savings_enabled": False},
            }
            configs.append(raw)
    return configs


@criterion(5, "schedule structural validity")
def test_sweep_emits_no_overlapping_allocations():
    configs = _sweep_configs()
    assert len(configs) == 20
    for raw in configs:
        cfg = parse_scenario(raw)
        res = run_scenario_config(cfg)
        graph = InterferenceGraph(cfg.conflicts, cfg.sfus)
        assert res.grants, raw["name"]
        assert check_grant_overlap(res.grants, graph) == [], raw["name"]
        slots = sorted(res.upstream_slots, key=lambda s: s[1])
        for (_, s0, d0, _), (_, s1, _, _) in zip(slots, slots[1:]):
            assert s1 >= s0 + d0, (raw["name"], s0, d0, s1)

    # brute-force comparator: every permutation of <= 5 distinct reports
    # sorts to the same sequence, so the grant order is a strict total order
    rng = random.Random(55)
    for trial in range(8):
        size = trial % 5 + 1
        reports = [SfuStatusReport(f"s{k}", rng.randint(0, 3) * 1000,
                                   rng.randint(0, 7), 0)
                   for k in range(size)]
        keys = [report_order_key(r) for r in reports]
        assert len(set(keys)) == len(reports)
        reference = sorted(reports, key=report_order_key)
        for perm in itertools.permutations(reports):
            assert sorted(perm, key=report_order_key) == reference


# ---------------------------------------------------------------------------
# 6. OFDMA coordination

@criterion(6, "pre-granted uplink slots remove queue delay")
def test_uplink_forwarding_delay():
    res = scenario_run("ofdma_uplink_burst")
    assert len(res.bursts) > 10
    assert all(delay == 0 for delay in res.bursts)

    raw = yaml.safe_load((SCENARIOS / "ofdma_uplink_burst.yaml").read_text())
    raw["uplink_bursts"][0]["coordinated"] = False
    uncoord = run_scenario_config(parse_scenario(raw))
    assert len(uncoord.bursts) > 10
    assert all(delay > 0 for delay in uncoord.bursts)


# ---------------------------------------------------------------------------
# 7. management plane

@criterion(7, "management plane storm, bounded delay and alarms")
def test_provisioning_storm_and_fault_alarm():
    cfg = load_scenario(SCENARIOS / "provisioning_storm.yaml")
    res = run_scenario_config(cfg)

    # independent replay of the storm against plain dictionaries
    rng = RngStreams(cfg.seed).for_node("olt")
    expected = {s: {} for s in cfg.sfus}
    for i in range(cfg.storm.count):
        target = cfg.storm.targets[i % len(cfg.storm.targets)]
        content = bytes(rng.randrange(256)
                        for _ in range(cfg.storm.content_bytes))
        expected[target][(cfg.storm.entity_class, i % 64)] = content
    for s in cfg.sfus:
        assert res.mibs[s].snapshot() == expected[s], s

    assert res.omci_sent == res.omci_delivered == 1000
    assert all(m.msg_type == fr.OmciType.SET_RESPONSE
               for m in fr.decode_omci_stream(res.olt_received))
    # the camera feed keeps the data containers busy the whole run
    assert len(res.bursts) >= 1000
    assert max(res.omci_delays) <= 2 * cfg.alloc_cycle_ns
    assert res.alarms == []  # fault-free run

    # staged fault: last poll answered at 4 s, misses at 5 s and 6 s with
    # k_miss = 2, so the alarm is due at t = 6 s
    kill = scenario_run("staged_kill")
    kcfg = kill.config
    assert len(kill.alarms) == 1
    alarm = kill.alarms[0]
    assert alarm.kind is AlarmKind.UNRESPONSIVE and alarm.source == "bedroom"
    expected_at = 6_000_000_000
    assert abs(alarm.raised_at - expected_at) <= kcfg.poll_cycle_ns
    assert alarm.cleared_at is not None  # recovery clears it


# ---------------------------------------------------------------------------
# 8. energy accounting

@criterion(8, "energy ledgers, sleep savings and loss-free wake")
def test_energy_accounting_and_sleep():
    res = scenario_run("idle_night")
    cfg = res.config

    for node, ledger in res.ledgers.items():
        ledger.check_tiling(cfg.horizon_ns)
        watts = cfg.mfu_watts if node == "mfu" else cfg.sfu_watts
        # closed-form: per-state residency times state power
        closed = sum(ns * watts[PowerState(state)]
                     for state, ns in ledger.residency_ns().items()) / 1e9
        assert abs(ledger.joules(watts) - closed) <= 1e-9 * max(closed, 1.0)

    raw = yaml.safe_load((SCENARIOS / "idle_night.yaml").read_text())
    raw["energy"]["savings_enabled"] = False
    always_on = run_scenario_config(parse_scenario(raw))

    def total(r):
        c = r.config
        return sum(led.joules(c.mfu_watts if n == "mfu" else c.sfu_watts)
                   for n, led in r.ledgers.items())

    assert total(res) < total(always_on)

    # a coordinated deep-sleep command only follows full light-sleep coverage
    kinds = [kind for _, kind, _ in res.events]
    assert "deep_sleep_command" in kinds
    first_cmd = res.events[kinds.index("deep_sleep_command")][0]
    # a room's light-sleep report is its ledger's entry to LIGHT_SLEEP
    reports = {node for node, led in res.ledgers.items()
               for state, start, _ in led.records
               if state == PowerState.LIGHT_SLEEP and start <= first_cmd}
    assert reports == {"room1", "room2", "room3"}
    deep_states = {n for n, led in res.ledgers.items()
                   if "deep_sleep" in led.residency_ns()}
    assert deep_states == {"room1", "room2", "room3"}

    # the overnight push is buffered, not lost: 10 frames vs 4096 capacity
    push = res.flow_stats["night_push"]
    assert push.offered == 10 and push.delivered == 10
    expected_drops = max(0, push.offered - cfg.sleep_buffer_frames)
    assert res.sleep_drops == expected_drops == 0


# ---------------------------------------------------------------------------
# 9. calibration

@criterion(9, "idle four-room energy ratio")
def test_four_room_reference_ratio():
    res = scenario_run("four_room_household")
    cfg = res.config
    summary = build_summary(res)
    ratio = summary["energy"]["fttr_ftth_ratio"]
    assert 1.4 <= ratio <= 1.6

    # closed form for the shipped profile: every node is Active for the
    # 100 ms hold-down and Idle for the rest of the minute
    hold = cfg.t_act_idle_ns / 1e9
    rest = cfg.horizon_ns / 1e9 - hold
    mfu = cfg.mfu_watts
    sfu = cfg.sfu_watts
    fttr = (mfu[PowerState.ACTIVE] * hold + mfu[PowerState.IDLE] * rest
            + 4 * (sfu[PowerState.ACTIVE] * hold + sfu[PowerState.IDLE] * rest))
    ftth = cfg.ftth_active_w * hold + cfg.ftth_idle_w * rest
    assert summary["energy"]["total_joules"] == pytest.approx(fttr, rel=1e-9)
    assert ratio == pytest.approx(fttr / ftth, rel=1e-9)


# ---------------------------------------------------------------------------
# 10. relay arithmetic

@criterion(10, "relay slot arithmetic")
def test_relay_slot_length_example():
    nbytes = phy_relay_buffer_bytes(100_000, 160_000_000, 24)
    assert nbytes == 48_000
    assert phy_relay_slot_ns(nbytes, 10_000_000_000) == 38_400

    res = scenario_run("phy_relay_burst")
    data_slots = [s for s in res.upstream_slots if s[3] != 1]
    assert data_slots
    assert all(dur == 38_400 for _, _, dur, _ in data_slots)
    assert res.relay_overflow_drops == 0
