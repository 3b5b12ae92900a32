"""Closed-form anchors: model outputs that a formula derived by hand fixes
exactly, on cases small enough to derive.

OMCI storm. Notation: A = `alloc_cycle`, C = `control_delay`,
S = `omci_slot`, P = `olt_pipe`, H = horizon, d = max(1, ceil(C / A)).
Request k leaves the MFU in cycle k, at k·A, and reaches its room at
k·A + C, where the room answers at once. Each cycle first receives the
requests that reached their rooms by its start, and only then sends its
own: a request received exactly at a cycle start was sent in an earlier
cycle and is answered in that cycle; one sent with C = 0 reaches its room
after its own cycle's receive and is answered in the next. So response k
owns the upstream OMCI slot of cycle k + d: at most one request leaves per
cycle, so no two responses contend for a slot. It reaches the OLT S + P
after that cycle starts:

    delay = d·A + S + P − C                                  (every response)
    omci_delivered = #{k < count : (k + d)·A + S + P ≤ H}
    omci_sent = min(count, ⌊H / A⌋ + 1)     (one request per cycle start ≤ H)

Idle rooms, savings on. Notation: T = `t_act_idle`, Ts = `t_idle_sleep`,
C = `control_delay`, H = horizon. With no traffic every unit's last activity
is at 0, so its idle timer runs out at T. A room's sleep timer runs out Ts
later: a room with an IoT device turns its RF off, any other reports light
sleep. The last report completes the set of sleeping rooms, so the MFU sends
the deep-sleep command, which reaches the rooms C later:

    room:        ACTIVE [0, T), IDLE [T, T+Ts), LIGHT_SLEEP [T+Ts, T+Ts+C),
                 DEEP_SLEEP [T+Ts+C, H)       (LIGHT_SLEEP has length 0 at C = 0)
    IoT room:    ACTIVE [0, T), IDLE [T, T+Ts), RF_OFF [T+Ts, H)
    MFU:         ACTIVE [0, T), IDLE [T, H)
    joules       = Σ over a node's intervals of (end − start) · watts[state]
    ftth_joules  = T · ftth_active_w + (H − T) · ftth_idle_w
"""

import pytest

from fttrsim.energy import PowerState
from fttrsim.metrics import build_summary
from fttrsim.scenario import parse_scenario
from fttrsim.simulation import run_scenario_config

STORM_COUNT = 250


def storm_run(alloc_us: int, delay_us: int, slot_us: int, pipe_us: int,
              horizon_ms: float):
    return run_scenario_config(parse_scenario({
        "horizon_ms": horizon_ms, "topology": {"sfus": ["a", "b", "c"]},
        "control": {"alloc_cycle_us": alloc_us, "control_delay_us": delay_us,
                    "omci_slot_us": slot_us},
        "management": {"olt_pipe_us": pipe_us,
                       "storm": {"count": STORM_COUNT,
                                 "targets": ["c", "a", "b"]}},
    }))


# S + P of 30 µs ends mid-cycle; 100 µs and 250 µs end on a cycle start, so
# a response reaches the OLT exactly at a 20 ms horizon
@pytest.mark.parametrize("slot_us,pipe_us", [(10, 20), (10, 90), (40, 210)])
@pytest.mark.parametrize("delay_us", [0, 5, 100, 250, 400, 500])
@pytest.mark.parametrize("alloc_us", [100, 250])
def test_storm_response_delay_and_count(alloc_us, delay_us, slot_us, pipe_us):
    a, c, s, p = (alloc_us * 1000, delay_us * 1000, slot_us * 1000,
                  pipe_us * 1000)
    d = max(1, -(-c // a))
    for horizon_ms in (19.999, 20, 20.3):
        res = storm_run(alloc_us, delay_us, slot_us, pipe_us, horizon_ms)
        h = res.config.horizon_ns
        delivered = sum((k + d) * a + s + p <= h for k in range(STORM_COUNT))
        assert (res.omci_sent, res.omci_failed) == (
            min(STORM_COUNT, h // a + 1), 0)
        assert res.omci_delivered == delivered
        assert res.omci_delays == [d * a + s + p - c] * delivered
        assert ([m.transaction_id for m in res.olt_received]
                == list(range(delivered)))


@pytest.mark.parametrize("t_us,ts_us,c_us", [
    (1000, 2000, 50), (1000, 2000, 0), (250, 1000, 5), (2000, 500, 250)])
def test_idle_rooms_step_down_on_their_timers(t_us, ts_us, c_us):
    t, ts, c, h = t_us * 1000, ts_us * 1000, c_us * 1000, 10_000_000
    res = run_scenario_config(parse_scenario({
        "horizon_ms": h / 1e6,
        "topology": {"sfus": ["a", "b", {"name": "c", "iot_resident": True}]},
        "control": {"control_delay_us": c_us},
        "energy": {"savings_enabled": True, "t_act_idle_ms": t_us / 1000,
                   "t_idle_sleep_ms": ts_us / 1000}}))
    awake = [(PowerState.ACTIVE, 0, t), (PowerState.IDLE, t, t + ts)]
    sleeper = awake + [(PowerState.LIGHT_SLEEP, t + ts, t + ts + c),
                       (PowerState.DEEP_SLEEP, t + ts + c, h)]
    expected = {"a": sleeper, "b": sleeper,
                "c": awake + [(PowerState.RF_OFF, t + ts, h)],
                "mfu": [(PowerState.ACTIVE, 0, t), (PowerState.IDLE, t, h)]}
    assert {node: ledger.records for node, ledger in res.ledgers.items()
            } == expected
    nodes = build_summary(res)["nodes"]
    for node, records in expected.items():
        watts = res.profiles[node].watts
        joules = sum((end - start) * watts[state]
                     for state, start, end in records) / 1e9
        assert nodes[node]["joules"] == round(joules, 9)
    cfg = res.config
    assert res.ftth_joules == (t * cfg.ftth_active_w
                               + (h - t) * cfg.ftth_idle_w) / 1e9
