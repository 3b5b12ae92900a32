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

A request the adapter cannot route is answered at once with an error
response, which leaves the MFU in the request's own cycle k and reaches the
OLT at k·A + P. A room drops a request that reaches it while it is dead.
The OLT's stream is ordered by the cycle each message leaves the MFU in,
an error response first within a cycle: the error to request k and the
response to request k − d share cycle k.

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

Uplink burst forwarding delay, on a free upstream calendar. Notation:
A = `alloc_cycle`, S = `omci_slot`, G = `guard`, C = `control_delay`,
D = the burst's air duration, L = its upstream slot, t = its start and
r = t + D the time its data is ready. Each cycle j·A opens with the OMCI
window S + G; a slot must fit between two windows. A coordinated burst
pre-requests its slot at t, so the slot may start at e = max(r, t + C);
an uncoordinated one requests when its data is ready, and gets the first
cycle after r + C:

    coordinated:    m = e mod A
                    delay = e − r                 if S + G ≤ m and m + L ≤ A
                          = e − m + S + G − r     if m < S + G
                          = e − m + A + S + G − r if m + L > A
                    (so delay = 0 whenever D ≥ C and r mod A lies in the
                    first case's range)
    uncoordinated:  delay = (⌊(r + C)/A⌋ + 1)·A + S + G − r

Downlink latency of one room's constant-rate flow, savings off. Notation:
t = a frame's arrival at the MFU, O = its optical serialization, Pd = the
link's propagation delay, W = its air time (preamble + payload at the air
rate + SIFS + ACK), P = the MFU's plus the room's processing delay. The
frames are far enough apart that each finds the link free and its room's
queue empty, so it reaches its room at rx = t + O + Pd:

    centralized:  Y = status_cycle, C = control_delay. The first status
                  cycle after rx reports the frame: c = (⌊rx / Y⌋ + 1)·Y,
                  since a cycle at exactly rx runs first (its sequence
                  number was reserved one cycle earlier, before the frame
                  left the MFU). Its grant starts at c + C:
                  latency = c + C + W − t + P
    distributed:  one isolated room contends alone, from rx: it waits DIFS
                  and k idle slots, k = the room's next draw from [0,
                  cw_min] on its own stream, and always wins:
                  latency = rx + DIFS + k·slot + W − t + P
A frame whose air time would end after the horizon is not delivered.

MFU downstream link. Notation: O = a frame's optical serialization, Pd =
the link's propagation delay. The link is FIFO: a frame leaves at
max(t, F), where t is its arrival at the MFU and F the time the link
frees, and reaches its room at rx = max(t, F) + O + Pd. So k frames
offered together at t, on a free link, reach their room at
t + i·O + Pd for i = 1..k; a frame offered while they are sent leaves
after them, and one offered once the link has freed leaves at its own
arrival.

Saturated n-clique, centralized. Notation: Y = `status_cycle`, X =
`txop_max`, C = `control_delay`, W = a frame's air time. Every room of
the clique conflicts with every other and always holds more than X of air
time. The status cycle at j·Y grants in the window [j·Y + C, j·Y + C + Y):
each grant starts where the one before it ends, and lasts min(X, the
rest of the window), so the cycle grants

    g_i = min(X, Y − i·X)     for i = 0, 1, ... while Y − i·X > 0, i < n
    granted = Σ g_i = min(n·X, Y)

A grant sends whole frames only, back to back from its start, so the air
the cycle uses is Σ ⌊g_i / W⌋·W. The first cycle, at 0, has nothing to
grant: no frame has reached a room yet.
"""

import pytest

from fttrsim.energy import PowerState
from fttrsim.engine import RngStreams, draw_int, transmit_time_ns
from fttrsim.frames import (APDU_OVERHEAD, FEM_HEADER_LEN, OmciType,
                            decode_omci_stream, pma_wire_len)
from fttrsim.links import WifiOverhead
from fttrsim.management import AdapterError, OmciAdapter
from fttrsim.metrics import build_summary
from fttrsim.scenario import parse_scenario
from fttrsim.simulation import Simulation, run_scenario_config

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
        assert ([m.transaction_id
                 for m in decode_omci_stream(res.olt_received)]
                == list(range(delivered)))


def unroutable(tid: int) -> bool:
    return tid % 7 in (2, 3) or tid % 11 == 0


# A = 100 µs, S = 10 µs, P = 20 µs, H = 20.015 ms: 201 cycle starts, and
# room a, one in three requests' target, is dead from 5 to 9 ms
@pytest.mark.parametrize("count", [250, 150])
@pytest.mark.parametrize("delay_us", [0, 5, 250, 400])
def test_storm_stream_with_unroutable_requests_and_a_dead_room(
        monkeypatch, delay_us, count):
    route = OmciAdapter.to_standard

    def some_unroutable(adapter, msg):
        if unroutable(msg.transaction_id):
            raise AdapterError("no route")
        return route(adapter, msg)

    monkeypatch.setattr(OmciAdapter, "to_standard", some_unroutable)
    targets = ["c", "a", "b"]
    sim = Simulation(parse_scenario({
        "horizon_ms": 20.015, "topology": {"sfus": ["a", "b", "c"]},
        "control": {"alloc_cycle_us": 100, "control_delay_us": delay_us,
                    "omci_slot_us": 10},
        "management": {"olt_pipe_us": 20,
                       "kill": {"sfu": "a", "at_ms": 5, "recover_ms": 9},
                       "storm": {"count": count, "targets": targets,
                                 "entity_class": 9}},
    }))
    res = sim.run()
    a, c, s, p, h = 100_000, delay_us * 1000, 10_000, 20_000, 20_015_000
    d = max(1, -(-c // a))
    n_cycles = h // a + 1
    sent = min(count, n_cycles)

    def answered(k: int) -> bool:
        rx = k * a + c
        return (not unroutable(k) and rx <= h and
                not (targets[k % 3] == "a" and 5_000_000 <= rx < 9_000_000))

    # (transaction id, type, delay) of each message the OLT receives, by
    # the cycle it leaves the MFU in, an error response first
    stream = []
    for j in range(n_cycles):
        if j < sent and unroutable(j) and j * a + p <= h:
            stream.append((0, OmciType.ERROR_RESPONSE, p))
        k = j - d
        if 0 <= k < sent and answered(k) and j * a + s + p <= h:
            stream.append((k, OmciType.SET_RESPONSE, d * a + s + p - c))
    received = decode_omci_stream(res.olt_received)
    assert ([(m.transaction_id, m.msg_type) for m in received]
            == [(tid, mtype) for tid, mtype, _ in stream])
    assert res.omci_delays == [delay for _, _, delay in stream]
    assert (res.omci_sent, res.omci_failed, res.omci_delivered) == (
        sent, sum(map(unroutable, range(sent))), len(stream))
    assert {room: set(mib.snapshot()) for room, mib in res.mibs.items()} == {
        room: {(9, k % 64) for k in range(sent)
               if targets[k % 3] == room and answered(k)}
        for room in targets}
    # the responses whose cycle starts past the horizon stay queued
    assert [(rx, room, m.transaction_id) for rx, room, m in sim.omci_upstream
            ] == [(k * a + c, targets[k % 3], k) for k in range(sent)
                  if answered(k) and k + d >= n_cycles]


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
    cfg = res.config
    for node, records in expected.items():
        watts = (cfg.mfu_profile if node == "mfu" else cfg.sfu_profile).watts
        joules = sum((end - start) * watts[state]
                     for state, start, end in records) / 1e9
        assert nodes[node]["joules"] == round(joules, 9)
    assert res.ftth_joules == (t * cfg.ftth_active_w
                               + (h - t) * cfg.ftth_idle_w) / 1e9


# one burst every 1,037 µs sweeps its start over every phase of the cycle;
# each slot ends long before the next start, so every burst finds the
# calendar free
BURST_PERIOD_US = 1037


@pytest.mark.parametrize("coordinated", [True, False])
@pytest.mark.parametrize("delay_us", [0, 5, 30, 120])
@pytest.mark.parametrize("guard_ns", [0, 100, 2000])
@pytest.mark.parametrize("alloc_us,slot_us", [(100, 10), (250, 40)])
def test_burst_forwarding_delay(coordinated, delay_us, guard_ns, alloc_us,
                                slot_us):
    a, c, s, g = alloc_us * 1000, delay_us * 1000, slot_us * 1000, guard_ns
    for air_us in (20, 50):
        res = run_scenario_config(parse_scenario({
            "horizon_ms": 30, "topology": {"sfus": ["a"]},
            "control": {"alloc_cycle_us": alloc_us, "omci_slot_us": slot_us,
                        "guard_ns": guard_ns, "control_delay_us": delay_us},
            "uplink_bursts": [{"sfu": "a", "period_us": BURST_PERIOD_US,
                               "air_duration_us": air_us, "start_ms": 0.013,
                               "coordinated": coordinated,
                               "rus": [{"bytes": 2000}]}]}))
        slot = 16_000  # 2000 bytes at 1 Gb/s
        expected = []
        for k in range(len(res.bursts)):
            t = 13_000 + k * BURST_PERIOD_US * 1000
            r = t + air_us * 1000
            if not coordinated:
                expected.append((r + c) // a * a + a + s + g - r)
                continue
            e = max(r, t + c)
            m = e % a
            if m < s + g:
                e += s + g - m
            elif m + slot > a:
                e += a - m + s + g
            expected.append(e - r)
            if air_us * 1000 >= c and s + g <= r % a <= a - slot:
                assert expected[-1] == 0
        assert len(res.bursts) == 29
        assert res.bursts == expected
        assert [d for _, _, d, tcont in res.upstream_slots
                if tcont == 2] == [slot] * 29


# 1500-byte frames every 1.25 ms; the air rate is the default 1.2 Gb/s and
# the downstream link 1 Gb/s
LATENCY_SIZE, LATENCY_RATE_MBPS, LATENCY_PROP_NS = 1500, 9.6, 50
OVERHEAD = WifiOverhead()
AIR_NS = (OVERHEAD.preamble_ns + transmit_time_ns(LATENCY_SIZE, 1_200_000_000)
          + OVERHEAD.sifs_ns + OVERHEAD.ack_ns)
OPTICAL_NS = transmit_time_ns(
    pma_wire_len(APDU_OVERHEAD + LATENCY_SIZE + FEM_HEADER_LEN),
    1_000_000_000)
STATUS_CYCLE_NS = 500_000


def latency_run(mode: str, start_ns: int, control_delay_us: int = 5,
                seed: int = 1):
    """A 20 ms run of one room `a` with savings off and one constant-rate
    flow of LATENCY_SIZE-byte frames from `start_ns`; its results and the
    arrival times of its frames at the MFU."""
    res = run_scenario_config(parse_scenario({
        "seed": seed, "horizon_ms": 20, "mode": mode,
        "topology": {"sfus": ["a"]},
        "optical": {"prop_delay_ns": LATENCY_PROP_NS},
        "control": {"status_cycle_us": STATUS_CYCLE_NS // 1000,
                    "control_delay_us": control_delay_us},
        "flows": [{"name": "f", "dst": "a", "size_bytes": LATENCY_SIZE,
                   "rate_mbps": LATENCY_RATE_MBPS,
                   "start_ms": start_ns / 1e6}],
        "energy": {"savings_enabled": False}}))
    period = transmit_time_ns(LATENCY_SIZE, int(LATENCY_RATE_MBPS * 1e6))
    arrivals = range(start_ns, res.config.horizon_ns + 1, period)
    assert res.flow_stats["f"].offered == len(arrivals)
    return res, arrivals


def delivered_latencies(res, ends: list[tuple[int, int]]) -> list[int]:
    """The latencies of the frames, given as (arrival, air time end), whose
    air time ends by the horizon."""
    cfg = res.config
    proc = cfg.proc_mfu_ns + cfg.proc_sfu_ns
    return [end - t + proc for t, end in ends if end <= cfg.horizon_ns]


# rx on a cycle start, one ns before and after one, and two other phases
@pytest.mark.parametrize("start_ns", [
    0, 123_456, STATUS_CYCLE_NS - OPTICAL_NS - LATENCY_PROP_NS,
    2 * STATUS_CYCLE_NS - OPTICAL_NS - LATENCY_PROP_NS - 1,
    3 * STATUS_CYCLE_NS - OPTICAL_NS - LATENCY_PROP_NS + 1])
@pytest.mark.parametrize("control_delay_us", [5, 250])
def test_centralized_latency_waits_for_the_next_status_cycle(
        start_ns, control_delay_us):
    res, arrivals = latency_run("centralized", start_ns, control_delay_us)
    y, c = STATUS_CYCLE_NS, control_delay_us * 1000
    ends = []
    for t in arrivals:
        rx = t + OPTICAL_NS + LATENCY_PROP_NS
        ends.append((t, (rx // y + 1) * y + c + AIR_NS))
    expected = delivered_latencies(res, ends)
    assert len(expected) >= 8
    assert list(res.flow_stats["f"].latencies) == expected


@pytest.mark.parametrize("seed,start_ns", [(1, 0), (2, 333_333), (3, 7),
                                           (7, 1_000_000)])
def test_distributed_latency_of_an_isolated_room_is_its_backoff(seed,
                                                                start_ns):
    res, arrivals = latency_run("distributed", start_ns, seed=seed)
    bits = RngStreams(seed).for_node("a").getrandbits
    ends = []
    for t in arrivals:
        rx = t + OPTICAL_NS + LATENCY_PROP_NS
        k = draw_int(bits, OVERHEAD.cw_min)
        ends.append((t, rx + OVERHEAD.difs_ns + k * OVERHEAD.slot_ns
                     + AIR_NS))
    expected = delivered_latencies(res, ends)
    assert len(expected) >= 8
    assert list(res.flow_stats["f"].latencies) == expected


# a propagation delay longer than every send below, so that no frame has
# reached its room by the horizon, one ns before the first would
LINK_PROP_NS = 250_000


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("mode", ["centralized", "distributed"])
def test_mfu_link_sends_frames_in_arrival_order(mode, k):
    o, pd, t = OPTICAL_NS, LINK_PROP_NS, 1_000_000
    # k frames at t; one offered while they are sent; one at the instant
    # the link frees; one after it has freed
    busy, at_free = t + o // 2, t + (k + 1) * o
    after = at_free + o + 7_000
    horizon = t + o + pd - 1
    batch = {"dst": "a", "size_bytes": LATENCY_SIZE, "model": "batch"}
    sim = Simulation(parse_scenario({
        "horizon_ms": horizon / 1e6, "mode": mode,
        "topology": {"sfus": ["a"]}, "optical": {"prop_delay_ns": pd},
        "flows": [{**batch, "name": "burst", "count": k, "start_ms": t / 1e6},
                  {**batch, "name": "busy", "count": 1,
                   "start_ms": busy / 1e6},
                  {**batch, "name": "at_free", "count": 1,
                   "start_ms": at_free / 1e6},
                  {**batch, "name": "after", "count": 1,
                   "start_ms": after / 1e6}],
        "energy": {"savings_enabled": False}}))
    assert all(run.optical_ns == o for run in sim.flows)
    res = sim.run()
    assert res.config.horizon_ns == horizon
    expected = [(t + i * o + pd, "burst", t) for i in range(1, k + 1)]
    expected += [(t + (k + 1) * o + pd, "busy", busy),
                 (at_free + o + pd, "at_free", at_free),
                 (after + o + pd, "after", after)]
    assert [(rx, flow.spec.name, created)
            for rx, _, (flow, created) in sim.inbound] == expected
    assert sum(run.delivered for run in sim.flows) == 0


def saturated_clique_run(n: int):
    """A 30 ms centralized run of n rooms that all conflict, each sent
    1500-byte frames at 900 Mb/s, with the default control timings."""
    rooms = [f"r{i}" for i in range(n)]
    return run_scenario_config(parse_scenario({
        "horizon_ms": 30, "mode": "centralized",
        "topology": {"sfus": rooms,
                     "conflicts": [[a, b] for i, a in enumerate(rooms)
                                   for b in rooms[i + 1:]]},
        "flows": [{"name": room, "dst": room, "size_bytes": LATENCY_SIZE,
                   "rate_mbps": 900} for room in rooms],
        "energy": {"savings_enabled": False}}))


# n: (granted, air used) per mid-run status cycle, in ns
CLIQUE_CYCLE = {2: (4_800_000, 4_700_000), 3: (5_000_000, 4_888_000),
                5: (5_000_000, 4_888_000)}


@pytest.mark.parametrize("n", sorted(CLIQUE_CYCLE))
def test_saturated_clique_grants_min_of_txops_and_the_cycle(n):
    res = saturated_clique_run(n)
    cfg = res.config
    y, x, c, w = (cfg.status_cycle_ns, cfg.txop_max_ns, cfg.control_delay_ns,
                  AIR_NS)
    assert (y, x, c, w) == (5_000_000, 2_400_000, 5_000, 94_000)
    durations = [min(x, y - i * x) for i in range(n) if y - i * x > 0]
    assert sum(durations) == min(n * x, y) == CLIQUE_CYCLE[n][0]
    assert sum(g // w * w for g in durations) == CLIQUE_CYCLE[n][1]
    cycles = range(1, cfg.horizon_ns // y + 1)
    grants = sorted(res.grants, key=lambda g: g.start)
    # each cycle's grants, back to back from its window's start
    assert [(g.start, g.max_duration) for g in grants] == [
        (j * y + c + i * x, g) for j in cycles
        for i, g in enumerate(durations)]
    # the grants that start by the horizon send whole frames only
    applied = [g for g in grants if g.start <= cfg.horizon_ns]
    assert {room: sfu.airtime_ns for room, sfu in res.cell_stats.items()} == {
        room: sum(g.max_duration // w * w for g in applied if g.sfu == room)
        for room in res.cell_stats}
    assert sum(run.delivered + run.late
               for run in res.flow_stats.values()) == sum(
        g.max_duration // w for g in applied)
