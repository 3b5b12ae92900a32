import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fttrsim import simulation
from fttrsim.energy import PowerState
from fttrsim.engine import Event, SimError, draw_int
from fttrsim.frames import OmciType, decode_omci_stream
from fttrsim.management import AdapterError, OmciAdapter
from fttrsim.metrics import build_summary
from fttrsim.scenario import load_scenario, parse_scenario
from fttrsim.scheduling import (AirGrant, SfuStatusReport, first_fit_start,
                                grant_downlink_airtime)
from fttrsim.simulation import (MFU, ContentionDomain, Simulation,
                                run_scenario_config)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def one_frame_run(mode: str, horizon_ms: float):
    # one 12000-byte frame created at 4 ms; at 100 Mb/s it holds the air for
    # 1044 us (960 us of payload plus the per-frame overheads). Centralized:
    # granted by the 5 ms status cycle, on the air from 5.005 to 6.049 ms.
    # Distributed: on the air from about 4.2 to 5.3 ms.
    res = run_scenario_config(parse_scenario({
        "horizon_ms": horizon_ms, "mode": mode,
        "topology": {"sfus": ["a"]},
        "wifi": {"air_rate_mbps": 100},
        "flows": [{"name": "f", "dst": "a", "size_bytes": 12000,
                   "model": "batch", "count": 1, "start_ms": 4}],
    }))
    return res, build_summary(res)["flows"]["f"]


@pytest.mark.parametrize("mode,cut_ms", [("centralized", 5.5),
                                         ("distributed", 4.5)])
def test_frame_on_the_air_at_the_horizon_is_lost(mode, cut_ms):
    res, row = one_frame_run(mode, cut_ms)
    # its airtime was scheduled before the horizon ...
    assert res.cell_stats["a"].airtime_ns == 1_044_000
    # ... but its delivery ends after it
    assert (row["offered"], row["delivered"], row["lost"]) == (1, 0, 1)
    assert len(res.flow_stats["f"].latencies) == 0
    assert res.activity_spans == []

    res, row = one_frame_run(mode, 8)
    assert (row["offered"], row["delivered"], row["lost"]) == (1, 1, 0)
    assert len(res.activity_spans) == 1


def offered_in(flow: dict) -> int:
    """Frames offered by one flow `flow` to room `a` in a 20 ms run."""
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 20, "topology": {"sfus": ["a"]},
        "flows": [{"name": "f", "dst": "a", "size_bytes": 100, **flow}],
    }))
    return res.flow_stats["f"].offered


def test_stop_ms_bounds_arrivals():
    # batch arrivals at 0, 1, 2 and 3 ms; the six after stop_ms used to be
    # offered
    batch = {"model": "batch", "count": 10, "interval_us": 1000}
    assert offered_in({**batch, "stop_ms": 3}) == 4
    assert offered_in(batch) == 10
    # a flow may stop when it starts: it offers its first frame only
    assert offered_in({"rate_mbps": 1, "start_ms": 4, "stop_ms": 4}) == 1


def two_conflicting_rooms_run():
    """A 20 ms centralized run of conflicting rooms `a` and `b`, each sent
    1500 B frames at 200 Mb/s, with a 3 ms status cycle."""
    return run_scenario_config(parse_scenario({
        "horizon_ms": 20, "mode": "centralized",
        "topology": {"sfus": ["a", "b"], "conflicts": [["a", "b"]]},
        "control": {"status_cycle_us": 3000},
        "flows": [{"name": room, "dst": room, "size_bytes": 1500,
                   "rate_mbps": 200} for room in ("a", "b")],
    }))


def at_cycle_start(reports, graph, txop_max_ns, now, window_end):
    # every grant starts when the cycle's grants may start
    return [g._replace(start=now) for g in grant_downlink_airtime(
        reports, graph, txop_max_ns, now, window_end)]


def past_the_cycle(reports, graph, txop_max_ns, now, window_end):
    # a window no grant reaches the end of: a grant may run into the next
    # cycle
    return grant_downlink_airtime(reports, graph, txop_max_ns, now,
                                  now + len(reports) * txop_max_ns)


def test_conflicting_rooms_share_the_air_without_overlap():
    res = two_conflicting_rooms_run()
    assert {g.sfu for g in res.grants} == {"a", "b"}
    assert all(f.delivered > 0 for f in res.flow_stats.values())


@pytest.mark.parametrize("fault", [at_cycle_start, past_the_cycle])
def test_overlapping_grants_end_the_run(monkeypatch, fault):
    # (a) conflicting grants of one cycle overlap; (b) a grant overlaps a
    # conflicting grant of the previous cycle, which a check of each
    # cycle's grants alone did not see
    monkeypatch.setattr(simulation, "grant_downlink_airtime", fault)
    with pytest.raises(SimError, match="starts before the grant to"):
        two_conflicting_rooms_run()


def test_a_grant_ordered_before_a_queued_one_ends_the_run(monkeypatch):
    # a and b do not conflict, so no grant overlaps a conflicting one. The
    # 0 ms cycle grants a from 1 us before its window ends (3.004 ms), a
    # grant still queued at the 3 ms cycle; that cycle grants b from
    # 3.003 ms, before it. Grants are applied from one FIFO, so the run
    # must end rather than apply them out of order
    def fault(reports, graph, txop_max_ns, now, window_end):
        if now < 3_000_000:
            return [AirGrant("a", window_end - 1000, 1000)]
        return [AirGrant("b", now - 2000, 1000)]

    monkeypatch.setattr(simulation, "grant_downlink_airtime", fault)
    with pytest.raises(SimError, match="grant to b at 3003000 ns is "
                       "ordered before 3004000 ns, the start of the last"):
        run_scenario_config(parse_scenario({
            "horizon_ms": 10, "mode": "centralized",
            "topology": {"sfus": ["a", "b"]},
            "control": {"status_cycle_us": 3000},
            "flows": [{"name": "a", "dst": "a", "size_bytes": 1500,
                       "rate_mbps": 1}],
        }))


def test_grants_and_reports_are_the_named_tuples_the_benchmark_reads(
        monkeypatch):
    # the run builds grants with `tuple.__new__`, and the benchmark reads
    # their fields by name; each report is a plain tuple in
    # `SfuStatusReport`'s field order, taken from its room's queue
    reports, rooms = [], {}
    status_cycle = Simulation._status_cycle

    def spy_cycle(sim, ev):
        rooms.update(sim.sfus)
        status_cycle(sim, ev)

    def spy(reps, graph, txop_max_ns, now, window_end):
        reports.extend((r, (rooms[r[0]].queued_bytes,
                            rooms[r[0]].top_priority(),
                            rooms[r[0]].queued_airtime_ns)) for r in reps)
        return grant_downlink_airtime(reps, graph, txop_max_ns, now,
                                      window_end)

    monkeypatch.setattr(Simulation, "_status_cycle", spy_cycle)
    monkeypatch.setattr(simulation, "grant_downlink_airtime", spy)
    res = two_conflicting_rooms_run()
    assert reports and res.grants
    for r, queued in reports:
        assert type(r) is tuple and len(r) == 4
        report = SfuStatusReport(*r)
        assert report == r
        assert (report.buffered_bytes, report.top_priority,
                report.airtime_ns) == queued
    for g in res.grants:
        assert type(g) is AirGrant
        assert AirGrant(sfu=g.sfu, start=g.start,
                        max_duration=g.max_duration) == g


# (flow, priority, size in bytes) of the frames queued at room `a`, in the
# order they arrive; a lower priority's 200-byte frame fits where a higher
# one's 5000-byte frame does not
QUEUED = [("hi", 7, 3000), ("mid", 4, 5000), ("hi", 7, 3000),
          ("low", 0, 200), ("mid_small", 4, 200), ("hi", 7, 3000)]


def queued_room():
    """A centralized simulation, not run, whose room `a` holds QUEUED."""
    names = {}
    for name, priority, size in QUEUED:
        names[name] = {"name": name, "dst": "a", "size_bytes": size,
                       "priority": priority, "model": "batch", "count": 1}
    sim = Simulation(parse_scenario({
        "horizon_ms": 10, "mode": "centralized", "topology": {"sfus": ["a"]},
        "flows": list(names.values())}))
    runs = {run.spec.name: run for run in sim.flows}
    sfu = sim.sfus["a"]
    for k, (name, _, _) in enumerate(QUEUED):
        sfu.enqueue((runs[name], k))
    sent = []
    sim._deliver = lambda frame, t: sent.append((frame[0].spec.name,
                                                 frame[1], t))
    return sim, sfu, runs, sent


def reference_grant(sfu, start: int, end: int, sent: list) -> None:
    """Apply a grant frame by frame: take the head frame while it fits."""
    cursor = start
    while True:
        head = sfu.head_frame()
        if head is None or cursor + head[0].airtime_ns > end:
            break
        flow, created_at = sfu.pop_frame()
        cursor += flow.airtime_ns
        sent.append((flow.spec.name, created_at, cursor))
        sfu.airtime_ns += flow.airtime_ns


def apply_grant(sim, sfu, start: int, end: int) -> None:
    """Queue a grant of the air from `start` to `end` to `sfu` and apply it,
    as a run does."""
    sim.grants.append((start, sim.sim.reserve(), sfu, end))
    sim._apply_before(start + 1, 0)


def room_state(sfu) -> tuple:
    return (sfu.queued_bytes, sfu.queued_airtime_ns, sfu.airtime_ns,
            [[(flow.spec.name, created_at) for flow, created_at in q]
             for q in sfu.queues if q])


def test_a_grant_stops_at_the_first_head_frame_that_does_not_fit():
    _, _, runs, _ = queued_room()
    air = {name: run.airtime_ns for name, run in runs.items()}
    # the three priority-7 frames, then the 5000-byte priority-4 one
    three_hi = 3 * air["hi"]
    budgets = sorted({0, 1, air["hi"] - 1, air["hi"], three_hi,
                      three_hi + air["mid"] - 1, three_hi + air["mid"],
                      three_hi + air["mid"] + air["mid_small"],
                      sum(air[name] for name, _, _ in QUEUED),
                      sum(air[name] for name, _, _ in QUEUED) + 1})
    start = 1_000_000
    for budget in budgets:
        sim, sfu, _, sent = queued_room()
        apply_grant(sim, sfu, start, start + budget)
        _, ref_sfu, _, ref_sent = queued_room()
        reference_grant(ref_sfu, start, start + budget, ref_sent)
        assert sent == ref_sent, budget
        assert room_state(sfu) == room_state(ref_sfu), budget

    # a grant that ends inside the 5000-byte frame sends the three
    # priority-7 frames and stops: neither 200-byte frame behind it, of its
    # own priority or a lower one, goes ahead of it
    sim, sfu, _, sent = queued_room()
    apply_grant(sim, sfu, start, start + three_hi + air["mid"] - 1)
    assert sent == [("hi", 0, start + air["hi"]),
                    ("hi", 2, start + 2 * air["hi"]),
                    ("hi", 5, start + three_hi)]
    assert room_state(sfu) == (
        5000 + 200 + 200, air["mid"] + air["mid_small"] + air["low"],
        three_hi, [[("mid", 1), ("mid_small", 4)], [("low", 3)]])


def reference_reserve_data_slot(alloc_cycle_ns: int, omci_slot_ns: int,
                                guard_ns: int, next_free: int, earliest: int,
                                duration: int) -> tuple[int, int]:
    """(start, next free time) of a data burst placed on the upstream
    calendar by stepping from cycle to cycle until it clears the OMCI window
    at the head of a cycle and ends by the next cycle's start."""
    start = max(earliest, next_free)
    while True:
        k = start // alloc_cycle_ns
        win_end = k * alloc_cycle_ns + omci_slot_ns + guard_ns
        nxt_win_start = (k + 1) * alloc_cycle_ns
        if start < win_end:
            start = win_end
            continue
        if start + duration > nxt_win_start:
            start = nxt_win_start + omci_slot_ns + guard_ns
            continue
        break
    return start, start + duration + guard_ns


@st.composite
def calendar_requests(draw):
    cycle_us = draw(st.integers(2, 500))
    omci_us = draw(st.integers(1, cycle_us - 1))
    guard_ns = draw(st.integers(0, (cycle_us - omci_us) * 1000 - 1))
    cycle_ns, window_ns = cycle_us * 1000, omci_us * 1000 + guard_ns
    duration = draw(st.integers(1, cycle_ns - window_ns))

    def instant():
        # in one of ten cycles, often at an edge of its OMCI window or of
        # the last start that still ends within the cycle
        edges = [0, window_ns - 1, window_ns, cycle_ns - duration - 1,
                 cycle_ns - duration, cycle_ns - duration + 1, cycle_ns - 1]
        offset = draw(st.one_of(
            st.sampled_from([e for e in edges if 0 <= e < cycle_ns]),
            st.integers(0, cycle_ns - 1)))
        return draw(st.integers(0, 9)) * cycle_ns + offset
    return cycle_us, omci_us, guard_ns, instant(), instant(), duration


@given(calendar_requests())
def test_data_slot_matches_the_cycle_by_cycle_calendar(case):
    cycle_us, omci_us, guard_ns, next_free, earliest, duration = case
    start = first_fit_start(next_free, earliest, duration, cycle_us * 1000,
                            omci_us * 1000 + guard_ns)
    assert (start, start + duration + guard_ns) == reference_reserve_data_slot(
        cycle_us * 1000, omci_us * 1000, guard_ns, next_free, earliest,
        duration)


@st.composite
def burst_runs(draw):
    """A scenario of up to five burst specs over three rooms, coordinated
    or not, some sending nothing, with a dead window in most runs, in
    centralized or phy_relay mode."""
    mode = draw(st.sampled_from(["centralized", "phy_relay"]))
    # a relayed burst must drain within the 239.9 us between OMCI windows
    air_us = st.integers(5, 55 if mode == "phy_relay" else 150)
    rus = st.lists(st.builds(dict, bytes=st.integers(1, 4000)), max_size=3)
    bursts = draw(st.lists(st.fixed_dictionaries({
        "sfu": st.sampled_from("abc"),
        "period_us": st.sampled_from([100, 250, 300, 500, 1000]),
        "air_duration_us": air_us,
        "start_ms": st.sampled_from([0, 0.005, 0.25, 0.3, 1]),
        "coordinated": st.booleans(),
        "rus": rus}), min_size=1, max_size=5))
    raw = {"horizon_ms": 3, "mode": mode, "topology": {"sfus": ["a", "b", "c"]},
           "uplink_bursts": bursts,
           "phy_relay": {"buffer_bytes": 50_000}}
    kill = draw(st.one_of(st.none(), st.fixed_dictionaries(
        {"sfu": st.sampled_from("abc"), "at_ms": st.sampled_from([0, 0.3, 1])},
        optional={"recover_ms": st.sampled_from([1.25, 2])})))
    if kill is not None:
        raw["management"] = {"kill": kill}
    return raw


@given(burst_runs())
def test_the_burst_pass_books_the_slots_of_the_reference_calendar(raw):
    # the starts are replayed by (time, push order), the order the start
    # events had, and each burst of a living room that sends bytes is
    # placed by the cycle-by-cycle calendar from where the last one's
    # guard ends
    cfg = parse_scenario(raw)
    sim = Simulation(cfg)
    sim._uplink_bursts()
    cycle, delay = cfg.alloc_cycle_ns, cfg.control_delay_ns
    room, dead_from, dead_to = sim.dead
    pending = [(spec.start_ns, i, i)
               for i, spec in enumerate(cfg.uplink_bursts)]
    pushed, free, slots, waits = len(pending), 0, [], []
    while True:
        now, _, i = min(pending)
        if now > cfg.horizon_ns:
            break
        pending.remove((now, _, i))
        spec = cfg.uplink_bursts[i]
        nbytes, duration = sim._burst_slot(spec)
        if nbytes and not (spec.sfu == room and dead_from <= now < dead_to):
            ready = now + spec.air_duration_ns
            earliest = (max(ready, now + delay) if spec.coordinated
                        else ((ready + delay) // cycle + 1) * cycle)
            start, free = reference_reserve_data_slot(
                cycle, cfg.omci_slot_ns, cfg.guard_ns, free, earliest,
                duration)
            slots.append((spec.sfu, start, duration, 2))
            waits.append(start - ready)
        pending.append((now + spec.period_ns, pushed, i))
        pushed += 1
    assert sim.results.upstream_slots == slots
    assert sim.results.bursts == waits


def test_storm_responses_reach_the_olt_in_request_order():
    # one request leaves the MFU per 250 us cycle, round robin over three
    # rooms; the responses share one upstream slot per cycle
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 20, "topology": {"sfus": ["a", "b", "c"]},
        "management": {"storm": {"count": 60, "targets": ["c", "a", "b"]}},
    }))
    responses = decode_omci_stream(res.olt_received)
    assert [m.transaction_id for m in responses] == list(range(60))


@pytest.mark.parametrize("horizon_ms,received", [(5.005, True),
                                                  (5.004999, False)])
def test_a_request_received_at_the_horizon_is_applied(horizon_ms, received):
    # request k leaves the MFU at k * 250 us and reaches room a 5 us later,
    # so request 20 arrives exactly at a 5.005 ms horizon. The response of
    # request 18 is the last to reach the OLT, at 4.78 ms; that of request
    # 19 leaves the MFU at 5 ms and would reach it at 5.03 ms
    sim = Simulation(parse_scenario({
        "horizon_ms": horizon_ms, "topology": {"sfus": ["a"]},
        "management": {"storm": {"count": 30, "entity_class": 7}},
    }))
    res = sim.run()
    assert ((7, 20) in res.mibs["a"].snapshot()) is received
    assert (7, 21) not in res.mibs["a"].snapshot()
    # a request received by the horizon is answered, and its response
    # waits for the next cycle; one received later is not answered
    queued = [msg.transaction_id for _, _, msg in sim.omci_upstream]
    assert queued == ([20] if received else [])
    responses = decode_omci_stream(res.olt_received)
    assert [m.transaction_id for m in responses] == list(range(19))


def test_storm_reaches_the_255th_room():
    # the last room's sfu_id is 255, the largest its routing byte holds
    rooms = [f"r{i:03d}" for i in range(255)]
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 1, "topology": {"sfus": rooms},
        "management": {"storm": {"count": 2, "targets": ["r254", "r000"]}},
    }))
    assert (res.omci_failed, res.omci_delivered) == (0, 2)
    assert ([len(res.mibs[r].snapshot()) for r in ("r254", "r000", "r001")]
            == [1, 1, 0])


def test_every_omci_message_takes_three_encodes_and_three_decodes(
        monkeypatch):
    # request k, to room k mod 3, is encoded by the OLT, decoded and
    # converted by the adapter, encoded in standard form, then decoded and
    # applied by its room; its response is converted back, encoded and,
    # if it reaches the OLT by the horizon, decoded there. Room b is dead
    # from 5 to 9 ms and drops the 6 requests that reach it then; the 2
    # requests that reach their rooms after 20 ms are not applied
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for name in ("encode_omci", "decode_omci", "apply_omci"):
        monkeypatch.setattr(simulation, name,
                            counted(name, getattr(simulation, name)))
    for name in ("to_standard", "to_extended"):
        monkeypatch.setattr(OmciAdapter, name,
                            counted(name, getattr(OmciAdapter, name)))
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 20, "topology": {"sfus": ["a", "b", "c"]},
        "control": {"control_delay_us": 300},
        "management": {"kill": {"sfu": "b", "at_ms": 5, "recover_ms": 9},
                       "storm": {"count": 100}},
    }))
    sent, delivered = res.omci_sent, res.omci_delivered
    assert (sent, delivered, res.omci_failed) == (81, 72, 0)
    assert calls["to_standard"] == sent
    assert calls["apply_omci"] == calls["to_extended"] == 73
    assert calls["encode_omci"] == 2 * sent + calls["to_extended"] == 235
    assert (calls["decode_omci"]
            == sent + calls["apply_omci"] + delivered == 226)


def test_a_request_the_adapter_cannot_route_gets_an_error_response(
        monkeypatch):
    # every request fails to route: the MFU answers each at once with an
    # error response, which reaches the OLT olt_pipe later. Request k
    # leaves at k * 250 us, so 21 of the 30 leave by a 5 ms horizon, and
    # the error responses of the 20 that leave by 4.9 ms reach the OLT
    def unroutable(adapter, msg):
        raise AdapterError("no route")

    monkeypatch.setattr(OmciAdapter, "to_standard", unroutable)
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 5, "topology": {"sfus": ["a", "b"]},
        "management": {"olt_pipe_us": 100, "storm": {"count": 30}},
    }))
    assert (res.omci_sent, res.omci_failed, res.omci_delivered) == (21, 21, 20)
    assert all(not mib.snapshot() for mib in res.mibs.values())
    assert res.omci_delays == [100_000] * 20
    assert ({m.msg_type for m in decode_omci_stream(res.olt_received)}
            == {OmciType.ERROR_RESPONSE})


def test_a_burst_only_run_books_one_omci_slot_per_alloc_cycle():
    # with no storm, the OMCI slot of every cycle that starts by the
    # horizon is still kept free of data bursts
    res = run_scenario_config(load_scenario(
        SCENARIOS / "ofdma_uplink_burst.yaml"))
    cfg = res.config
    omci = sorted(s for s in res.upstream_slots if s[0] == "omci")
    assert omci == [("omci", t, cfg.omci_slot_ns, 1) for t in
                    range(0, cfg.horizon_ns + 1, cfg.alloc_cycle_ns)]


def sleep_run(mode: str, flows: list[dict], **energy) -> dict:
    """Flow rows of a 60 ms one-room run with 1 ms and 2 ms sleep timers."""
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 60, "mode": mode, "topology": {"sfus": ["a"]},
        "flows": [{"dst": "a", "model": "batch", **f} for f in flows],
        "energy": {"savings_enabled": True, "t_act_idle_ms": 1,
                   "t_idle_sleep_ms": 2, **energy},
    }))
    return build_summary(res)["flows"]


@pytest.mark.parametrize("mode", ["centralized", "distributed"])
def test_sfu_with_queued_frames_does_not_sleep(mode):
    # five frames wait for the 5 ms status cycle's grant; the room used to
    # sleep at 3.8 ms with all five queued, and nothing woke it
    row = sleep_run(mode, [{"name": "f", "size_bytes": 1500, "count": 5,
                            "interval_us": 200}])["f"]
    assert (row["offered"], row["delivered"]) == (5, 5)


def test_sleep_buffer_overflow_is_charged_to_the_dropped_frames_flow():
    # the room sleeps from 3 ms; three frames of `early` then one of `late`
    # reach its two-frame sleep buffer before it wakes, and it drops the two
    # oldest. Both are `early`'s; the arriving frames' flows used to be
    # charged, so `late` delivered 1 and dropped 1 of 1 and the run exited 3.
    rows = sleep_run("centralized", [
        {"name": "early", "size_bytes": 500, "count": 3, "interval_us": 100,
         "start_ms": 10},
        {"name": "late", "size_bytes": 500, "count": 1, "start_ms": 10.5},
    ], sleep_buffer_frames=2, sfu={"wake_deep_ms": 2, "t_listen_ms": 4})
    got = {name: (row["offered"], row["delivered"], row["dropped"])
           for name, row in rows.items()}
    assert got == {"early": (3, 1, 2), "late": (1, 1, 0)}


@given(seed=st.integers(0, 2**64 - 1),
       moves=st.lists(st.sampled_from(["collide", "succeed"]), max_size=60))
def test_inlined_backoff_draw_matches_draw_int_and_randint(seed, moves):
    # One room contends alone, so each round's backoff draw shows in the
    # time the air is busy until. Between draws its window doubles up to
    # cw_max (a collision) or returns to cw_min (a success).
    sim = Simulation(parse_scenario({
        "horizon_ms": 1, "mode": "distributed", "topology": {"sfus": ["a"]},
        "flows": [{"name": "f", "dst": "a", "size_bytes": 1500,
                   "model": "batch", "count": 1}],
    }))
    sfu, flow = sim.sfus["a"], sim.flows[0]
    domain = sfu.domain
    oh = domain.overhead
    domain.stations[0] = (sfu, random.Random(seed).getrandbits)
    by_draw_int, by_randint = random.Random(seed), random.Random(seed)
    cw = oh.cw_min
    for move in ["succeed", *moves]:
        cw = min((cw + 1) * 2 - 1, oh.cw_max) if move == "collide" else oh.cw_min
        sfu.set_cw(cw)
        sfu.enqueue((flow, 0))
        domain.on_round(Event(0, 0, domain.target, "round"))
        slots, rest = divmod(domain.busy_until - oh.difs_ns - flow.airtime_ns,
                             oh.slot_ns)
        assert rest == 0
        assert slots == draw_int(by_draw_int.getrandbits, cw)
        assert slots == by_randint.randint(0, cw)


def test_backoff_bit_count_follows_the_window(monkeypatch):
    # after every CSMA/CA round, each station's cached bit count is the one
    # a draw from its current window needs
    seen = {"collisions": 0, "doubled": 0}
    on_round = ContentionDomain.on_round

    def checked(domain, ev):
        on_round(domain, ev)
        for sfu, _ in domain.stations:
            assert sfu.cw_bits == (sfu.cw + 1).bit_length()
            seen["doubled"] += sfu.cw > domain.overhead.cw_min

    monkeypatch.setattr(ContentionDomain, "on_round", checked)
    res = run_scenario_config(load_scenario(SCENARIOS / "conflict_pair.yaml",
                                            {"mode": "distributed",
                                             "duration_ms": 200}))
    cells = res.cell_stats.values()
    # both successes and collisions happened, and windows grew past cw_min
    assert sum(c.collisions for c in cells) > 0
    assert sum(s.delivered for s in res.flow_stats.values()) > 0
    assert seen["doubled"] > 0


def test_a_deep_sleep_command_a_room_does_not_obey_counts_once():
    # room a sleeps from 3 ms; a frame at 5 ms wakes it by 7.1 ms. Room b
    # reports light sleep at 7.013 ms, when a is still asleep, so the MFU
    # sends both the deep-sleep command, which reaches a at 9.013 ms, idle
    # again. IDLE -> DEEP_SLEEP is illegal: the power machine counts it, and
    # the run used to count it a second time
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 60, "topology": {"sfus": ["a", "b"]},
        "control": {"control_delay_us": 2000},
        "flows": [{"name": room, "dst": room, "size_bytes": 1500,
                   "model": "batch", "count": 1, "start_ms": start}
                  for room, start in (("b", 0), ("a", 5))],
        "energy": {"savings_enabled": True, "t_act_idle_ms": 1,
                   "t_idle_sleep_ms": 2, "sfu": {"wake_light_ms": 0.1}},
    }))
    assert (7_013_106, "deep_sleep_command", MFU) in res.events
    assert 7_100_000 in wakes(res, "a")
    assert (PowerState.IDLE, 8_113_106, 12_113_106) in res.ledgers["a"].records
    assert res.rejected_transitions == 1


def dead_room_run(kill: dict, mode: str = "centralized"):
    """A 60 ms run of one room `a` with 1 ms and 2 ms sleep timers and a
    2 ms poll cycle, killed as `kill` says, that gets three frames at
    10 ms."""
    return run_scenario_config(parse_scenario({
        "horizon_ms": 60, "mode": mode, "topology": {"sfus": ["a"]},
        "flows": [{"name": "f", "dst": "a", "size_bytes": 1500,
                   "model": "batch", "count": 3, "start_ms": 10}],
        "management": {"poll_cycle_ms": 2, "kill": {"sfu": "a", **kill}},
        "energy": {"savings_enabled": True, "t_act_idle_ms": 1,
                   "t_idle_sleep_ms": 2,
                   "sfu": {"wake_deep_ms": 2, "t_listen_ms": 4}},
    }))


def test_traffic_does_not_wake_a_dead_room():
    # killed at 1 ms while awake: it goes idle and stays idle; its frames
    # used to take it back to ACTIVE at 10.013 ms
    res = dead_room_run({"at_ms": 1})
    assert res.ledgers["a"].records == [
        (PowerState.ACTIVE, 0, 1_000_000),
        (PowerState.IDLE, 1_000_000, 60_000_000)]
    assert res.events == []
    assert alarms(res) == [("a", "Unresponsive", 4_000_000, None)]
    assert res.flow_stats["f"].delivered == 0


def test_a_dead_room_does_not_obey_the_deep_sleep_command():
    # it reports light sleep at 3 ms and is killed at 3.002 ms, before the
    # MFU's deep-sleep command reaches it at 3.005 ms: it stays in light
    # sleep, where it used to go DEEP_SLEEP while dead
    res = dead_room_run({"at_ms": 3.002})
    assert res.ledgers["a"].records[-1] == (PowerState.LIGHT_SLEEP,
                                            3_000_000, 60_000_000)
    assert res.events == COMMANDS
    assert sleep_reports(res, "a") == [3_000_000]
    assert alarms(res) == [("a", "Unresponsive", 12_000_000, None)]
    assert res.rejected_transitions == 0


@pytest.mark.parametrize("mode", ["centralized", "distributed"])
def test_a_recovered_room_sends_the_frames_queued_while_it_was_dead(mode):
    # killed at 1 ms and recovered at 20 ms, it holds the frames of 10 ms;
    # in distributed mode they used to wait for new traffic to start a
    # contention round, so none was sent
    res = dead_room_run({"at_ms": 1, "recover_ms": 20}, mode)
    assert res.flow_stats["f"].delivered == 3


# room a reports light sleep at 3 ms, so the MFU sends the deep-sleep
# command; the frames of 10 ms send it a wake command
COMMANDS = [(3_000_000, "deep_sleep_command", MFU),
            (10_000_000, "wake_command", "a")]
SLEEPING = (PowerState.LIGHT_SLEEP, PowerState.DEEP_SLEEP)


def sleep_reports(res, room: str) -> list[int]:
    """The times `room` reported light sleep: its ledger enters
    LIGHT_SLEEP."""
    return [start for state, start, _ in res.ledgers[room].records
            if state == PowerState.LIGHT_SLEEP]


def wakes(res, room: str) -> list[int]:
    """The times `room` finished a wake: its ledger goes from LIGHT_SLEEP or
    DEEP_SLEEP to IDLE."""
    records = res.ledgers[room].records
    return [b[1] for a, b in zip(records, records[1:])
            if a[0] in SLEEPING and b[0] == PowerState.IDLE]


def alarms(res) -> list[tuple]:
    """(room, kind, raised, cleared) of each alarm of the run."""
    return [(a.source, a.kind.value, a.raised_at, a.cleared_at)
            for a in res.alarms]


@pytest.mark.parametrize("kill_ms, alarm_ms", [(5, 12), (10.2, 14)])
def test_a_dead_room_does_not_wake_and_raises_unresponsive(kill_ms, alarm_ms):
    # asleep from 3 ms, killed before (5 ms) or after (10.2 ms) the wake
    # command its frames send at 10 ms: it stays in deep sleep, where it
    # used to go IDLE at 13.005 ms, and once told to wake it no longer
    # counts as asleep, so missed polls raise Unresponsive
    res = dead_room_run({"at_ms": kill_ms})
    assert res.events == COMMANDS
    assert sleep_reports(res, "a") == [3_000_000]
    assert alarms(res) == [("a", "Unresponsive", alarm_ms * 1_000_000, None)]
    assert res.ledgers["a"].records[-1] == (PowerState.DEEP_SLEEP, 3_005_000,
                                            60_000_000)
    assert res.flow_stats["f"].delivered == 0


def test_a_dead_room_is_woken_again_when_it_answers_a_poll():
    # recovered at 20 ms, it answers the poll then, which clears its alarm
    # and sends the wake again; its buffered frames are delivered
    res = dead_room_run({"at_ms": 5, "recover_ms": 20})
    assert res.events[:3] == [*COMMANDS, (20_000_000, "wake_command", "a")]
    assert sleep_reports(res, "a")[0] == 3_000_000
    assert wakes(res, "a") == [25_005_000]
    assert alarms(res) == [("a", "Unresponsive", 12_000_000, 20_000_000)]
    assert res.flow_stats["f"].delivered == 3


@pytest.mark.parametrize("starts_ms,kill,records", [
    # the room's sleep check, due at 3.513 ms for the frame of 0.5 ms, finds
    # it dead and moves to its recovery at 5 ms; the frame is still queued
    # then, so the room sleeps one t_idle_sleep later, and the frame of
    # 8 ms wakes it too late to be delivered by 20 ms
    ((0.5, 8), {"at_ms": 2, "recover_ms": 5},
     [("active", 0, 1_513_106), ("idle", 1_513_106, 7_000_000),
      ("light_sleep", 7_000_000, 7_005_000),
      ("deep_sleep", 7_005_000, 20_000_000)]),
    # dead from 3 to 4 ms, while the timer of the frame of 2.4 ms runs out:
    # the room still sleeps 2 ms after it went idle
    ((0.5, 2.4), {"at_ms": 3, "recover_ms": 4},
     [("active", 0, 1_513_106), ("idle", 1_513_106, 2_413_106),
      ("active", 2_413_106, 3_413_106), ("idle", 3_413_106, 5_413_106),
      ("light_sleep", 5_413_106, 5_418_106),
      ("deep_sleep", 5_418_106, 20_000_000)]),
])
def test_a_room_dead_while_its_sleep_check_is_due_sleeps_again(starts_ms,
                                                              kill, records):
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 20, "topology": {"sfus": ["a"]},
        "flows": [{"name": f"f{i}", "dst": "a", "size_bytes": 1500,
                   "model": "batch", "count": 1, "start_ms": start}
                  for i, start in enumerate(starts_ms)],
        "management": {"kill": {"sfu": "a", **kill}},
        "energy": {"savings_enabled": True, "t_act_idle_ms": 1,
                   "t_idle_sleep_ms": 2}}))
    assert res.ledgers["a"].records == [
        (PowerState(state), start, end) for state, start, end in records]
    sleep_at = next(start for state, start, _ in records
                    if state == "light_sleep")
    assert sleep_reports(res, "a") == [sleep_at]
    assert res.events[0] == (sleep_at, "deep_sleep_command", MFU)


@pytest.mark.parametrize("iot,tail,events", [
    (False, [("light_sleep", 10_000_000, 10_005_000),
             ("deep_sleep", 10_005_000, 60_000_000)],
     [(10_000_000, "deep_sleep_command", MFU)]),
    (True, [("rf_off", 10_000_000, 60_000_000)], []),
])
def test_a_room_that_recovers_with_nothing_queued_sleeps_again(iot, tail,
                                                               events):
    # a is killed at 0.5 ms and recovered at 10 ms; no traffic. Its sleep
    # check, due at 3 ms, moves to the recovery, where a sleeps at once: it
    # used to stay IDLE to the horizon. b has been asleep since 3 ms, so a
    # without an IoT device gets a deep-sleep command of its own
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 60,
        "topology": {"sfus": [{"name": "a", "iot_resident": iot}, "b"]},
        "management": {"kill": {"sfu": "a", "at_ms": 0.5,
                                "recover_ms": 10}},
        "energy": {"savings_enabled": True, "t_act_idle_ms": 1,
                   "t_idle_sleep_ms": 2}}))
    assert [(state.value, start, end)
            for state, start, end in res.ledgers["a"].records] == [
        ("active", 0, 1_000_000), ("idle", 1_000_000, 10_000_000), *tail]
    assert sleep_reports(res, "b") == [3_000_000]
    assert res.events == [(3_000_000, "deep_sleep_command", MFU), *events]


def test_a_woken_room_sleeps_only_after_its_flushed_frames_arrive():
    # three 4,000-byte frames at 5 ms wake the room from deep sleep at
    # 9.505 ms; on a 10 Mb/s link each takes about 3.43 ms, so the last
    # reaches the room at 19.805850 ms. The room used to report light
    # sleep at 15.438650 ms, with the last two still on the link, and they
    # were never delivered
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 40, "topology": {"sfus": ["a"]},
        "optical": {"downstream_gbps": 0.01},
        "flows": [{"name": "f", "dst": "a", "size_bytes": 4000,
                   "model": "batch", "count": 3, "start_ms": 5}],
        "energy": {"savings_enabled": True, "t_act_idle_ms": 0.5,
                   "t_idle_sleep_ms": 1,
                   "sfu": {"wake_light_ms": 1, "wake_deep_ms": 2,
                           "t_listen_ms": 3}}}))
    assert res.flow_stats["f"].delivered == 3
    assert sleep_reports(res, "a")[-1] == 21_305_850
    assert res.events[-1] == (21_305_850, "deep_sleep_command", MFU)


def iot_sleep_run(flows: list[dict], mode: str = "distributed",
                  t_act_idle_ms: float = 1, t_idle_sleep_ms: float = 2):
    """The ledger of IoT room `a` in a 15 ms run with batch `flows`."""
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 15, "mode": mode,
        "topology": {"sfus": [{"name": "a", "iot_resident": True}]},
        "flows": [{"name": f"f{i}", "dst": "a", "model": "batch", **flow}
                  for i, flow in enumerate(flows)],
        "energy": {"savings_enabled": True, "t_act_idle_ms": t_act_idle_ms,
                   "t_idle_sleep_ms": t_idle_sleep_ms}}))
    return [(state.value, start, end)
            for state, start, end in res.ledgers["a"].records]


# A frame of 2,036 bytes takes exactly twice as long on the MFU link as
# one of 1,000 bytes (2,200 and 1,100 wire bytes).
@pytest.mark.parametrize("flows,kwargs,tail", [
    # Two frames at 5 ms; the second reaches the room at 5.017650 ms, the
    # timers run out at 8.017650 ms, when the frame sent at 8 ms arrives.
    # The room's check moved to that instant at 6 ms, before the frame
    # left the MFU, so it runs first: the room turns its RF off, and the
    # frame takes it back to ACTIVE.
    ([{"size_bytes": 1000, "count": 2, "start_ms": 5},
      {"size_bytes": 2036, "count": 1, "start_ms": 8}], {},
     [("rf_off", 3_000_000, 5_008_850), ("active", 5_008_850, 6_017_650),
      ("idle", 6_017_650, 8_017_650), ("rf_off", 8_017_650, 8_017_650),
      ("active", 8_017_650, 9_017_650), ("idle", 9_017_650, 11_017_650),
      ("rf_off", 11_017_650, 15_000_000)]),
    # a frame still on the link when the room turns its RF off at 3 ms
    # starts its timers again
    ([{"size_bytes": 1500, "count": 1, "start_ms": 2.995}], {},
     [("rf_off", 3_000_000, 3_008_106), ("active", 3_008_106, 4_008_106),
      ("idle", 4_008_106, 6_008_106), ("rf_off", 6_008_106, 15_000_000)]),
    # 50 us timers: the frame reaches the room at 1.013106 ms and waits for
    # the grant of the 5 ms status cycle, the first event to apply the
    # receive; the room turns its RF off once that grant has sent it, on
    # the phase of its timers
    ([{"size_bytes": 1500, "count": 1, "start_ms": 1}],
     {"mode": "centralized", "t_act_idle_ms": 0.05,
      "t_idle_sleep_ms": 0.05},
     [("rf_off", 100_000, 1_013_106), ("active", 1_013_106, 1_063_106),
      ("idle", 1_063_106, 5_013_106), ("rf_off", 5_013_106, 15_000_000)]),
])
def test_an_iot_rooms_sleep_timer_runs_from_its_last_receive(flows, kwargs,
                                                             tail):
    records = iot_sleep_run(flows, **kwargs)
    assert records[-len(tail):] == tail


@pytest.mark.parametrize("name", ["four_room_household", "idle_night"])
def test_with_savings_off_no_room_schedules_a_power_event(name,
                                                          monkeypatch):
    kinds = set()
    schedule = simulation.Simulator.schedule

    def spy(sim, fire_time, target, kind, *args):
        if target.startswith("sfu:"):
            kinds.add(kind)
        return schedule(sim, fire_time, target, kind, *args)

    monkeypatch.setattr(simulation.Simulator, "schedule", spy)
    # idle_night runs with savings on
    cfg = load_scenario(SCENARIOS / f"{name}.yaml")
    cfg.savings_enabled = False
    res = run_scenario_config(cfg)
    assert not kinds & {"power_check", "sleep_check"}
    assert kinds <= {"kill", "recover", "optical_rx"}
    # the idle timers still run, and no unit sleeps
    assert {state for ledger in res.ledgers.values()
            for state, _, _ in ledger.records} == {PowerState.ACTIVE,
                                                   PowerState.IDLE}


def cycle_and_receive_run(start_us: int, rx_us: int):
    """Centralized, 100 us status cycles, one 1500-byte frame that reaches
    the MFU at `start_us` and its room at `rx_us`, through the propagation
    delay."""
    def scenario(prop_delay_ns: int) -> dict:
        return {"horizon_ms": 1, "topology": {"sfus": ["a"]},
                "optical": {"prop_delay_ns": prop_delay_ns},
                "control": {"status_cycle_us": 100},
                "flows": [{"name": "f", "dst": "a", "size_bytes": 1500,
                           "model": "batch", "count": 1,
                           "start_ms": start_us / 1000}]}
    optical_ns = Simulation(parse_scenario(scenario(0))).flows[0].optical_ns
    return run_scenario_config(parse_scenario(
        scenario((rx_us - start_us) * 1000 - optical_ns)))


def grant_and_receive_run(hi_start_us: int):
    """Centralized, 100 us status cycles, one room, a 10 Gb/s MFU link. A
    priority-0 frame sent at 50 us reaches the room by 56 us, so the
    100 us cycle grants the room its air time from 105 us. A priority-7
    frame of the same size, sent at `hi_start_us`, reaches the room at
    105 us, the grant's start."""
    def scenario(prop_delay_ns: int) -> dict:
        return {"horizon_ms": 1, "topology": {"sfus": ["a"]},
                "optical": {"downstream_gbps": 10,
                            "prop_delay_ns": prop_delay_ns},
                "control": {"status_cycle_us": 100},
                "flows": [{"name": name, "dst": "a", "size_bytes": 1500,
                           "priority": priority, "model": "batch",
                           "count": 1, "start_ms": start_us / 1000}
                          for name, priority, start_us
                          in (("lo", 0, 50), ("hi", 7, hi_start_us))]}
    optical_ns = Simulation(parse_scenario(scenario(0))).flows[0].optical_ns
    return run_scenario_config(parse_scenario(
        scenario((105 - hi_start_us) * 1000 - optical_ns)))


@pytest.mark.parametrize("hi_start_us,first", [(99, "hi"), (101, "lo")])
def test_a_grant_and_a_receive_at_one_instant_apply_in_sequence_order(
        hi_start_us, first):
    # Sent at 99 us, before the 100 us cycle issued the grant, the
    # priority-7 frame is received first and takes the grant, which holds
    # one frame's air time; the priority-0 frame waits for the 205 us
    # grant. Sent at 101 us, after, it is received after the grant has
    # sent the priority-0 frame, and waits itself
    res = grant_and_receive_run(hi_start_us)
    sent = {}
    proc_ns = res.config.proc_mfu_ns + res.config.proc_sfu_ns
    for name, flow in res.flow_stats.items():
        assert flow.delivered == 1
        created = flow.spec.start_ns
        sent[name] = created + flow.latencies[0] - proc_ns - flow.airtime_ns
    assert [g.start for g in res.grants] == [105_000, 205_000]
    second = "lo" if first == "hi" else "hi"
    assert (sent[first], sent[second]) == (105_000, 205_000)


@pytest.mark.parametrize("start_us,grant_us", [(50, 205), (150, 305)])
def test_a_frame_received_with_a_status_cycle_is_in_its_report_if_sent_first(
        start_us, grant_us):
    # The frame reaches its room at 200 us, with the status cycle that the
    # 100 us cycle scheduled. Sent at 50 us, before that cycle was
    # scheduled, it is in the 200 us report, and its grant starts 5 us
    # (control_delay) later. Sent at 150 us, after, it waits for the 300 us
    # cycle.
    res = cycle_and_receive_run(start_us, 200)
    assert [g.start for g in res.grants] == [grant_us * 1000]
    assert res.flow_stats["f"].delivered == 1


def test_arrivals_at_one_ns_with_a_status_cycle_and_a_sleep_check(
        monkeypatch):
    # Status cycles every 1 ms and 1 ms / 2 ms sleep timers. `f` sends a
    # frame to room `a` at 0 and at 3 ms; `g` one to room `b` every 0.5 ms
    # from 0.5 ms. Each arrival runs at its place in the (time, seq) order:
    # `f`'s second one was primed before the rooms' first sleep checks and
    # runs before them and the 3 ms cycle; `g`'s at an integer ms was
    # numbered after the cycle that shares its ns, and runs after it.
    # `a`'s check moves on to the end of its timers at 3.013106 ms, when
    # `f`'s second frame reaches `a` too; the receive, sent before the check
    # moved on, comes first and restarts the timer, and `a` sleeps 3 ms
    # after it
    order = []
    arrival, register = Simulation._flow_arrival, simulation.Simulator.register

    def spy_arrival(sim, now, flow):
        order.append((now, flow.spec.name))
        return arrival(sim, now, flow)

    def spy_register(engine, target, handler):
        def spied(ev):
            if ev.kind in ("status_cycle", "sleep_check"):
                order.append((ev.fire_time, f"{target} {ev.kind}"))
            handler(ev)
        register(engine, target, spied)

    monkeypatch.setattr(Simulation, "_flow_arrival", spy_arrival)
    monkeypatch.setattr(simulation.Simulator, "register", spy_register)
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 10, "topology": {"sfus": ["a", "b"]},
        "control": {"status_cycle_us": 1000},
        "flows": [{"name": "f", "dst": "a", "size_bytes": 1500,
                   "model": "batch", "count": 2, "interval_us": 3000},
                  {"name": "g", "dst": "b", "size_bytes": 1500,
                   "model": "constant_rate", "rate_mbps": 24,
                   "start_ms": 0.5}],
        "energy": {"savings_enabled": True, "t_act_idle_ms": 1,
                   "t_idle_sleep_ms": 2}}))
    at = {t: [what for u, what in order if u == t]
          for t in (1_000_000, 3_000_000)}
    assert at == {
        1_000_000: ["mfu status_cycle", "g"],
        3_000_000: ["f", "sfu:a sleep_check", "sfu:b sleep_check",
                    "mfu status_cycle", "g"]}
    assert res.ledgers["a"].records == [
        (PowerState.ACTIVE, 0, 1_013_106),
        (PowerState.IDLE, 1_013_106, 3_013_106),
        (PowerState.ACTIVE, 3_013_106, 4_013_106),
        (PowerState.IDLE, 4_013_106, 6_013_106),
        (PowerState.LIGHT_SLEEP, 6_013_106, 10_000_000)]
    assert res.ledgers["b"].records == [(PowerState.ACTIVE, 0, 10_000_000)]
    assert sleep_reports(res, "a") == [6_013_106]
    assert res.events == []
    rows = build_summary(res)["flows"]
    assert {name: (row["offered"], row["delivered"], row["lost"],
                   row["latency_p50_ns"]) for name, row in rows.items()} == {
        "f": (2, 2, 0, 1_119_000), "g": (20, 17, 3, 713_000)}


def test_a_frame_reaching_an_idle_contention_domain_wakes_it(monkeypatch):
    # Distributed, one room, 600 us propagation delay: three frames sent
    # 300 us apart, then three more from 3 ms, so the domain is idle
    # between the groups. The second and third frame of a group leave the
    # MFU before the one ahead of them is received, and are received after
    # the round that sends it finds no other contender. Each frame wakes
    # the domain at its receive time; nothing else would receive those
    # frames before the horizon.
    woken = []
    wake = ContentionDomain.wake

    def spy(domain, rx, seq, sfu):
        woken.append(rx)
        wake(domain, rx, seq, sfu)
    monkeypatch.setattr(ContentionDomain, "wake", spy)
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 5, "mode": "distributed", "topology": {"sfus": ["a"]},
        "optical": {"prop_delay_ns": 600_000},
        "flows": [{"name": f"f{k}", "dst": "a", "size_bytes": 1500,
                   "model": "batch", "count": 3, "interval_us": 300,
                   "start_ms": 3 * k} for k in (0, 1)],
    }))
    optical_ns = res.flow_stats["f0"].optical_ns
    assert woken == [start + k * 300_000 + optical_ns + 600_000
                     for start in (0, 3_000_000) for k in range(3)]
    for flow in res.flow_stats.values():
        assert flow.offered == flow.delivered == 3
        # sent within one backoff window and air time of its receive time
        assert max(flow.latencies) < 1_000_000


def test_a_round_with_no_contender_wakes_the_domain_at_its_next_frame():
    # Distributed, conflicting rooms a and b, 100 Mb/s air, 600 us
    # propagation delay. a's two 12000-byte frames reach it at 0.703 and
    # 0.805 ms; it sends the first from 0.845 to 1.889 ms, and the second
    # makes it contend in the round at 1.889 ms. a is killed at 1 ms. b's
    # frame leaves the MFU at 1.4 ms, while that round is pending, and
    # reaches b at 2.013 ms. The round finds a dead and b empty; it must
    # wake the domain at b's frame, which then wins a round at its receive
    # time: DIFS, 7 backoff slots and 204 us of air time, plus 20 us of
    # processing, as when every receive was an event. Without the wake the
    # frame would stay queued to the horizon.
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 5, "mode": "distributed",
        "topology": {"sfus": ["a", "b"], "conflicts": [["a", "b"]]},
        "wifi": {"air_rate_mbps": 100},
        "optical": {"prop_delay_ns": 600_000},
        "management": {"kill": {"sfu": "a", "at_ms": 1}},
        "flows": [{"name": "fa", "dst": "a", "size_bytes": 12000,
                   "model": "batch", "count": 2},
                  {"name": "fb", "dst": "b", "size_bytes": 1500,
                   "model": "batch", "count": 1, "start_ms": 1.4}],
    }))
    assert list(res.flow_stats["fa"].latencies) == [1_908_688]
    assert list(res.flow_stats["fb"].latencies) == [934_056]


def burst(sfu: str, period_us: float) -> dict:
    return {"sfu": sfu, "period_us": period_us, "air_duration_us": 50,
            "rus": [{"bytes": 4000}]}


def test_bursts_at_one_time_keep_the_order_they_were_scheduled_in():
    # each burst takes a 32 us slot from 50 us after its start; `b`'s first
    # waits for `a`'s slot and its guard
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 2.5, "topology": {"sfus": ["a", "b"]},
        "uplink_bursts": [burst("a", 1000), burst("b", 2000)]}))
    assert res.bursts == [0, 32_100, 0, 0, 32_100]
    # at 2 ms, `b`'s start (scheduled at 0 ms) comes before `a`'s
    # (scheduled at 1 ms), though `a` is listed first
    slots = [s for s in res.upstream_slots if s[0] != "omci"]
    assert slots[3:] == [("b", 2_050_000, 32_000, 2),
                         ("a", 2_082_100, 32_000, 2)]


@pytest.mark.parametrize("horizon_ms,drops", [(1.4, 0), (1.5, 1)])
def test_a_relay_slot_ending_at_the_next_start_drains_first(horizon_ms,
                                                            drops):
    # every burst relays 24000 B, the whole buffer, in a 192 us slot that
    # ends exactly at the next start 242 us later, until the OMCI window
    # at 1.25 ms moves one slot to end at 1,452,100 ns, after the start at
    # 1,452,000 ns
    res = run_scenario_config(parse_scenario({
        "horizon_ms": horizon_ms, "mode": "phy_relay",
        "topology": {"sfus": ["a"]}, "phy_relay": {"buffer_bytes": 24000},
        "uplink_bursts": [{"sfu": "a", "period_us": 242,
                           "air_duration_us": 50}]}))
    assert res.relay_overflow_drops == drops


@pytest.mark.parametrize("start_ms,count,interval_ms,records", [
    # a second arrival exactly when the first's timer ends keeps it ACTIVE
    (0, 2, 1, [("active", 0, 2), ("idle", 2, 5)]),
    (0, 2, 2.5, [("active", 0, 1), ("idle", 1, 2.5), ("active", 2.5, 3.5),
                 ("idle", 3.5, 5)]),
    # an arrival at the horizon, and a timer that ends there, each leave a
    # zero-length record at the horizon
    (5, 1, 0, [("active", 0, 1), ("idle", 1, 5), ("active", 5, 5)]),
    (4, 1, 0, [("active", 0, 1), ("idle", 1, 4), ("active", 4, 5),
               ("idle", 5, 5)]),
])
def test_mfu_goes_idle_one_timer_after_its_last_arrival(start_ms, count,
                                                        interval_ms,
                                                        records):
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 5, "topology": {"sfus": ["a"]},
        "flows": [{"name": "f", "dst": "a", "size_bytes": 100,
                   "model": "batch", "count": count, "start_ms": start_ms,
                   "interval_us": interval_ms * 1000}],
        "energy": {"savings_enabled": False, "t_act_idle_ms": 1}}))
    assert res.ledgers[MFU].records == [
        (PowerState(state), int(start * 1e6), int(end * 1e6))
        for state, start, end in records]


# ACTIVE from 0 to a 5 ms horizon
ACTIVE_ALL_RUN = [(PowerState.ACTIVE, 0, 5_000_000)]


@pytest.mark.parametrize("extra,records", [
    # every slot ends 82 us past the ms, exactly one 1 ms timer after the
    # one before
    ({"uplink_bursts": [burst("a", 1000)]}, ACTIVE_ALL_RUN),
    # a frame every 1 ms from 0, each when the last one's timer runs out,
    # up to the horizon
    ({"flows": [{"name": "f", "dst": "a", "size_bytes": 1000,
                 "model": "constant_rate", "rate_mbps": 8, "start_ms": 0}]},
     ACTIVE_ALL_RUN),
    # the same from 0.5 ms
    ({"flows": [{"name": "f", "dst": "a", "size_bytes": 1000,
                 "model": "constant_rate", "rate_mbps": 8,
                 "start_ms": 0.5}]},
     ACTIVE_ALL_RUN),
    # a frame at 1 ms, when the first timer runs out, and one every 1 ms
    # from 0 of `g`
    ({"flows": [{"name": "f", "dst": "a", "size_bytes": 100,
                 "model": "batch", "count": 1, "start_ms": 1},
                {"name": "g", "dst": "a", "size_bytes": 1000,
                 "model": "constant_rate", "rate_mbps": 8, "start_ms": 0}]},
     ACTIVE_ALL_RUN),
    # a 50 us timer: the slot end at 82 us falls 50 us after the frame at
    # 32 us, and keeps the MFU ACTIVE to 132 us
    ({"horizon_ms": 0.5, "uplink_bursts": [burst("a", 1000)],
      "energy": {"savings_enabled": False, "t_act_idle_ms": 0.05},
      "flows": [{"name": "f", "dst": "a", "size_bytes": 100,
                 "model": "batch", "count": 1, "start_ms": 0.032}]},
     [(PowerState.ACTIVE, 0, 132_000), (PowerState.IDLE, 132_000, 500_000)]),
])
def test_at_one_instant_an_activity_beats_the_mfu_idle_timer(extra, records):
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 5, "topology": {"sfus": ["a"]},
        "energy": {"savings_enabled": False, "t_act_idle_ms": 1}, **extra}))
    assert res.ledgers[MFU].records == records


@pytest.mark.parametrize("start_ms", [0, 0.5])
def test_at_one_instant_a_frame_beats_a_rooms_idle_timer(start_ms):
    # a frame reaches room `a` every 1 ms, each when the last one's timer
    # runs out
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 5, "topology": {"sfus": ["a"]},
        "flows": [{"name": "f", "dst": "a", "size_bytes": 1000,
                   "model": "constant_rate", "rate_mbps": 8,
                   "start_ms": start_ms}],
        "energy": {"savings_enabled": False, "t_act_idle_ms": 1}}))
    assert res.ledgers["a"].records == ACTIVE_ALL_RUN


@pytest.mark.parametrize("kill,starts_ms", [
    ({"at_ms": 2, "recover_ms": 4}, [0, 1, 4, 5]),
    ({"at_ms": 2}, [0, 1]),
])
def test_a_dead_room_sends_no_uplink_burst(kill, starts_ms):
    # both rooms start a burst every ms; `a` is dead from 2 ms, up to its
    # recovery if it has one
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 5.5, "topology": {"sfus": ["a", "b"]},
        "uplink_bursts": [burst("a", 1000), burst("b", 1000)],
        "management": {"kill": {"sfu": "a", **kill}}}))
    slots = [(sfu, start) for sfu, start, _, _ in res.upstream_slots
             if sfu != "omci"]
    assert [start for sfu, start in slots if sfu == "a"] == [
        t * 1_000_000 + 50_000 for t in starts_ms]
    assert len([sfu for sfu, _ in slots if sfu == "b"]) == 6
    assert len(res.bursts) == len(starts_ms) + 6


def test_an_oversized_burst_fails_though_its_room_is_dead_all_run():
    # a relayed 100 us burst takes a 384 us slot, longer than the 239.9 us
    # between two OMCI windows; room `a` is dead before its first start
    with pytest.raises(SimError, match="384000 ns from a does not fit"):
        run_scenario_config(parse_scenario({
            "horizon_ms": 2, "mode": "phy_relay", "topology": {"sfus": ["a"]},
            "uplink_bursts": [{"sfu": "a", "period_us": 1000,
                               "air_duration_us": 100}],
            "management": {"kill": {"sfu": "a", "at_ms": 0}}}))

def test_a_dead_room_drops_the_omci_requests_it_receives():
    # request j reaches room `a` at j * 250 us + 5 us, so requests 4 to 11
    # arrive while it is dead, from 1 ms to 3 ms: it neither applies nor
    # answers them
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 20, "topology": {"sfus": ["a"]},
        "management": {"storm": {"count": 40, "entity_class": 7},
                       "kill": {"sfu": "a", "at_ms": 1, "recover_ms": 3}}}))
    answered = [j for j in range(40) if not 4 <= j <= 11]
    responses = decode_omci_stream(res.olt_received)
    assert [m.transaction_id for m in responses] == answered
    assert res.omci_delivered == len(answered)
    assert sorted(res.mibs["a"].snapshot()) == [(7, j) for j in answered]


@pytest.mark.parametrize("count,sent", [(10, 10), (100, 21)])
def test_omci_sent_counts_the_requests_sent_by_the_horizon(count, sent):
    # one request leaves per 250 us cycle, and 21 cycles start by 5 ms
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 5, "topology": {"sfus": ["a"]},
        "management": {"storm": {"count": count}}}))
    assert res.omci_sent == sent
