import itertools

import pytest
from hypothesis import given, strategies as st

from fttrsim.links import InterferenceGraph
from fttrsim import scheduling as sch
from fttrsim.frames import OMCI_TCONT, DATA_TCONT_BASE


def report(sfu, buffered, prio=4):
    # one ns of air time per queued byte
    return sch.SfuStatusReport(sfu, buffered, prio, buffered)


# ---------------------------------------------------------------------------
# report ordering

def test_grant_order_by_priority_then_backlog_then_name():
    reports = [report("c", 100, prio=4), report("a", 100, prio=7),
               report("b", 900, prio=4), report("d", 900, prio=4)]
    ordered = sorted(reports, key=sch.report_order_key)
    assert [r.sfu for r in ordered] == ["a", "b", "d", "c"]


def test_ordering_is_total_under_any_permutation():
    reports = [report("a", 10, prio=2), report("b", 10, prio=2),
               report("c", 500, prio=2), report("d", 3, prio=7),
               report("e", 3, prio=0)]
    for size in range(1, 6):
        subset = reports[:size]
        keys = [sch.report_order_key(r) for r in subset]
        assert len(set(keys)) == size
        reference = sorted(subset, key=sch.report_order_key)
        for perm in itertools.permutations(subset):
            assert sorted(perm, key=sch.report_order_key) == reference


# ---------------------------------------------------------------------------
# downlink grants

def test_conflicting_grants_are_serialized():
    g = InterferenceGraph([("a", "b")], ["c"])
    reports = [report("a", 1000, prio=7), report("b", 2000, prio=5),
               report("c", 3000, prio=5)]
    grants = sch.grant_downlink_airtime(reports, g, txop_max_ns=10_000,
                                        now=0, window_end=100_000)
    by_sfu = {gr.sfu: gr for gr in grants}
    assert by_sfu["a"].start == 0 and by_sfu["a"].max_duration == 1000
    assert by_sfu["c"].start == 0          # no conflict, runs in parallel
    assert by_sfu["b"].start == 1000       # pushed past the conflicting grant
    assert sch.check_grant_overlap(grants, g) == []


def test_grant_duration_capped_by_txop_and_window():
    g = InterferenceGraph([("a", "b")])
    reports = [report("a", 5000, prio=7), report("b", 5000, prio=1)]
    grants = sch.grant_downlink_airtime(reports, g, txop_max_ns=3000, now=100,
                                        window_end=4100)
    by_sfu = {gr.sfu: gr for gr in grants}
    assert by_sfu["a"].max_duration == 3000
    assert by_sfu["b"].start == 3100
    assert by_sfu["b"].max_duration == 1000  # truncated at the window edge


def test_empty_buffers_get_no_grant():
    g = InterferenceGraph((), ["a"])
    grants = sch.grant_downlink_airtime([report("a", 0)], g, 1000, 0, 5000)
    assert grants == []


def test_overlap_checker_flags_conflicting_overlap_only():
    g = InterferenceGraph([("a", "b")], ["c"])
    overlapping = [sch.AirGrant("a", 0, 100), sch.AirGrant("b", 50, 100),
                   sch.AirGrant("c", 0, 1000)]
    bad = sch.check_grant_overlap(overlapping, g)
    assert len(bad) == 1
    assert {bad[0][0].sfu, bad[0][1].sfu} == {"a", "b"}


# The all-pairs forms of the allocator and the checker, kept as references
# for the neighbour-indexed versions in scheduling.py.

def all_pairs_grants(reports, graph, txop_max_ns, now, window_end):
    grants = []
    for rep in sorted(reports, key=sch.report_order_key):
        if rep.buffered_bytes <= 0:
            continue
        start = now
        for g in grants:
            if graph.conflicts(g.sfu, rep.sfu):
                start = max(start, g.start + g.max_duration)
        duration = min(rep.airtime_ns, txop_max_ns, window_end - start)
        if duration <= 0:
            continue
        grants.append(sch.AirGrant(rep.sfu, start, duration))
    return grants


def all_pairs_overlaps(grants, graph):
    return [(a, b) for i, a in enumerate(grants) for b in grants[i + 1:]
            if graph.conflicts(a.sfu, b.sfu)
            and a.start < b.start + b.max_duration
            and b.start < a.start + a.max_duration]


CELLS = "abcdef"
edges_st = st.lists(st.tuples(st.sampled_from(CELLS), st.sampled_from(CELLS))
                    .filter(lambda e: e[0] != e[1]), max_size=12)


def graph_of(edges):
    # one cell may be missing from the graph
    return InterferenceGraph(edges, CELLS[:-1])


@given(edges_st,
       st.lists(st.tuples(st.sampled_from(CELLS), st.integers(0, 5000),
                          st.integers(-1, 7)), max_size=10),
       st.integers(500, 4000), st.integers(1000, 12_000),
       st.integers(0, 3000))
def test_grants_match_all_pairs_reference(edges, raw, txop, window_end, now):
    graph = graph_of(edges)
    # duplicate SFUs and empty buffers are kept: a report list need not
    # name each cell once, nor only cells with queued bytes
    reports = [report(c, buffered, prio) for c, buffered, prio in raw]
    args = (reports, graph, txop, now, window_end)
    grants = sch.grant_downlink_airtime(*args)
    assert grants == all_pairs_grants(*args)


@given(edges_st,
       st.lists(st.tuples(st.sampled_from(CELLS), st.integers(0, 5000),
                          st.integers(-1, 7), st.integers(0, 5000)),
                max_size=10),
       st.integers(500, 4000), st.integers(1000, 12_000),
       st.integers(0, 3000))
def test_plain_tuple_reports_grant_as_named_ones(edges, raw, txop,
                                                 window_end, now):
    # a run sends its reports as plain 4-tuples in the named tuple's field
    # order; they sort and grant exactly as `SfuStatusReport`s do
    graph = graph_of(edges)
    named = [sch.SfuStatusReport(*r) for r in raw]
    key = sch.report_order_key
    assert [key(r) for r in raw] == [key(r) for r in named]
    assert sorted(raw, key=key) == sorted(named, key=key)
    grants = sch.grant_downlink_airtime(raw, graph, txop, now, window_end)
    assert grants == sch.grant_downlink_airtime(named, graph, txop, now,
                                                window_end)
    assert all(type(g) is sch.AirGrant for g in grants)


@given(edges_st,
       st.lists(st.tuples(st.sampled_from(CELLS), st.integers(0, 300),
                          st.integers(1, 200)), max_size=12))
def test_overlap_checker_matches_all_pairs_reference(edges, raw):
    graph = graph_of(edges)
    grants = [sch.AirGrant(c, start, dur) for c, start, dur in raw]
    assert sch.check_grant_overlap(grants, graph) == \
        all_pairs_overlaps(grants, graph)


# ---------------------------------------------------------------------------
# uplink requests / TAMap generation

def test_uplink_request_sums_resource_units():
    req = sch.ofdma_uplink_request("den", [("s1", 250), ("s2", 250)],
                                   per_sta_overhead=20)
    assert req.bytes_expected == 540
    assert sch.ofdma_uplink_request("den", [("s1", 0)]) is None
    assert sch.ofdma_uplink_request("den", []) is None


TAMAP_ARGS = dict(cycle_ns=100_000, cycle_start=0, upstream_bps=1_000_000_000,
                  omci_slot_ns=10_000, min_slot_ns=2_000, guard_ns=100,
                  omci_sfu="a", sfu_index={"a": 1, "b": 2})


def test_tamap_grants_full_demand_when_it_fits():
    reqs = [sch.UplinkBwRequest("a", 1500),
            sch.UplinkBwRequest("b", 4500)]
    tamap, carry = sch.generate_tamap(reqs, **TAMAP_ARGS)
    tamap.validate(100_000, require_omci=True)
    entries = {e.sfu: e for e in tamap.entries if e.tcont == DATA_TCONT_BASE}
    assert entries[1].duration_ns == 12_000   # 1500 B at 1 Gb/s
    assert entries[2].duration_ns == 36_000
    assert entries[1].offset_ns == 10_100     # after the management slot
    assert entries[2].offset_ns == 22_200
    assert carry == {}


def test_tamap_splits_shortfall_proportionally():
    args = dict(TAMAP_ARGS, cycle_ns=30_000)
    reqs = [sch.UplinkBwRequest("a", 1500),
            sch.UplinkBwRequest("b", 4500)]
    tamap, carry = sch.generate_tamap(reqs, **args)
    tamap.validate(30_000, require_omci=True)
    entries = {e.sfu: e for e in tamap.entries if e.tcont == DATA_TCONT_BASE}
    # capacity = 30000 - 10100 - 2*(2000+100) = 15700 ns, shared 1:3
    assert entries[1].duration_ns == 2_000 + 15_700 * 1500 // 6000
    assert entries[2].duration_ns == 2_000 + 15_700 * 4500 // 6000
    assert carry == {"a": 1500 - 5925 // 8, "b": 4500 - 13775 // 8}


def test_tamap_carryover_feeds_next_cycle():
    args = dict(TAMAP_ARGS, cycle_ns=30_000)
    reqs = [sch.UplinkBwRequest("a", 1500),
            sch.UplinkBwRequest("b", 4500)]
    _, carry = sch.generate_tamap(reqs, **args)
    total = dict(carry)
    for _ in range(10):  # backlog must drain monotonically
        if not total:
            break
        reqs = [sch.UplinkBwRequest(s, n) for s, n in sorted(total.items())]
        tamap, nxt = sch.generate_tamap(reqs, **args)
        tamap.validate(30_000, require_omci=True)
        for s in nxt:
            assert nxt[s] < total[s]
        total = nxt
    assert total == {}


def test_tamap_merges_repeat_requests():
    reqs = [sch.UplinkBwRequest("a", 700), sch.UplinkBwRequest("a", 800)]
    tamap, carry = sch.generate_tamap(reqs, **TAMAP_ARGS)
    data = [e for e in tamap.entries if e.tcont == DATA_TCONT_BASE]
    assert len(data) == 1 and data[0].duration_ns == 12_000
    assert carry == {}


def test_tamap_without_requests_still_reserves_management_slot():
    tamap, carry = sch.generate_tamap([], **TAMAP_ARGS)
    assert len(tamap.entries) == 1
    assert tamap.entries[0].tcont == OMCI_TCONT
    assert tamap.entries[0].offset_ns == 0
    assert carry == {}


def test_tamap_rejects_impossible_cycle():
    args = dict(TAMAP_ARGS, cycle_ns=12_000)
    with pytest.raises(ValueError):
        sch.generate_tamap([sch.UplinkBwRequest("a", 10),
                            sch.UplinkBwRequest("b", 10)], **args)


@given(demands=st.lists(st.integers(1, 100_000), min_size=0, max_size=6),
       cycle_us=st.integers(40, 500))
def test_tamap_structure_holds_for_random_demand(demands, cycle_us):
    names = [f"sfu{i}" for i in range(len(demands))]
    idx = {n: i + 1 for i, n in enumerate(names)}
    idx["mgmt"] = 99
    reqs = [sch.UplinkBwRequest(n, d) for n, d in zip(names, demands)]
    tamap, carry = sch.generate_tamap(
        reqs, cycle_ns=cycle_us * 1000, cycle_start=0,
        upstream_bps=1_000_000_000, omci_slot_ns=10_000, min_slot_ns=2_000,
        guard_ns=100, omci_sfu="mgmt", sfu_index=idx)
    tamap.validate(cycle_us * 1000, require_omci=True)
    assert all(v > 0 for v in carry.values())


# ---------------------------------------------------------------------------
# relay arithmetic

def test_relay_buffer_and_slot_arithmetic():
    nbytes = sch.phy_relay_buffer_bytes(100_000, 160_000_000, 24)
    assert nbytes == 48_000
    assert sch.phy_relay_slot_ns(nbytes, 10_000_000_000) == 38_400


def test_processing_constants_by_mode():
    assert sch.PROCESSING_NS[sch.SchedulerMode.CENTRALIZED_COORDINATED] == \
        20_000
    assert sch.PROCESSING_NS[sch.SchedulerMode.PHY_RELAY] == 30_000
