"""MFU control plane: status reports, contention-free downlink air grants,
OFDMA uplink coordination, upstream TAMap generation (DBA) and the
per-mode arithmetic (PHY-relay buffer and slot sizes, processing delays).

All functions here are pure policy: they take reports/requests and emit
grants or maps. The event-driven side (when reports arrive, when grants are
executed) lives in the simulation module, which lets the structural
invariants be checked without running a simulation.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .engine import transmit_time_ns
from .links import InterferenceGraph
from .frames import OMCI_TCONT, DATA_TCONT_BASE


class SchedulerMode(Enum):
    DISTRIBUTED_BASELINE = "distributed"
    CENTRALIZED_COORDINATED = "centralized"
    PHY_RELAY = "phy_relay"


class SfuStatusReport(NamedTuple):
    sfu: str
    buffered_bytes: int          # total across queues
    top_priority: int            # highest priority present, -1 if empty
    airtime_ns: int              # air time of the queued frames


class AirGrant(NamedTuple):
    sfu: str
    start: int
    max_duration: int


class UplinkBwRequest(NamedTuple):
    sfu: str
    bytes_expected: int


def report_order_key(report: SfuStatusReport) -> tuple[int, int, str]:
    """Grant ordering: highest priority first, then most buffered bytes,
    then node id ascending. Strict total order on distinct reports."""
    sfu, buffered, top, _ = report  # a named or a plain tuple
    return (-top, -buffered, sfu)


def grant_downlink_airtime(reports: list[SfuStatusReport],
                           graph: InterferenceGraph,
                           txop_max_ns: int,
                           now: int,
                           window_end: int) -> list[AirGrant]:
    """Sequence downlink air grants so no two conflicting cells overlap.

    Each SFU with a nonzero buffer gets one grant per cycle, of its queued
    air time, capped at `txop_max_ns` and clipped at `window_end`; within a
    conflict neighborhood grants start where the previous conflicting grant
    ends. Non-conflicting SFUs may hold simultaneous grants.
    """
    grants: list[AirGrant] = []
    append, neighbors, new = grants.append, graph.neighbors, tuple.__new__
    granted_end: dict[str, int] = {}     # sfu -> latest end of its grants
    latest = granted_end.get
    for sfu, buffered, _, airtime in sorted(reports, key=report_order_key):
        if buffered <= 0:
            continue
        start = now
        for other in neighbors(sfu):
            end = latest(other, start)
            if end > start:
                start = end
        duration = airtime if airtime < txop_max_ns else txop_max_ns
        if window_end - start < duration:
            duration = window_end - start
        if duration <= 0:
            continue
        # an `AirGrant` without the keyword-aware constructor
        append(new(AirGrant, (sfu, start, duration)))
        end = start + duration
        if end > latest(sfu, 0):
            granted_end[sfu] = end
    return grants


def check_grant_overlap(grants: list[AirGrant],
                        graph: InterferenceGraph) -> list[tuple[AirGrant, AirGrant]]:
    """Structural checker: return every conflicting pair of overlapping grants,
    ordered by the positions of the pair's grants in `grants`."""
    positions: dict[str, list[int]] = {}
    for j, g in enumerate(grants):
        positions.setdefault(g.sfu, []).append(j)
    bad = []                             # (i, j) of each overlapping pair
    for i, a in enumerate(grants):
        a_end = a.start + a.max_duration
        for other in graph.neighbors(a.sfu):
            for j in positions.get(other, ()):
                if j > i:
                    b = grants[j]
                    if a.start < b.start + b.max_duration and b.start < a_end:
                        bad.append((i, j))
    bad.sort()
    return [(grants[i], grants[j]) for i, j in bad]


def ofdma_uplink_request(sfu: str, ru_allocation: list[tuple[str, int]],
                         per_sta_overhead: int = 0) -> UplinkBwRequest | None:
    """Estimate uplink volume from an RU allocation; None if nothing granted."""
    total = sum(ru_bytes for _, ru_bytes in ru_allocation)
    if total <= 0:
        return None
    total += per_sta_overhead * len(ru_allocation)
    return UplinkBwRequest(sfu, total)


def generate_tamap(requests: list[UplinkBwRequest],
                   cycle_ns: int,
                   cycle_start: int,
                   upstream_bps: int,
                   omci_slot_ns: int,
                   min_slot_ns: int,
                   guard_ns: int,
                   omci_sfu: str | None = None,
                   sfu_index: dict[str, int] | None = None
                   ) -> tuple[Tamap, dict[str, int]]:
    """DBA: build one cycle's upstream slot map.

    The dedicated OMCI T-CONT slot is allocated first; every requesting SFU
    then gets a minimum guaranteed slot, and the residual cycle time is
    divided proportionally to bytes_expected (single-pass, floor). Demand
    that does not fit is returned as per-SFU carryover bytes for the next
    cycle.
    """
    # only the tests call the DBA, so a run does not import the codecs
    from .framing import Tamap, TamapEntry
    merged: dict[str, int] = {}
    for req in requests:
        merged[req.sfu] = merged.get(req.sfu, 0) + req.bytes_expected
    order = sorted(merged)

    def idx(sfu: str) -> int:
        return sfu_index[sfu] if sfu_index else 0

    entries = [TamapEntry(idx(omci_sfu) if omci_sfu else 0, 0,
                          omci_slot_ns, OMCI_TCONT)]
    offset = omci_slot_ns + guard_ns
    if not order:
        tamap = Tamap(cycle_start, tuple(entries))
        tamap.validate(cycle_ns)
        return tamap, {}

    capacity = cycle_ns - offset - (min_slot_ns + guard_ns) * len(order)
    if capacity < 0:
        raise ValueError("allocation cycle shorter than fixed overheads")

    need = {s: transmit_time_ns(merged[s], upstream_bps) for s in order}
    above = {s: max(0, need[s] - min_slot_ns) for s in order}
    total_above = sum(above.values())
    total_bytes = sum(merged.values())
    carry: dict[str, int] = {}
    for sfu in order:
        if total_above <= capacity:
            extra = above[sfu]
        else:
            share = capacity * merged[sfu] // total_bytes
            extra = min(above[sfu], share)
        duration = min_slot_ns + extra
        entries.append(TamapEntry(idx(sfu), offset, duration, DATA_TCONT_BASE))
        offset += duration + guard_ns
        granted_bytes = duration * upstream_bps // (8 * 1_000_000_000)
        if merged[sfu] > granted_bytes:
            carry[sfu] = merged[sfu] - granted_bytes
    tamap = Tamap(cycle_start, tuple(entries))
    tamap.validate(cycle_ns, require_omci=True)
    return tamap, carry


def first_fit_start(free: int, earliest: int, duration: int, cycle: int,
                    window: int) -> int:
    """Start of a data burst on the upstream calendar: the first time at or
    after `earliest` and `free` that clears the `window` (OMCI slot and
    guard) at the head of its `cycle` and ends by the next cycle's start.
    The caller checks that `duration` fits `cycle - window`."""
    start = earliest if earliest > free else free
    head = start - start % cycle
    if start < head + window:
        start = head + window
    if start + duration > head + cycle:
        start = head + cycle + window
    return start


# ---------------------------------------------------------------------------
# PHY-relay arithmetic (SFU as a baseband relay)

def phy_relay_buffer_bytes(air_duration_ns: int, sample_rate_sps: int,
                           bit_width: int) -> int:
    """Digitized-baseband volume buffered at the relay SFU for one burst."""
    bits = air_duration_ns * sample_rate_sps * bit_width
    return bits // (8 * 1_000_000_000)


def phy_relay_slot_ns(buffered_bytes: int, optical_upstream_bps: int) -> int:
    """Upstream optical slot needed to drain one buffered burst."""
    return transmit_time_ns(buffered_bytes, optical_upstream_bps)


# Per-frame processing delay by mode (ns): the room's in a MAC mode, the
# MFU's baseband processing in PHY relay; modeling defaults, overridable
# per scenario.
PROCESSING_NS = {
    SchedulerMode.DISTRIBUTED_BASELINE: 20_000,
    SchedulerMode.CENTRALIZED_COORDINATED: 20_000,
    SchedulerMode.PHY_RELAY: 30_000,
}
