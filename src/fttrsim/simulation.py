"""End-to-end scenario execution: builds the node graph from a scenario
config, drives traffic, contention or grants on the air interface, the
upstream allocation calendar, the OMCI management plane and the power state
machines, and collects metrics.

Everything runs on one event loop; all randomness comes from per-node
substreams of the scenario seed, so a (scenario, seed) pair fully determines
the trace digest and every metric.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .engine import (Event, Simulator, SimError, SimTime, draw_int,
                     transmit_time_ns, NS_PER_S)
from .frames import (APDU_OVERHEAD, FEM_HEADER_LEN, classification_tag,
                     pma_wire_len, OmciMessage, OmciType, encode_omci,
                     decode_omci)
from .links import WifiCell, InterferenceGraph, OpticalLink
from .scheduling import (SchedulerMode, SfuStatusReport, AirGrant,
                         grant_downlink_airtime, check_grant_overlap,
                         phy_relay_buffer_bytes, phy_relay_slot_ns,
                         ofdma_uplink_request)
from .management import (MibStore, OmciAdapter, LivenessMonitor,
                         AdapterError, apply_omci)
from .energy import (PowerMachine, PowerState, SleepBuffer, ScenarioFeatures,
                     select_policy, EnergyPolicy, ftth_baseline_joules,
                     merge_spans)
from .scenario import ScenarioConfig, FlowSpec

MFU = "mfu"
OLT = "olt"


@dataclass(slots=True)
class Frame:
    flow: str
    dst: str
    size: int
    created_at: SimTime
    tag: int
    airtime_ns: int = 0          # air occupancy, set when the SFU queues it


@dataclass
class FlowStats:
    offered: int = 0
    delivered: int = 0
    dropped: int = 0
    latencies: array = field(default_factory=lambda: array("q"))  # ns


@dataclass
class CellStats:
    airtime_ns: int = 0
    collisions: int = 0
    coordination_failures: int = 0


@dataclass
class BurstRecord:
    sfu: str
    ready_at: int
    slot_start: int
    forwarding_delay_ns: int


@dataclass
class SimResults:
    config: ScenarioConfig
    digest: str = ""
    flow_stats: dict[str, FlowStats] = field(default_factory=dict)
    cell_stats: dict[str, CellStats] = field(default_factory=dict)
    ledgers: dict = field(default_factory=dict)          # node -> EnergyLedger
    profiles: dict = field(default_factory=dict)         # node -> PowerProfile
    grants: list[AirGrant] = field(default_factory=list)
    upstream_slots: list[tuple[str, int, int, int]] = field(default_factory=list)
    omci_sent: int = 0
    omci_delivered: int = 0
    omci_failed: int = 0
    omci_delays: list[int] = field(default_factory=list)
    olt_received: list[OmciMessage] = field(default_factory=list)
    mibs: dict[str, MibStore] = field(default_factory=dict)
    alarms: list = field(default_factory=list)
    bursts: list[BurstRecord] = field(default_factory=list)
    relay_overflow_drops: int = 0
    sleep_drops: int = 0
    events: list[tuple[int, str, str]] = field(default_factory=list)
    # (created, delivered) of delivered frames, folded by merge_spans
    # whenever the list doubles
    activity_spans: list[tuple[int, int]] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    ftth_joules: float = 0.0
    rejected_transitions: int = 0


SLEEP_STATES = (PowerState.LIGHT_SLEEP, PowerState.DEEP_SLEEP)

# activity spans held before the first merge
SPANS_MERGE_MIN = 1024


class SfuSim:
    def __init__(self, name: str, cell: WifiCell, cfg: ScenarioConfig):
        self.name = name
        self.target = f"sfu:{name}"
        self.cell = cell
        # one FIFO per queue tag, made on the tag's first frame (a deque
        # takes 760 bytes); tag 0 (priority 7) is served first
        self.queues: list[deque[Frame] | None] = [None] * 8
        self.queued_bytes = 0
        self.queued_airtime_ns = 0
        self.cw = cell.overhead.cw_min
        self.power = PowerMachine(name, PowerState.ACTIVE)
        self.alive = True
        self.announced_sleep = False
        self.wake_pending = False
        self.deep_enter: int | None = None
        self.last_activity = 0
        self.window_start = 0
        self.window_bytes = 0
        self.omci_pending: deque[tuple[int, OmciMessage]] = deque()
        self.active_tx: tuple[int, int] | None = None
        self.iot = name in cfg.iot_sfus

    @property
    def asleep(self) -> bool:
        return self.power.ledger.state in SLEEP_STATES

    def enqueue(self, frame: Frame) -> None:
        frame.airtime_ns = self.cell.airtime_ns(frame.size)
        q = self.queues[frame.tag]
        if q is None:
            q = self.queues[frame.tag] = deque()
        q.append(frame)
        self.queued_bytes += frame.size
        self.queued_airtime_ns += frame.airtime_ns

    def pop_frame(self) -> Frame | None:
        for q in self.queues:
            if q:
                frame = q.popleft()
                self.queued_bytes -= frame.size
                self.queued_airtime_ns -= frame.airtime_ns
                return frame
        return None

    def head_frame(self) -> Frame | None:
        for q in self.queues:
            if q:
                return q[0]
        return None

    def top_priority(self) -> int:
        for tag, q in enumerate(self.queues):
            if q:
                return 7 - tag
        return -1


class ContentionDomain:
    """One CSMA/CA arbitration domain per conflict-graph component.

    Contenders draw a backoff slot count from their own RNG substream each
    round; the minimum wins, ties among conflicting cells collide (all tied
    transmissions overlap and fail, CW doubles up to cw_max).
    """

    def __init__(self, idx: int, members: list[str], sim: "Simulation"):
        self.target = f"domain:{idx}"
        self.sim = sim
        self.busy_until = 0
        self.round_pending = False
        # every cell of a run shares the scenario's overhead parameters
        self.overhead = sim.cfg.wifi_overhead
        # per member, in name order: its SFU, the getrandbits of its backoff
        # stream and its cell counters
        self.stations = [(sim.sfus[m], sim.sim.rng.for_node(m).getrandbits,
                          sim.results.cell_stats[m]) for m in sorted(members)]

    def notify(self) -> None:
        if self.round_pending:
            return
        for sfu, _, _ in self.stations:
            if sfu.queued_bytes > 0 and sfu.alive and not sfu.asleep:
                break
        else:
            return
        self.round_pending = True
        engine = self.sim.sim
        engine.schedule(max(engine.now, self.busy_until), self.target, "round")

    def on_round(self, ev: Event) -> None:
        self.round_pending = False
        # contender test, backoff draw and minimum in one pass over members
        best = -1
        winners = []
        for entry in self.stations:
            sfu = entry[0]
            # `not sfu.asleep`, spelled out: the property calls cost more
            # than the rest of the test
            if (sfu.queued_bytes > 0 and sfu.alive
                    and sfu.power.ledger.state not in SLEEP_STATES):
                slots = draw_int(entry[1], sfu.cw)
                if slots < best or best < 0:
                    best = slots
                    winners = [entry]
                elif slots == best:
                    winners.append(entry)
        if not winners:
            return
        oh = self.overhead
        engine = self.sim.sim
        start = engine.now + oh.difs_ns + best * oh.slot_ns
        if len(winners) == 1:
            sfu, _, stats = winners[0]
            frame = sfu.pop_frame()
            dur = frame.airtime_ns
            stats.airtime_ns += dur
            sfu.cw = oh.cw_min
            self.busy_until = start + dur
            self.sim._deliver(frame, start + dur)
        else:
            dur = 0
            for sfu, _, stats in winners:
                dur = max(dur, sfu.head_frame().airtime_ns)
                stats.collisions += 1
                sfu.cw = min((sfu.cw + 1) * 2 - 1, oh.cw_max)
            self.busy_until = start + dur
        self.notify()


class FlowRun:
    """Arrival timing of one flow, fixed at construction, and the end of its
    current on period (on_off flows)."""

    __slots__ = ("spec", "sfu", "stats", "tag", "interarrival_ns", "stop_ns",
                 "on_ns", "off_ns", "next_end")

    def __init__(self, spec: FlowSpec, sfu: SfuSim, stats: FlowStats,
                 horizon_ns: int):
        self.spec = spec
        self.sfu = sfu
        self.stats = stats
        self.tag = classification_tag(spec.priority)
        self.interarrival_ns = (
            None if spec.model == "batch" else
            transmit_time_ns(spec.size_bytes, int(spec.rate_mbps * 1_000_000)))
        stop = (int(spec.stop_ms * 1_000_000) if spec.stop_ms is not None
                else horizon_ns)
        self.stop_ns = min(stop, horizon_ns)
        self.on_ns = int(spec.on_ms * 1_000_000)
        self.off_ns = int(spec.off_ms * 1_000_000)
        self.next_end = 0


def _dispatcher(node: str, table: dict[str, Callable[[Event], None]]
                ) -> Callable[[Event], None]:
    """Event handler of one target: calls the handler `table` holds for the
    event's kind."""
    def dispatch(ev: Event) -> None:
        try:
            handler = table[ev.kind]
        except KeyError:
            raise RuntimeError(f"unknown {node} event {ev.kind}") from None
        handler(ev)
    return dispatch


class Simulation:
    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.sim = Simulator(cfg.seed)
        self.results = SimResults(cfg)
        self.graph = InterferenceGraph()
        for s in cfg.sfus:
            self.graph.add_node(s)
        for a, b in cfg.conflicts:
            self.graph.add_edge(a, b)
        self.optical = OpticalLink(cfg.downstream_bps,
                                   {s: cfg.prop_delay_ns for s in cfg.sfus})
        self.sfus: dict[str, SfuSim] = {}
        for s in cfg.sfus:
            cell = WifiCell(s, cfg.air_rate_bps, cfg.wifi_overhead)
            self.sfus[s] = SfuSim(s, cell, cfg)
            self.results.cell_stats[s] = CellStats()
            self.results.mibs[s] = MibStore(s)
        self.mfu_power = PowerMachine(MFU, PowerState.ACTIVE)
        self.mfu_last_activity = 0
        self.mfu_tx_free = 0
        self.sleep_buffers = {s: SleepBuffer(cfg.sleep_buffer_frames)
                              for s in cfg.sfus}
        self.flow_stats = {f.name: FlowStats() for f in cfg.flows}
        self.results.flow_stats = self.flow_stats
        self.flows = {f.name: FlowRun(f, self.sfus[f.dst],
                                      self.flow_stats[f.name], cfg.horizon_ns)
                      for f in cfg.flows}
        self._downstream_ser: dict[int, int] = {}   # frame size -> ns
        self._proc_ns = cfg.proc_mfu_ns + cfg.proc_sfu_ns
        self._spans_merge_at = SPANS_MERGE_MIN
        self.monitor = LivenessMonitor(cfg.k_miss)
        self.adapter = OmciAdapter(port_id=1)
        for i, s in enumerate(cfg.sfus):
            self.adapter.register_sfu(i + 1, s)
        self.sfu_index = {s: i + 1 for i, s in enumerate(cfg.sfus)}
        self.olt_queue: deque[bytes] = deque()
        self.upstream_next_free = 0
        # upstream time for data bursts between two OMCI windows
        self.data_room_ns = cfg.alloc_cycle_ns - cfg.omci_slot_ns - cfg.guard_ns
        self.relay_buffer_level = 0
        self.mfu_sleep_view: dict[str, str] = {}
        self.deep_cmd_issued = False
        contended = cfg.mode == SchedulerMode.DISTRIBUTED_BASELINE
        self.domains: list[ContentionDomain] = []
        self.domain_of: dict[str, ContentionDomain] = {}
        if contended:
            comps = self.graph.components()
            for i, comp in enumerate(comps):
                dom = ContentionDomain(i, comp, self)
                self.domains.append(dom)
                self.domain_of.update({m: dom for m in comp})
                self.sim.register(dom.target, dom.on_round)
        self.sim.register(MFU, _dispatcher("MFU", {
            "flow_arrival": self._flow_arrival,
            "status_cycle": self._status_cycle,
            "alloc_cycle": self._alloc_cycle,
            "poll_cycle": self._poll_cycle,
            "upstream_burst_done": self._upstream_burst_done,
            "power_check": self._power_check,
        }))
        self.sim.register(OLT, _dispatcher("OLT", {"omci_rx": self._olt_rx}))
        per_sfu = {
            "optical_rx": self._on_optical_rx,
            "grant_start": self._grant_start,
            "burst_start": self._burst_start,
            "omci_rx": self._sfu_omci_rx,
            "deep_cmd": self._deep_cmd,
            "wake_done": self._wake_done,
            "kill": self._kill,
            "recover": self._recover,
        }
        for sfu in self.sfus.values():
            table = {kind: partial(handler, sfu)
                     for kind, handler in per_sfu.items()}
            table.update(power_check=self._power_check,
                         sleep_check=self._sleep_check)
            self.sim.register(sfu.target, _dispatcher("SFU", table))

    # ------------------------------------------------------------------
    # setup

    def _prime(self) -> None:
        cfg = self.cfg
        for flow in cfg.flows:
            start = int(flow.start_ms * 1_000_000)
            if flow.model == "batch":
                interval = int(flow.interval_us * 1000)
                stop = self.flows[flow.name].stop_ns
                for k in range(flow.count):
                    t = start + k * interval
                    if t <= stop:
                        self.sim.schedule(t, MFU, "flow_arrival", flow.name)
            else:
                self.sim.schedule(start, MFU, "flow_arrival", flow.name)
                if flow.model == "on_off":
                    self.flows[flow.name].next_end = start + int(flow.on_ms * 1_000_000)
        if cfg.mode != SchedulerMode.DISTRIBUTED_BASELINE and cfg.flows:
            self.sim.schedule(0, MFU, "status_cycle")
        if cfg.uplink_bursts or cfg.storm:
            if self.data_room_ns <= 0:
                raise SimError(
                    f"the {cfg.omci_slot_ns} ns OMCI slot and its "
                    f"{cfg.guard_ns} ns guard do not fit the "
                    f"{cfg.alloc_cycle_ns} ns alloc cycle")
            self.sim.schedule(0, MFU, "alloc_cycle")
        self.sim.schedule(0, MFU, "poll_cycle")
        for burst in cfg.uplink_bursts:
            t = int(burst.start_ms * 1_000_000)
            self.sim.schedule(t, self.sfus[burst.sfu].target, "burst_start",
                              burst)
        if cfg.storm:
            self._prime_storm()
        if cfg.kill:
            target = self.sfus[cfg.kill.sfu].target
            self.sim.schedule(int(cfg.kill.at_ms * 1_000_000), target, "kill")
            if cfg.kill.recover_ms is not None:
                self.sim.schedule(int(cfg.kill.recover_ms * 1_000_000),
                                  target, "recover")
        for s in cfg.sfus:
            self._schedule_power_check(s)
        self._schedule_power_check(MFU)

    def _prime_storm(self) -> None:
        cfg = self.cfg
        bits = self.sim.rng.for_node(OLT).getrandbits
        for i in range(cfg.storm.count):
            target = cfg.storm.targets[i % len(cfg.storm.targets)]
            port, sfu_id = self.adapter.route_of(target)
            # the bytes rng.randrange(256) would draw
            content = bytes([draw_int(bits, 255)
                             for _ in range(cfg.storm.content_bytes)])
            msg = OmciMessage(transaction_id=i & 0xFFFF, msg_type=OmciType.SET,
                              entity_class=cfg.storm.entity_class,
                              entity_instance=i % 64, content=content,
                              mfu_port_id=port, sfu_id=sfu_id)
            self.olt_queue.append(encode_omci(msg))
            self.results.omci_sent += 1

    # ------------------------------------------------------------------
    # traffic

    def _flow_arrival(self, ev: Event) -> None:
        name = ev.payload
        flow = self.flows[name]
        now = self.sim.now
        stats = flow.stats
        stats.offered += 1
        sfu = flow.sfu
        frame = Frame(name, sfu.name, flow.spec.size_bytes, now, flow.tag)
        self._mark_mfu_activity(now)
        if sfu.asleep or sfu.wake_pending:
            buf = self.sleep_buffers[sfu.name]
            before = buf.dropped
            buf.push(frame)
            if buf.dropped > before:
                stats.dropped += buf.dropped - before
                self.results.sleep_drops += buf.dropped - before
            self._trigger_wake(sfu.name)
        else:
            self._optical_downstream(frame)
        self._schedule_next_arrival(flow)

    def _schedule_next_arrival(self, flow: FlowRun) -> None:
        if flow.interarrival_ns is None:  # batch: every arrival is primed
            return
        nxt = self.sim.now + flow.interarrival_ns
        if flow.spec.model == "on_off":
            end = flow.next_end
            if nxt >= end:  # jump over the off period to the next on period
                nxt = end + flow.off_ns
                flow.next_end = nxt + flow.on_ns
        if nxt <= flow.stop_ns:
            self.sim.schedule(nxt, MFU, "flow_arrival", flow.spec.name)

    def _optical_downstream(self, frame: Frame) -> None:
        now = self.sim.now
        ser = self._downstream_ser.get(frame.size)
        if ser is None:
            dll = APDU_OVERHEAD + frame.size + FEM_HEADER_LEN
            ser = self.optical.downstream_ser_ns(pma_wire_len(dll))
            self._downstream_ser[frame.size] = ser
        depart = max(now, self.mfu_tx_free)
        self.mfu_tx_free = depart + ser
        arrive = depart + ser + self.optical.prop_delay_ns[frame.dst]
        self.sim.schedule(arrive, self.sfus[frame.dst].target, "optical_rx",
                          frame)

    def _on_optical_rx(self, sfu: SfuSim, ev: Event) -> None:
        frame = ev.payload
        self._mark_sfu_activity(sfu, self.sim.now, frame.size)
        sfu.enqueue(frame)
        domain = self.domain_of.get(sfu.name)
        if domain is not None:
            domain.notify()

    def _deliver(self, frame: Frame, t: int) -> None:
        """Frame handed to its STA over the air at `t`; record end-to-end
        latency. Called when the frame's airtime is scheduled. A frame due
        after the horizon is not delivered in this run and stays in `lost`."""
        if t > self.cfg.horizon_ns:
            return
        stats = self.flow_stats[frame.flow]
        stats.delivered += 1
        stats.latencies.append(t - frame.created_at + self._proc_ns)
        spans = self.results.activity_spans
        spans.append((frame.created_at, t))
        if len(spans) >= self._spans_merge_at:
            spans[:] = merge_spans(spans)
            self._spans_merge_at = max(2 * len(spans), SPANS_MERGE_MIN)

    # ------------------------------------------------------------------
    # centralized scheduling

    def _status_cycle(self, ev: Event) -> None:
        cfg = self.cfg
        now = self.sim.now
        reports = []
        for name in cfg.sfus:
            sfu = self.sfus[name]
            if not sfu.alive or sfu.asleep:
                continue
            reports.append(SfuStatusReport(
                sfu=name, buffered_bytes=sfu.queued_bytes,
                top_priority=sfu.top_priority(), timestamp=now))
        t0 = now + cfg.control_delay_ns

        def airtime_for(report: SfuStatusReport) -> int:
            return self.sfus[report.sfu].queued_airtime_ns

        grants = grant_downlink_airtime(reports, self.graph, cfg.txop_max_ns,
                                        t0, airtime_for,
                                        window_end=t0 + cfg.status_cycle_ns)
        overlaps = check_grant_overlap(grants, self.graph)
        if overlaps:
            raise RuntimeError(
                f"scheduler emitted overlapping grants: {overlaps}")
        for g in grants:
            self.results.grants.append(g)
            self.sim.schedule(g.start, self.sfus[g.sfu].target, "grant_start",
                              g)
        nxt = now + cfg.status_cycle_ns
        if nxt <= cfg.horizon_ns:
            self.sim.schedule(nxt, MFU, "status_cycle")

    def _grant_start(self, sfu: SfuSim, ev: Event) -> None:
        grant = ev.payload
        now = self.sim.now
        if not sfu.alive or sfu.asleep:
            return
        end = grant.start + grant.max_duration
        stats = self.results.cell_stats[sfu.name]
        # coordination-failure check against conflicting in-flight transmissions
        for other in self.graph.neighbors(sfu.name):
            tx = self.sfus[other].active_tx
            if tx and tx[0] < end and now < tx[1]:
                stats.coordination_failures += 1
        cursor = now
        deliver = self._deliver
        while True:
            head = sfu.head_frame()
            if head is None or cursor + head.airtime_ns > end:
                break
            frame = sfu.pop_frame()
            cursor += frame.airtime_ns
            deliver(frame, cursor)
            stats.airtime_ns += frame.airtime_ns
        sfu.active_tx = (now, cursor)

    # ------------------------------------------------------------------
    # upstream allocation calendar (alloc cycles, OMCI slot, data slots)

    def _cycle_start(self, k: int) -> int:
        return k * self.cfg.alloc_cycle_ns

    def _omci_window_end(self, cycle_start: int) -> int:
        return cycle_start + self.cfg.omci_slot_ns + self.cfg.guard_ns

    def _reserve_data_slot(self, earliest: int, duration: int, sfu: str,
                           tcont: int) -> int:
        """Place a data burst on the upstream calendar, skipping the reserved
        OMCI window at the head of every allocation cycle."""
        cfg = self.cfg
        if duration > self.data_room_ns:
            raise SimError(
                f"upstream burst of {duration} ns from {sfu} does not fit the "
                f"{self.data_room_ns} ns between two OMCI windows "
                f"(alloc cycle {cfg.alloc_cycle_ns} ns)")
        start = max(earliest, self.upstream_next_free)
        while True:
            k = start // cfg.alloc_cycle_ns
            win_start = self._cycle_start(k)
            win_end = self._omci_window_end(win_start)
            nxt_win_start = self._cycle_start(k + 1)
            if start < win_end:
                start = win_end
                continue
            if start + duration > nxt_win_start:
                start = self._omci_window_end(nxt_win_start)
                continue
            break
        self.upstream_next_free = start + duration + cfg.guard_ns
        self.results.upstream_slots.append((sfu, start, duration, tcont))
        return start

    def _alloc_cycle(self, ev: Event) -> None:
        cfg = self.cfg
        now = self.sim.now
        k = now // cfg.alloc_cycle_ns
        self.results.upstream_slots.append(
            ("omci", self._cycle_start(k), cfg.omci_slot_ns, 1))
        # downstream OMCI pacing: one message per allocation cycle
        if self.olt_queue:
            data = self.olt_queue.popleft()
            self._omci_downstream(data)
        # upstream OMCI: the SFU holding the oldest pending response owns
        # this cycle's dedicated slot
        oldest_sfu, oldest_t = None, None
        for name in cfg.sfus:
            pend = self.sfus[name].omci_pending
            if pend and (oldest_t is None or pend[0][0] < oldest_t):
                oldest_sfu, oldest_t = name, pend[0][0]
        if oldest_sfu is not None:
            created, msg = self.sfus[oldest_sfu].omci_pending.popleft()
            arrive_mfu = self._cycle_start(k) + cfg.omci_slot_ns
            ext = self.adapter.to_extended(msg, oldest_sfu)
            self.sim.schedule(arrive_mfu + cfg.olt_pipe_ns, OLT, "omci_rx",
                              (created, encode_omci(ext)))
        nxt = now + cfg.alloc_cycle_ns
        if nxt <= cfg.horizon_ns:
            self.sim.schedule(nxt, MFU, "alloc_cycle")

    def _omci_downstream(self, data: bytes) -> None:
        now = self.sim.now
        try:
            msg = decode_omci(data)
            target, std = self.adapter.to_standard(msg)
        except AdapterError:
            self.results.omci_failed += 1
            err = OmciMessage(0, OmciType.ERROR_RESPONSE, 0, 0)
            self.sim.schedule(now + self.cfg.olt_pipe_ns, OLT, "omci_rx",
                              (now, encode_omci(err)))
            return
        self.sim.schedule(now + self.cfg.control_delay_ns,
                          self.sfus[target].target, "omci_rx", encode_omci(std))

    def _sfu_omci_rx(self, sfu: SfuSim, ev: Event) -> None:
        now = self.sim.now
        msg = decode_omci(ev.payload)
        response = apply_omci(msg, self.results.mibs[sfu.name])
        sfu.omci_pending.append((now, response))

    def _olt_rx(self, ev: Event) -> None:
        created, data = ev.payload
        msg = decode_omci(data)
        self.results.olt_received.append(msg)
        self.results.omci_delivered += 1
        self.results.omci_delays.append(self.sim.now - created)

    # ------------------------------------------------------------------
    # OFDMA uplink bursts

    def _burst_start(self, sfu: SfuSim, ev: Event) -> None:
        spec = ev.payload
        cfg = self.cfg
        now = self.sim.now
        air_ns = int(spec.air_duration_us * 1000)
        ready = now + air_ns
        if cfg.mode == SchedulerMode.PHY_RELAY:
            nbytes = phy_relay_buffer_bytes(air_ns, cfg.sample_rate_sps,
                                            cfg.bit_width)
        else:
            req = ofdma_uplink_request(sfu.name, spec.rus, cfg.per_sta_overhead)
            nbytes = req.bytes_expected if req else 0
        if nbytes > 0:
            if cfg.mode == SchedulerMode.PHY_RELAY:
                self.relay_buffer_level += nbytes
                if self.relay_buffer_level > cfg.relay_buffer_bytes:
                    self.results.relay_overflow_drops += 1
                    self.relay_buffer_level = cfg.relay_buffer_bytes
            duration = phy_relay_slot_ns(nbytes, cfg.upstream_bps)
            if spec.coordinated:
                # bandwidth pre-request sent at trigger time, before the air
                # reception completes; slot can start the moment data is ready
                earliest = max(ready, now + cfg.control_delay_ns)
            else:
                request_at = ready + cfg.control_delay_ns
                earliest = self._cycle_start(request_at // cfg.alloc_cycle_ns + 1)
            start = self._reserve_data_slot(earliest, duration, sfu.name, 2)
            delay = start - ready
            self.results.bursts.append(BurstRecord(sfu.name, ready, start, delay))
            self.sim.schedule(start + duration, MFU, "upstream_burst_done",
                              (sfu.name, nbytes))
        nxt = now + int(spec.period_us * 1000)
        if nxt <= cfg.horizon_ns:
            self.sim.schedule(nxt, sfu.target, "burst_start", spec)

    def _upstream_burst_done(self, ev: Event) -> None:
        _, nbytes = ev.payload
        if self.cfg.mode == SchedulerMode.PHY_RELAY:
            self.relay_buffer_level = max(0, self.relay_buffer_level - nbytes)
        self._mark_mfu_activity(self.sim.now)

    # ------------------------------------------------------------------
    # power / sleep

    def _mark_mfu_activity(self, now: int) -> None:
        self.mfu_last_activity = now
        if self.mfu_power.state == PowerState.IDLE:
            self.mfu_power.request(PowerState.ACTIVE, now)

    def _mark_sfu_activity(self, sfu: SfuSim, now: int, nbytes: int) -> None:
        sfu.last_activity = now
        sfu.window_bytes += nbytes
        if sfu.power.state in (PowerState.IDLE, PowerState.RF_OFF,
                               PowerState.REDUCED_TX):
            sfu.power.request(PowerState.ACTIVE, now)

    def _schedule_power_check(self, node: str) -> None:
        target = MFU if node == MFU else self.sfus[node].target
        self.sim.schedule(self.sim.now + self.cfg.t_act_idle_ns, target,
                          "power_check", node)

    def _power_check(self, ev: Event) -> None:
        node = ev.payload
        now = self.sim.now
        cfg = self.cfg
        if node == MFU:
            machine, last = self.mfu_power, self.mfu_last_activity
        else:
            sfu = self.sfus[node]
            machine, last = sfu.power, sfu.last_activity
        target = ev.target
        if machine.state == PowerState.ACTIVE:
            if now - last >= cfg.t_act_idle_ns:
                machine.request(PowerState.IDLE, now)
                if node != MFU and cfg.savings_enabled:
                    self.sim.schedule(now + cfg.t_idle_sleep_ns,
                                      target, "sleep_check", node)
                self.sim.schedule(now + cfg.t_act_idle_ns, target,
                                  "power_check", node)
            else:
                self.sim.schedule(last + cfg.t_act_idle_ns, target,
                                  "power_check", node)
        else:
            self.sim.schedule(now + cfg.t_act_idle_ns, target,
                              "power_check", node)

    def _features(self, sfu: SfuSim, now: int) -> ScenarioFeatures:
        window = max(now - sfu.window_start, 1)
        bps = sfu.window_bytes * 8 * NS_PER_S // window
        idle_ns = now - sfu.last_activity
        if idle_ns >= self.cfg.t_act_idle_ns:
            load = "idle"
        elif bps < 1_000_000:
            load = "background"
        elif bps < 50_000_000:
            load = "moderate"
        else:
            load = "bursty"
        sfu.window_start = now
        sfu.window_bytes = 0
        return ScenarioFeatures(
            load_class=load,
            services=frozenset({"iot"}) if sfu.iot else frozenset(),
            user_activity=idle_ns < self.cfg.t_act_idle_ns,
            idle_ns=idle_ns)

    def _sleep_check(self, ev: Event) -> None:
        node = ev.payload
        sfu = self.sfus[node]
        now = self.sim.now
        cfg = self.cfg
        if not sfu.alive or sfu.power.state != PowerState.IDLE:
            return
        if now - sfu.last_activity < cfg.t_act_idle_ns + cfg.t_idle_sleep_ns:
            self.sim.schedule(sfu.last_activity + cfg.t_act_idle_ns
                              + cfg.t_idle_sleep_ns, sfu.target,
                              "sleep_check", node)
            return
        policy = select_policy(self._features(sfu, now))
        if policy in (EnergyPolicy.LIGHT_SLEEP, EnergyPolicy.DEEP_SLEEP):
            if sfu.power.request(PowerState.LIGHT_SLEEP, now):
                sfu.announced_sleep = True
                self.results.events.append((now, "light_sleep_report", node))
                self.mfu_sleep_view[node] = "light"
                self._maybe_deep_sleep(now)
        elif policy == EnergyPolicy.RF_OFF:
            sfu.power.request(PowerState.RF_OFF, now)
        elif policy == EnergyPolicy.TX_POWER_ADJUST:
            sfu.power.request(PowerState.REDUCED_TX, now)

    def _maybe_deep_sleep(self, now: int) -> None:
        if self.deep_cmd_issued or not self.cfg.savings_enabled:
            return
        eligible = [s for s in self.cfg.sfus
                    if self.sfus[s].alive and not self.sfus[s].iot]
        if not eligible:
            return
        if all(self.mfu_sleep_view.get(s) in ("light", "deep")
               for s in eligible):
            self.deep_cmd_issued = True
            self.results.events.append((now, "deep_sleep_command", MFU))
            for s in eligible:
                if self.mfu_sleep_view.get(s) == "light":
                    self.sim.schedule(now + self.cfg.control_delay_ns,
                                      self.sfus[s].target, "deep_cmd")

    def _deep_cmd(self, sfu: SfuSim, ev: Event) -> None:
        now = self.sim.now
        if sfu.wake_pending:
            self.results.rejected_transitions += 1
            return
        if sfu.power.request(PowerState.DEEP_SLEEP, now):
            sfu.deep_enter = now
            self.mfu_sleep_view[sfu.name] = "deep"
        else:
            self.results.rejected_transitions += 1

    def _trigger_wake(self, name: str) -> None:
        sfu = self.sfus[name]
        now = self.sim.now
        if sfu.wake_pending or not sfu.asleep:
            return
        sfu.wake_pending = True
        prof = self.cfg.sfu_profile
        cmd_at = now + self.cfg.control_delay_ns
        if sfu.power.state == PowerState.DEEP_SLEEP:
            # command is only heard at the next deep-sleep listen window
            enter = sfu.deep_enter
            k = max(1, -(-(cmd_at - enter) // prof.t_listen_ns))
            cmd_at = enter + k * prof.t_listen_ns
            wake_done = cmd_at + prof.wake_deep_ns
        else:
            wake_done = cmd_at + prof.wake_light_ns
        self.results.events.append((now, "wake_command", name))
        self.sim.schedule(wake_done, sfu.target, "wake_done")

    def _wake_done(self, sfu: SfuSim, ev: Event) -> None:
        now = self.sim.now
        sfu.power.request(PowerState.IDLE, now)
        sfu.wake_pending = False
        sfu.announced_sleep = False
        sfu.deep_enter = None
        self.mfu_sleep_view.pop(sfu.name, None)
        self.deep_cmd_issued = False
        self.results.events.append((now, "wake_done", sfu.name))
        for frame in self.sleep_buffers[sfu.name].flush():
            self._optical_downstream(frame)

    # ------------------------------------------------------------------
    # liveness

    def _poll_cycle(self, ev: Event) -> None:
        now = self.sim.now
        for name in self.cfg.sfus:
            sfu = self.sfus[name]
            alarm = self.monitor.record_poll(name, sfu.alive,
                                             sfu.announced_sleep, now)
            if alarm is not None:
                self.results.events.append(
                    (now, f"alarm_{alarm.kind.value}", name))
        nxt = now + self.cfg.poll_cycle_ns
        if nxt <= self.cfg.horizon_ns:
            self.sim.schedule(nxt, MFU, "poll_cycle")

    def _kill(self, sfu: SfuSim, ev: Event) -> None:
        sfu.alive = False

    def _recover(self, sfu: SfuSim, ev: Event) -> None:
        sfu.alive = True

    # ------------------------------------------------------------------

    def run(self) -> SimResults:
        cfg = self.cfg
        self._prime()
        digest = self.sim.run_until(cfg.horizon_ns)
        for name, stats in self.flow_stats.items():
            if stats.delivered + stats.dropped > stats.offered:
                raise SimError(
                    f"flow {name} delivered {stats.delivered} and dropped "
                    f"{stats.dropped} of {stats.offered} offered frames")
        res = self.results
        res.digest = digest
        for name in cfg.sfus:
            machine = self.sfus[name].power
            machine.ledger.close(cfg.horizon_ns)
            machine.ledger.check_tiling(cfg.horizon_ns)
            res.ledgers[name] = machine.ledger
            res.profiles[name] = cfg.sfu_profile
            res.rejected_transitions += machine.rejected
        self.mfu_power.ledger.close(cfg.horizon_ns)
        self.mfu_power.ledger.check_tiling(cfg.horizon_ns)
        res.ledgers[MFU] = self.mfu_power.ledger
        res.profiles[MFU] = cfg.mfu_profile
        res.alarms = self.monitor.alarms
        res.counters = {
            "events_scheduled": self.sim.n_scheduled,
            "events_dispatched": self.sim.n_dispatched,
            "events_beyond_horizon": self.sim.n_beyond_horizon,
        }
        res.ftth_joules = ftth_baseline_joules(
            [(0, 0)] + res.activity_spans, cfg.horizon_ns, cfg.ftth_active_w,
            cfg.ftth_idle_w, cfg.t_act_idle_ns)
        return res


def run_scenario_config(cfg: ScenarioConfig) -> SimResults:
    return Simulation(cfg).run()
