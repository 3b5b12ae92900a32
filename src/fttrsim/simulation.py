"""End-to-end scenario execution: builds the node graph from a scenario
config, drives traffic, contention or grants on the air interface, the
upstream allocation calendar, the OMCI management plane and the power state
machines, and collects metrics.

Traffic, contention and the rooms' sleep checks run on one event loop.
A frame's arrival at the MFU is not an event: each flow's next arrival is
a head in the engine's one (time, seq) queue, run at its place
(`Simulation._flow_arrival`). Nor are a frame's receive at its
room and a centralized air grant: each keeps a place in the loop's (time,
seq) order, reserved when the frame is sent or the grant issued, and is
applied at that place before the next event that could read what it moves
(`Simulation._apply_before`). Uplink bursts are played in one pass before
the loop and the OMCI plane in one pass over its requests after it, since
no event reads what they move. No unit's step from ACTIVE to IDLE is an
event: the MFU's and every room's idle timer are folded from their
activity times (`PowerMachine`).
All randomness comes from per-node substreams of the scenario seed, so a
(scenario, seed) pair fully determines the trace digest and every metric.
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from functools import partial
from heapq import heapify, heapreplace
from itertools import repeat
from typing import Callable

from .engine import Event, Simulator, SimError, draw_bytes, transmit_time_ns
from .frames import (APDU_OVERHEAD, DATA_TCONT_BASE, FEM_HEADER_LEN,
                     classification_tag, pma_wire_len, OmciMessage, OmciType,
                     encode_omci, decode_omci)
from .links import WifiCell, InterferenceGraph
from .scheduling import (SchedulerMode, AirGrant, first_fit_start,
                         grant_downlink_airtime, phy_relay_buffer_bytes,
                         phy_relay_slot_ns, ofdma_uplink_request)
from .management import (MibStore, OmciAdapter, LivenessMonitor,
                         AdapterError, apply_omci)
from .energy import (PowerMachine, PowerState, SleepBuffer, select_policy,
                     ftth_baseline_joules, merge_spans)
from .scenario import MFU, OLT, ScenarioConfig, FlowSpec, UplinkBurstSpec

Frame = tuple  # (flow, created_at): a plain tuple, built once per arrival


class SimResults:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.digest = ""
        # each flow's and each room's record, which holds its counters
        self.flow_stats: dict[str, FlowRun] = {}
        self.cell_stats: dict[str, SfuSim] = {}
        self.ledgers: dict = {}                     # node -> EnergyLedger
        self.grants: list[AirGrant] = []
        self.upstream_slots: list[tuple[str, int, int, int]] = []
        self.omci_sent = 0
        self.omci_delivered = 0
        self.omci_failed = 0
        self.omci_delays: list[int] = []
        # the wire bytes of every response the OLT received, one after
        # another; `frames.decode_omci_stream` reads them back
        self.olt_received = bytearray()
        self.mibs: dict[str, MibStore] = {}
        self.alarms: list = []
        self.bursts: list[int] = []                 # forwarding delays, ns
        self.relay_overflow_drops = 0
        self.sleep_drops = 0
        # the MFU's commands, (time, kind, target): `deep_sleep_command` to
        # every room and `wake_command` to one; a room's power states are in
        # its ledger and the alarms in `alarms`
        self.events: list[tuple[int, str, str]] = []
        # (created, delivered) of delivered frames, folded by merge_spans
        # whenever the list doubles
        self.activity_spans: list[tuple[int, int]] = []
        self.counters: dict = {}
        self.ftth_joules = 0.0
        self.rejected_transitions = 0


# activity spans held before the first merge
SPANS_MERGE_MIN = 1024
# bytes of OMCI request content drawn at once: drawing the content of a
# 2 s storm of 16-byte requests in one go holds about 1 MiB at its peak
CONTENT_CHUNK = 4096
# the response to a request the adapter cannot route
_ERROR = OmciMessage(0, OmciType.ERROR_RESPONSE, 0, 0)
_SET = OmciType.SET


class SfuSim:
    """One room (SFU): its tag queues, power and sleep state, contention
    window, the rooms whose cells conflict with its own (`conflicts`) and
    counters. Its fields are fixed slots, so a misspelt field raises."""

    __slots__ = ("name", "target", "power", "queues", "queued_bytes",
                 "queued_airtime_ns", "cw", "cw_bits", "domain", "alive",
                 "asleep", "wake_pending", "wake_lost", "sleep_buffer", "iot",
                 "grant_end", "conflicts", "airtime_ns", "collisions")

    def __init__(self, name: str, cfg: ScenarioConfig):
        self.name = name
        self.target = f"sfu:{name}"
        self.power = PowerMachine(name, PowerState.ACTIVE, cfg.t_act_idle_ns)
        # one FIFO per queue tag, made on the tag's first frame (a deque
        # takes 760 bytes); tag 0 (priority 7) is served first
        self.queues: list[deque[Frame] | None] = [None] * 8
        self.queued_bytes = 0
        self.queued_airtime_ns = 0
        self.set_cw(cfg.wifi_overhead.cw_min)
        # the CSMA/CA domain the SFU contends in; None unless distributed
        self.domain: ContentionDomain | None = None
        self.alive = True
        # what the room has announced to the MFU: asleep from its light-sleep
        # report to its wake, in LIGHT_SLEEP or DEEP_SLEEP all that time
        self.asleep = False
        self.wake_pending = False
        # a wake command that went out while the room was dead: it stays
        # pending until the room answers a poll again
        self.wake_lost = False
        self.sleep_buffer = SleepBuffer(cfg.sleep_buffer_frames)
        self.iot = name in cfg.iot_sfus
        # the end of the latest grant the MFU gave the room
        self.grant_end = 0
        # air time the room's frames used, and its collisions
        self.airtime_ns = 0
        self.collisions = 0

    def set_cw(self, cw: int) -> None:
        """Set the contention window and the bit count of a backoff draw
        from [0, cw], which `random.randint(0, cw)` would also draw."""
        self.cw = cw
        self.cw_bits = (cw + 1).bit_length()

    def enqueue(self, frame: Frame) -> None:
        flow = frame[0]
        q = self.queues[flow.tag]
        if q is None:
            q = self.queues[flow.tag] = deque()
        q.append(frame)
        self.queued_bytes += flow.size
        self.queued_airtime_ns += flow.airtime_ns

    def pop_frame(self) -> Frame | None:
        for q in self.queues:
            if q:
                frame = q.popleft()
                flow = frame[0]
                self.queued_bytes -= flow.size
                self.queued_airtime_ns -= flow.airtime_ns
                return frame
        return None

    def head_frame(self) -> Frame | None:
        for q in self.queues:
            if q:
                return q[0]
        return None

    def send_frames(self, start: int, end: int,
                    deliver: Callable[[Frame, int], None]) -> None:
        """Send the head frames that fit the air time from `start` to `end`
        back to back, in serving order, in one scan over the tag queues,
        and hand each to `deliver` with the time its air time ends. The
        scan stops at the first head frame that does not fit: it never
        skips ahead to a smaller frame further back or at a lower
        priority. The frames' air time is added to `airtime_ns`."""
        budget = end - start
        used = size = 0
        for q in self.queues:
            while q:
                flow = q[0][0]
                airtime = used + flow.airtime_ns
                if airtime > budget:
                    break
                used = airtime
                size += flow.size
                deliver(q.popleft(), start + used)
            if q:  # its head frame does not fit
                break
        self.queued_bytes -= size
        self.queued_airtime_ns -= used
        self.airtime_ns += used

    def top_priority(self) -> int:
        for tag, q in enumerate(self.queues):
            if q:
                return 7 - tag
        return -1


class ContentionDomain:
    """One CSMA/CA arbitration domain per conflict-graph component.

    Contenders draw a backoff slot count from their own RNG substream each
    round; the minimum wins. On a tie every tied contender of the domain
    collides, whether or not its cell conflicts with the others: all tied
    transmissions overlap and fail, and their CW doubles up to cw_max.
    """

    def __init__(self, idx: int, members: list[str], sim: "Simulation"):
        self.target = f"domain:{idx}"
        self.sim = sim
        self.busy_until = 0
        self.round_pending = False
        # an `optical_rx` event waits at a member's first inbound frame
        self.wake_pending = False
        # every cell of a run shares the scenario's overhead parameters
        self.overhead = sim.cfg.wifi_overhead
        # per member, in name order: its SFU and the getrandbits of its
        # backoff stream
        self.stations = [(sim.sfus[m], sim.sim.rng.for_node(m).getrandbits)
                         for m in sorted(members)]
        for sfu, _ in self.stations:
            sfu.domain = self

    def notify(self) -> None:
        if self.round_pending:
            return
        for sfu, _ in self.stations:
            if sfu.queued_bytes > 0 and sfu.alive and not sfu.asleep:
                break
        else:
            # no contender: a frame still on the MFU link wakes the domain
            # when it reaches its room
            if not self.wake_pending:
                for rx, seq, (flow, _) in self.sim.inbound:
                    if flow.sfu.domain is self:
                        self.wake(rx, seq, flow.sfu)
                        break
            return
        self.round_pending = True
        engine = self.sim.sim
        now, busy = engine.now, self.busy_until
        engine.schedule(busy if busy > now else now, self.target, "round")

    def wake(self, rx: int, seq: int, sfu: SfuSim) -> None:
        """Push the `optical_rx` event of the inbound frame at (rx, seq)."""
        self.wake_pending = True
        self.sim.sim.schedule_at(rx, seq, sfu.target, "optical_rx")

    def on_round(self, ev: Event) -> None:
        sim = self.sim
        inbound = sim.inbound
        # a distributed run issues no grant: only frames are due
        if inbound and inbound[0][0] <= ev.fire_time:
            sim._apply_before(ev.fire_time, ev.seq)
        self.round_pending = False
        # contender test, backoff draw and minimum in one pass over members;
        # the list of tied stations is made only when a tie occurs
        best = -1
        winner = tied = None
        for entry in self.stations:
            sfu = entry[0]
            if sfu.queued_bytes > 0 and sfu.alive and not sfu.asleep:
                # engine.draw_int(getrandbits, sfu.cw), inlined
                bits, k, cw = entry[1], sfu.cw_bits, sfu.cw
                slots = bits(k)
                while slots > cw:
                    slots = bits(k)
                if slots < best or best < 0:
                    best, winner, tied = slots, entry, None
                elif slots == best:
                    if tied is None:
                        tied = [winner]
                    tied.append(entry)
        if winner is None:
            # no contender: wake the domain at its next inbound frame
            self.notify()
            return
        oh = self.overhead
        start = ev.fire_time + oh.difs_ns + best * oh.slot_ns
        if tied is None:
            sfu = winner[0]
            frame = sfu.pop_frame()
            dur = frame[0].airtime_ns
            sfu.airtime_ns += dur
            sfu.set_cw(oh.cw_min)
            self.busy_until = start + dur
            sim._deliver(frame, start + dur)
        else:
            dur = 0
            for sfu, _ in tied:
                airtime = sfu.head_frame()[0].airtime_ns
                dur = airtime if airtime > dur else dur
                sfu.collisions += 1
                cw = (sfu.cw + 1) * 2 - 1
                sfu.set_cw(cw if cw < oh.cw_max else oh.cw_max)
            self.busy_until = start + dur
        self.notify()


class FlowRun:
    """One flow's constants, fixed at construction: its arrival timing and
    what every frame of it shares (size, queue tag, air time at its room's
    cell, optical serialization time); the end of its current on period
    (on_off flows); and its frame counts and latencies."""

    __slots__ = ("spec", "sfu", "size", "tag", "airtime_ns", "optical_ns",
                 "interarrival_ns", "stop_ns", "on_ns", "off_ns", "next_end",
                 "offered", "delivered", "dropped", "late", "latencies")

    def __init__(self, spec: FlowSpec, sfu: SfuSim, cell: WifiCell,
                 cfg: ScenarioConfig):
        self.spec = spec
        self.sfu = sfu
        self.size = spec.size_bytes
        self.tag = classification_tag(spec.priority)
        self.airtime_ns = cell.airtime_ns(spec.size_bytes)
        dll = APDU_OVERHEAD + spec.size_bytes + FEM_HEADER_LEN
        self.optical_ns = transmit_time_ns(pma_wire_len(dll),
                                           cfg.downstream_bps)
        self.interarrival_ns = (
            None if spec.model == "batch" else
            transmit_time_ns(spec.size_bytes, spec.rate_bps))
        self.stop_ns = (cfg.horizon_ns if spec.stop_ns is None
                        else min(spec.stop_ns, cfg.horizon_ns))
        self.on_ns = spec.on_ns
        self.off_ns = spec.off_ns
        self.next_end = 0
        # `late`: frames whose air time ends after the horizon
        self.offered = self.delivered = self.dropped = self.late = 0
        self.latencies = array("q")  # ns


def _dispatcher(node: str, table: dict[str, Callable[[Event], None]],
                sim: Simulation) -> Callable[[Event], None]:
    """Event handler of one target: applies the frame receives and air
    grants ordered before the event (`Simulation._apply_before`), then
    calls the handler `table` holds for the event's kind."""
    inbound, grants, apply = sim.inbound, sim.grants, sim._apply_before

    def dispatch(ev: Event) -> None:
        kind = ev.kind
        try:
            handler = table[kind]
        except KeyError:
            raise RuntimeError(f"unknown {node} event {kind}") from None
        t = ev.fire_time
        if (inbound and inbound[0][0] <= t) or (grants and grants[0][0] <= t):
            apply(t, ev.seq)
        handler(ev)
    return dispatch


class Simulation:
    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.sim = Simulator(cfg.seed)
        self.results = SimResults(cfg)
        self.graph = InterferenceGraph(cfg.conflicts, cfg.sfus)
        self.sfus = {s: SfuSim(s, cfg) for s in cfg.sfus}
        self.results.mibs = {s: MibStore(s) for s in cfg.sfus}
        self.results.cell_stats = self.sfus
        self.mfu = PowerMachine(MFU, PowerState.ACTIVE, cfg.t_act_idle_ns)
        # the ends of the burst slots that end by the horizon, in time order
        self.burst_ends: deque[int] = deque()
        self.mfu_tx_free = 0
        # (rx time, reserved seq, frame) of the frames on the MFU link, in
        # the order they reach their rooms
        self.inbound: deque[tuple[int, int, Frame]] = deque()
        # (start, reserved seq, room, end) of the air grants not yet
        # applied, in (start, seq) order
        self.grants: deque[tuple[int, int, SfuSim, int]] = deque()
        # every room's cell has the scenario's air rate and overheads
        cell = WifiCell(cfg.air_rate_bps, cfg.wifi_overhead)
        self.flows = [FlowRun(f, self.sfus[f.dst], cell, cfg)
                      for f in cfg.flows]
        self.results.flow_stats = {run.spec.name: run for run in self.flows}
        self._proc_ns = cfg.proc_mfu_ns + cfg.proc_sfu_ns
        self._spans_merge_at = SPANS_MERGE_MIN
        self.monitor = LivenessMonitor(cfg.k_miss)
        self.adapter = OmciAdapter(port_id=1)
        for i, s in enumerate(cfg.sfus):
            self.adapter.register_sfu(i + 1, s)
        # (created, sfu, response) of the OMCI responses awaiting the
        # upstream management slot, oldest first
        self.omci_upstream: deque[tuple[int, str, OmciMessage]] = deque()
        # upstream time for data bursts between two OMCI windows
        self.data_room_ns = cfg.alloc_cycle_ns - cfg.omci_slot_ns - cfg.guard_ns
        # the killed room, and the span [from, to) it is dead for: to the
        # end of the run if it never recovers
        kill = cfg.kill
        self.dead = (None, 0, 0) if kill is None else (
            kill.sfu, kill.at_ns,
            cfg.horizon_ns + 1 if kill.recover_ns is None else kill.recover_ns)
        if cfg.mode == SchedulerMode.DISTRIBUTED_BASELINE:
            for i, comp in enumerate(self.graph.components()):
                dom = ContentionDomain(i, comp, self)
                self.sim.register(dom.target, dom.on_round)
        self.sim.on_arrival = self._flow_arrival
        self.sim.register(MFU, _dispatcher("MFU", {
            "status_cycle": self._status_cycle,
            "poll_cycle": self._poll_cycle,
        }, self))
        per_sfu = {
            "optical_rx": self._optical_rx,
            "deep_cmd": self._deep_cmd,
            "wake_done": self._wake_done,
            "kill": self._kill,
            "recover": self._recover,
            "sleep_check": self._sleep_check,
        }
        for sfu in self.sfus.values():
            sfu.conflicts = tuple(map(self.sfus.get, sorted(
                self.graph.neighbors(sfu.name))))
            table = {kind: partial(handler, sfu)
                     for kind, handler in per_sfu.items()}
            self.sim.register(sfu.target, _dispatcher("SFU", table, self))

    # ------------------------------------------------------------------
    # setup

    def _prime(self) -> None:
        cfg = self.cfg
        for run in self.flows:
            flow = run.spec
            start = flow.start_ns
            if flow.model == "batch":
                for k in range(flow.count):
                    t = start + k * flow.interval_ns
                    if t <= run.stop_ns:
                        self.sim.add_arrival(t, run)
            else:
                self.sim.add_arrival(start, run)
                if flow.model == "on_off":
                    run.next_end = start + run.on_ns
        if cfg.mode != SchedulerMode.DISTRIBUTED_BASELINE and cfg.flows:
            self.sim.schedule(0, MFU, "status_cycle")
        if cfg.uplink_bursts or cfg.storm:
            if self.data_room_ns <= 0:
                raise SimError(
                    f"the {cfg.omci_slot_ns} ns OMCI slot and its "
                    f"{cfg.guard_ns} ns guard do not fit the "
                    f"{cfg.alloc_cycle_ns} ns alloc cycle")
        self.sim.schedule(0, MFU, "poll_cycle")
        room, dead_from, dead_to = self.dead
        if room is not None:
            target = self.sfus[room].target
            self.sim.schedule(dead_from, target, "kill")
            if cfg.kill.recover_ns is not None:
                self.sim.schedule(dead_to, target, "recover")
        if cfg.savings_enabled:
            for sfu in self.sfus.values():
                self.sim.schedule(cfg.t_act_idle_ns + cfg.t_idle_sleep_ns,
                                  sfu.target, "sleep_check")

    # ------------------------------------------------------------------
    # traffic

    def _flow_arrival(self, now: int, flow: FlowRun) -> int | None:
        """A frame of `flow` reaches the MFU at `now`; return the flow's next
        arrival time, or None when it has no more by its stop time. An
        arrival is not an event: the engine runs it at its place in the
        (time, seq) order. It reads no room state that a receive or a grant
        moves, so it leaves them to the next event."""
        flow.offered += 1
        sfu = flow.sfu
        ends = self.burst_ends
        mfu = self.mfu
        while ends and ends[0] <= now:
            mfu.active(ends.popleft())
        mfu.active(now)
        if sfu.asleep:
            dropped = sfu.sleep_buffer.push((flow, now))
            if dropped is not None:
                dropped[0].dropped += 1
                self.results.sleep_drops += 1
            self._trigger_wake(sfu)
        else:
            self._optical_downstream((flow, now))
        if flow.interarrival_ns is None:  # batch: every arrival is primed
            return None
        nxt = now + flow.interarrival_ns
        if flow.spec.model == "on_off":
            end = flow.next_end
            if nxt >= end:  # jump over the off period to the next on period
                nxt = end + flow.off_ns
                flow.next_end = nxt + flow.on_ns
        return nxt if nxt <= flow.stop_ns else None

    def _optical_downstream(self, frame: Frame) -> None:
        """Send `frame` down the MFU link. The link is FIFO and its
        propagation delay is one constant, so receive times never fall:
        the frame joins `inbound` at its receive time and a sequence number
        reserved now, and reaches its room before any later event is
        handled. An idle contention domain is woken by an event at that
        place."""
        flow = frame[0]
        # a conditional, not max(), here and in `ContentionDomain`'s rounds:
        # CPython 3.11 takes about six times as long for a builtin call
        now, free = self.sim.now, self.mfu_tx_free
        depart = free if free > now else now
        self.mfu_tx_free = depart + flow.optical_ns
        rx = self.mfu_tx_free + self.cfg.prop_delay_ns
        seq = self.sim.reserve()
        self.inbound.append((rx, seq, frame))
        sfu = flow.sfu
        domain = sfu.domain
        if (domain is not None and not domain.round_pending
                and not domain.wake_pending):
            domain.wake(rx, seq, sfu)

    def _apply_before(self, t: int, seq: int) -> None:
        """Apply every frame receive and air grant ordered before (t, seq),
        merging the two FIFOs in (time, seq) order. Every dispatcher, the
        contention round, a domain's wake and the end of the run call this
        before anything reads a room's queue or state, so each handler sees
        the rooms as an event per receive and per grant would have left
        them.

        A living room's receive is an activity that restarts its idle
        timer. A dead room's queue still takes the frame, but its power
        state and idle timer do not move."""
        inbound, grants = self.inbound, self.grants
        key = (t, seq)
        while True:
            head = grants[0] if grants and grants[0] < key else key
            while inbound and inbound[0] < head:
                rx, _, frame = inbound.popleft()
                sfu = frame[0].sfu
                if sfu.alive:
                    sfu.power.active(rx)
                sfu.enqueue(frame)
            if head is key:
                return
            grants.popleft()
            start, _, sfu, end = head
            if sfu.alive and not sfu.asleep:
                sfu.send_frames(start, end, self._deliver)

    def _optical_rx(self, sfu: SfuSim, ev: Event) -> None:
        # wake of an idle domain: receive through this frame, then contend
        self._apply_before(ev.fire_time, ev.seq + 1)
        domain = sfu.domain
        domain.wake_pending = False
        domain.notify()

    def _deliver(self, frame: Frame, t: int) -> None:
        """Hand `frame`, already taken from its room's queue, to its STA
        over the air at `t`, and record its end-to-end latency. Called
        when the frame's air time is scheduled, by a grant as it is
        applied or by the CSMA/CA round it wins; no event marks its end. A
        frame whose air time ends after the horizon is not delivered in
        this run: it counts in its flow's `late`, and in `lost`."""
        flow, created_at = frame
        if t > self.cfg.horizon_ns:
            flow.late += 1
            return
        flow.delivered += 1
        flow.latencies.append(t - created_at + self._proc_ns)
        spans = self.results.activity_spans
        spans.append((created_at, t))
        if len(spans) >= self._spans_merge_at:
            spans[:] = merge_spans(spans)
            self._spans_merge_at = max(2 * len(spans), SPANS_MERGE_MIN)

    # ------------------------------------------------------------------
    # centralized scheduling

    def _status_cycle(self, ev: Event) -> None:
        cfg = self.cfg
        now = self.sim.now
        sfus = self.sfus
        # a room with nothing queued would get no grant, so it sends no
        # report; each report is a plain tuple in `SfuStatusReport`'s
        # field order
        reports = [(sfu.name, sfu.queued_bytes, sfu.top_priority(),
                    sfu.queued_airtime_ns)
                   for sfu in sfus.values()
                   if sfu.queued_bytes > 0 and sfu.alive and not sfu.asleep]
        t0 = now + cfg.control_delay_ns
        grants = grant_downlink_airtime(reports, self.graph, cfg.txop_max_ns,
                                        t0, t0 + cfg.status_cycle_ns)
        self.results.grants.extend(grants)
        reserve = self.sim.reserve
        due = []
        for name, start, duration in grants:
            sfu = sfus[name]
            # no grant may start before a conflicting room's latest grant,
            # of this cycle or an earlier one, ends
            for other in sfu.conflicts:
                if other.grant_end > start:
                    raise SimError(
                        f"grant to {name} at {start} ns starts before the "
                        f"grant to {other.name} ends at {other.grant_end} ns")
            end = start + duration
            if end > sfu.grant_end:
                sfu.grant_end = end
            due.append((start, reserve(), sfu, end))
        if due:
            # each grant starts inside its cycle's window, and the next
            # cycle's window begins where this one ends, so the grants of
            # the run form one FIFO
            due.sort()
            queued = self.grants
            last = queued[-1][0] if queued else now
            if due[0][0] < last:
                raise SimError(
                    f"grant to {due[0][2].name} at {due[0][0]} ns is ordered "
                    f"before {last} ns, the start of the last grant queued "
                    f"or of the status cycle")
            queued.extend(due)
        nxt = now + cfg.status_cycle_ns
        if nxt <= cfg.horizon_ns:
            self.sim.schedule(nxt, MFU, "status_cycle")

    # ------------------------------------------------------------------
    # OMCI management plane

    def _omci_plane(self) -> None:
        """Play the OMCI plane after the event loop, one request at a time:
        no event reads a MIB or an OMCI queue. The OLT sends request j in
        cycle j, at j·A, and books every cycle's OMCI slot, one per cycle
        start j·A <= horizon. Request j reaches its room `control_delay` C
        later, at rx = j·A + C, where it is applied to the room's MIB and
        answered, unless rx is past the horizon or the room is dead then.
        A cycle start first receives the requests that reached their rooms
        by then and only then sends its own, so a request received exactly
        at a cycle start, sent in an earlier cycle, is answered in that
        cycle: response j takes the upstream slot of cycle j + d, with
        d = max(1, ⌈C/A⌉). C is the same for every request, so the
        requests are received in the order they are sent and no two
        responses contend for a slot; each waits d·A + S + P − C for the
        OLT. A response whose cycle starts past the horizon stays in
        `omci_upstream`. In cycle j the error response to an unroutable
        request j reaches the OLT before the response sent in that cycle.
        A response that arrives at the OLT by the horizon is decoded, which
        checks its framing and MIC, and its bytes and its delay are kept.
        The horizon tests compare j with the last cycles, set before the
        loop, whose request, error response or response arrives by then.

        Every request and response takes every codec hop. The request
        contents are the bytes `rng.randrange(256)` would draw from the
        OLT's stream, drawn in chunks of about `CONTENT_CHUNK` bytes."""
        cfg = self.cfg
        res, adapter, upstream = self.results, self.adapter, self.omci_upstream
        mibs, received, delays = res.mibs, res.olt_received, res.omci_delays
        horizon, cycle, slot_ns = (cfg.horizon_ns, cfg.alloc_cycle_ns,
                                   cfg.omci_slot_ns)
        delay, pipe_ns = cfg.control_delay_ns, cfg.olt_pipe_ns
        dead, dead_from, dead_to = self.dead
        n_cycles = horizon // cycle + 1
        res.upstream_slots.extend(zip(repeat("omci"),
                                      range(0, n_cycles * cycle, cycle),
                                      repeat(slot_ns), repeat(1)))
        storm = cfg.storm
        sent = res.omci_sent = min(storm.count, n_cycles) if storm else 0
        if not sent:
            return
        bits = self.sim.rng.for_node(OLT).getrandbits
        routes = [adapter.route_of(t) for t in storm.targets]
        size, eclass = storm.content_bytes, storm.entity_class
        per_chunk = max(1, CONTENT_CHUNK // (size or 1))
        d = max(1, -(-delay // cycle))
        wait = d * cycle + slot_ns + pipe_ns - delay  # every response's delay
        # the last cycle whose request reaches its room by the horizon, and
        # those whose error response and response reach the OLT by it
        last_rx = (horizon - delay) // cycle
        last_error = (horizon - pipe_ns) // cycle
        last_response = (horizon - slot_ns - pipe_ns) // cycle
        to_standard, to_extended = adapter.to_standard, adapter.to_extended
        new, n_routes = tuple.__new__, len(routes)
        # (cycle, room, response) of the answered requests whose responses
        # leave in a cycle not yet reached
        answered: deque[tuple[int, str, OmciMessage]] = deque()
        for j in range(sent + d):
            if j < sent:
                k = j % per_chunk * size
                if not k:
                    chunk = draw_bytes(bits,
                                       min(per_chunk, sent - j) * size)
                port, sfu_id = routes[j % n_routes]
                data = encode_omci(new(OmciMessage, (
                    j & 0xFFFF, _SET, eclass, j % 64, chunk[k:k + size],
                    port, sfu_id)))
                try:
                    room, std = to_standard(decode_omci(data))
                except AdapterError:
                    res.omci_failed += 1
                    data = encode_omci(_ERROR)
                    if j <= last_error:
                        decode_omci(data)
                        received += data
                        delays.append(pipe_ns)
                else:
                    data = encode_omci(std)
                    rx = j * cycle + delay
                    if j <= last_rx and (room != dead
                                         or not dead_from <= rx < dead_to):
                        msg = apply_omci(decode_omci(data), mibs[room])
                        if j + d < n_cycles:
                            answered.append((j + d, room, msg))
                        else:
                            upstream.append((rx, room, msg))
            if answered and answered[0][0] == j:
                _, room, msg = answered.popleft()
                data = encode_omci(to_extended(msg, room))
                if j <= last_response:
                    decode_omci(data)
                    received += data
                    delays.append(wait)
        res.omci_delivered = len(delays)  # one delay per response received

    # ------------------------------------------------------------------
    # OFDMA uplink bursts

    def _uplink_bursts(self) -> None:
        """Play every burst start by the horizon before the event loop, in
        the order their events had: by time, then by the order they were
        scheduled in, which a counter gives, as it does the relay drains.
        Every burst must fit between two OMCI windows, whether or not its
        room is alive to send it; a dead room sends no burst. The calendar
        is `scheduling.first_fit_start`; the pass keeps its free time, where
        the last slot's guard ends, in a local."""
        cfg, res = self.cfg, self.results
        relay = cfg.mode == SchedulerMode.PHY_RELAY
        horizon, cycle, guard = cfg.horizon_ns, cfg.alloc_cycle_ns, cfg.guard_ns
        window, delay = cfg.omci_slot_ns + guard, cfg.control_delay_ns
        room_ns = self.data_room_ns
        dead, dead_from, dead_to = self.dead
        slots, bursts, ends = res.upstream_slots, res.bursts, self.burst_ends
        # (room, period, air duration, coordinated, bytes, slot) per spec
        specs = [(spec.sfu, spec.period_ns, spec.air_duration_ns,
                  spec.coordinated, *self._burst_slot(spec))
                 for spec in cfg.uplink_bursts]
        heap = [(spec.start_ns, i, i)
                for i, spec in enumerate(cfg.uplink_bursts)]
        heapify(heap)
        order = len(heap)
        # (end, order, bytes) of the relayed slots not yet drained
        relayed: deque[tuple[int, int, int]] = deque()
        level = free = 0  # relay buffer bytes; where the last guard ends
        while heap and heap[0][0] <= horizon:
            now, key, i = heap[0]
            room, period, air, coordinated, nbytes, duration = specs[i]
            if duration > room_ns:
                raise SimError(f"upstream burst of {duration} ns from {room} "
                               f"does not fit the {room_ns} ns between two "
                               f"OMCI windows (alloc cycle {cycle} ns)")
            if nbytes > 0 and (room != dead or not dead_from <= now < dead_to):
                if relay:
                    while relayed and relayed[0][:2] < (now, key):
                        level = max(0, level - relayed.popleft()[2])
                    level += nbytes
                    if level > cfg.relay_buffer_bytes:
                        res.relay_overflow_drops += 1
                        level = cfg.relay_buffer_bytes
                ready = now + air
                if coordinated:
                    # bandwidth pre-request sent at trigger time: the slot
                    # can start the moment the data is ready
                    earliest = now + delay if now + delay > ready else ready
                else:
                    # the start of the first cycle after the request
                    earliest = ((ready + delay) // cycle + 1) * cycle
                at = first_fit_start(free, earliest, duration, cycle, window)
                free = at + duration + guard
                slots.append((room, at, duration, DATA_TCONT_BASE))
                bursts.append(at - ready)
                end = at + duration
                if relay:
                    relayed.append((end, order, nbytes))
                order += 1
                if end <= horizon:
                    ends.append(end)
            heapreplace(heap, (now + period, order, i))
            order += 1

    def _burst_slot(self, spec: UplinkBurstSpec) -> tuple[int, int]:
        """The bytes one burst of `spec` sends up, its relayed samples in
        phy_relay mode and else its OFDMA request, and their upstream slot."""
        cfg = self.cfg
        if cfg.mode == SchedulerMode.PHY_RELAY:
            nbytes = phy_relay_buffer_bytes(spec.air_duration_ns,
                                            cfg.sample_rate_sps, cfg.bit_width)
        else:
            req = ofdma_uplink_request(spec.sfu, spec.rus, cfg.per_sta_overhead)
            nbytes = req.bytes_expected if req else 0
        return nbytes, phy_relay_slot_ns(nbytes, cfg.upstream_bps)

    # ------------------------------------------------------------------
    # power / sleep

    def _sleep_check(self, sfu: SfuSim, ev: Event) -> None:
        """The room's sleep timer, with savings on: a living room IDLE for
        `t_idle_sleep` with an empty queue turns its RF off or reports light
        sleep. Each room has one check pending from its prime until it
        reports light sleep, and its wake starts the chain again; the check
        moves itself on while the room is dead (to its recovery, past the
        horizon if it never recovers), RF_OFF (`t_act_idle + t_idle_sleep`
        on, so a receive that ends RF_OFF is found before its timers run
        out), within its timers (to `idle_at + t_idle_sleep`) or holding
        queued frames (`t_idle_sleep` on). At one instant a check runs in
        the order it was scheduled, like every other event; `recover` is
        primed first, so it runs before the check at the room's recovery."""
        now, cfg, power = self.sim.now, self.cfg, sfu.power
        hold = cfg.t_act_idle_ns + cfg.t_idle_sleep_ns
        if not sfu.alive:
            at = self.dead[2]
        elif power.state == PowerState.RF_OFF:
            at = now + hold
        elif now < power.idle_at + cfg.t_idle_sleep_ns:
            at = power.idle_at + cfg.t_idle_sleep_ns
        elif sfu.queued_bytes > 0:
            # grants and contention skip a sleeping SFU, so its queue would
            # wait until traffic wakes it
            at = now + cfg.t_idle_sleep_ns
        else:
            power.settle(now)
            state = select_policy(sfu.iot)
            power.request(state, now)
            if state == PowerState.LIGHT_SLEEP:
                sfu.asleep = True
                self._maybe_deep_sleep(now)
                return
            at = now + hold
        self.sim.schedule(at, sfu.target, "sleep_check")

    def _maybe_deep_sleep(self, now: int) -> None:
        eligible = [sfu for sfu in self.sfus.values()
                    if sfu.alive and not sfu.iot]
        if eligible and all(sfu.asleep for sfu in eligible):
            self.results.events.append((now, "deep_sleep_command", MFU))
            for sfu in eligible:
                if sfu.power.state == PowerState.LIGHT_SLEEP:
                    self.sim.schedule(now + self.cfg.control_delay_ns,
                                      sfu.target, "deep_cmd")

    def _deep_cmd(self, sfu: SfuSim, ev: Event) -> None:
        now = self.sim.now
        if not sfu.alive:
            # a dead room does not hear the command and counts nothing
            return
        if sfu.wake_pending:
            self.results.rejected_transitions += 1
            return
        # a room that is no longer in light sleep cannot obey: the power
        # machine counts that in its `rejected`
        sfu.power.request(PowerState.DEEP_SLEEP, now)

    def _trigger_wake(self, sfu: SfuSim) -> None:
        now = self.sim.now
        if sfu.wake_pending or not sfu.asleep:
            return
        sfu.wake_pending = True
        prof = self.cfg.sfu_profile
        cmd_at = now + self.cfg.control_delay_ns
        if sfu.power.state == PowerState.DEEP_SLEEP:
            # command is only heard at the next deep-sleep listen window,
            # counted from the room's entry to deep sleep
            enter = sfu.power.ledger.since
            k = max(1, -(-(cmd_at - enter) // prof.t_listen_ns))
            cmd_at = enter + k * prof.t_listen_ns
            wake_done = cmd_at + prof.wake_deep_ns
        else:
            wake_done = cmd_at + prof.wake_light_ns
        self.results.events.append((now, "wake_command", sfu.name))
        self.sim.schedule(wake_done, sfu.target, "wake_done")

    def _wake_done(self, sfu: SfuSim, ev: Event) -> None:
        now = self.sim.now
        if not sfu.alive:
            # a dead room does not wake and reports nothing
            sfu.wake_lost = True
            return
        sfu.power.request(PowerState.IDLE, now)
        sfu.asleep = sfu.wake_pending = False
        for frame in sfu.sleep_buffer.flush():
            self._optical_downstream(frame)
        # the buffer held at least the frame that woke the room; the chain
        # starts again at the timers of the last one it flushed
        cfg = self.cfg
        self.sim.schedule(self.inbound[-1][0] + cfg.t_act_idle_ns
                          + cfg.t_idle_sleep_ns, sfu.target, "sleep_check")

    # ------------------------------------------------------------------
    # liveness

    def _poll_cycle(self, ev: Event) -> None:
        now = self.sim.now
        for name in self.cfg.sfus:
            sfu = self.sfus[name]
            # a room the MFU has told to wake no longer counts as asleep
            self.monitor.record_poll(name, sfu.alive,
                                     sfu.asleep and not sfu.wake_pending, now)
            if sfu.wake_lost and sfu.alive:
                # it answers again but never woke: send the wake again
                sfu.wake_lost = sfu.wake_pending = False
                self._trigger_wake(sfu)
        nxt = now + self.cfg.poll_cycle_ns
        if nxt <= self.cfg.horizon_ns:
            self.sim.schedule(nxt, MFU, "poll_cycle")

    def _kill(self, sfu: SfuSim, ev: Event) -> None:
        sfu.alive = False

    def _recover(self, sfu: SfuSim, ev: Event) -> None:
        sfu.alive = True
        # frames queued while the room was dead contend again
        if sfu.domain is not None:
            sfu.domain.notify()

    # ------------------------------------------------------------------

    def _check_conservation(self) -> None:
        """Every offered frame is delivered, dropped, delivered after the
        horizon, or still held: in a room's queue, in a sleep buffer or on
        the MFU link. Otherwise the run raises `SimError`."""
        held = Counter(frame[0] for _, _, frame in self.inbound)
        for sfu in self.sfus.values():
            held.update(frame[0] for q in sfu.queues if q for frame in q)
            held.update(frame[0] for frame in sfu.sleep_buffer.frames)
        for flow in self.flows:
            if (flow.delivered + flow.dropped + flow.late + held[flow]
                    != flow.offered):
                raise SimError(
                    f"flow {flow.spec.name} delivered {flow.delivered}, "
                    f"dropped {flow.dropped}, delivered {flow.late} after "
                    f"the horizon and holds {held[flow]} of {flow.offered} "
                    f"offered frames")

    def run(self) -> SimResults:
        cfg = self.cfg
        self._prime()
        self._uplink_bursts()
        digest = self.sim.run_until(cfg.horizon_ns)
        # the frames that reach their rooms and the grants that start by
        # the horizon
        self._apply_before(cfg.horizon_ns + 1, 0)
        if cfg.uplink_bursts or cfg.storm:
            self._omci_plane()
        self._check_conservation()
        res = self.results
        res.digest = digest
        for end in self.burst_ends:
            self.mfu.active(end)
        for machine in (*(sfu.power for sfu in self.sfus.values()), self.mfu):
            machine.settle(cfg.horizon_ns)
            ledger = machine.ledger
            ledger.close(cfg.horizon_ns)
            ledger.check_tiling(cfg.horizon_ns)
            res.ledgers[machine.node] = ledger
            res.rejected_transitions += machine.rejected
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
