"""Power state machines, the sleep rule and exact energy accounting.

Per-node power states follow a fixed transition table; every transition is
recorded in a ledger whose intervals must tile the run exactly, which makes
the joule total a closed-form interval sum. `PowerMachine` folds the
step from ACTIVE to IDLE from a unit's activity times, for every unit.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .engine import NS_PER_S


class PowerState(Enum):
    ACTIVE = "active"
    IDLE = "idle"
    LIGHT_SLEEP = "light_sleep"
    DEEP_SLEEP = "deep_sleep"
    RF_OFF = "rf_off"


# read on every activity: an enum member looked up on its class costs
# more than the rest of `PowerMachine.active`
_ACTIVE, _IDLE = PowerState.ACTIVE, PowerState.IDLE
# states that traffic returns to ACTIVE
_WAKE_ON_TRAFFIC = (PowerState.IDLE, PowerState.RF_OFF)

# state -> states reachable from it
LEGAL_TRANSITIONS: dict[PowerState, set[PowerState]] = {
    PowerState.ACTIVE: {PowerState.IDLE},
    PowerState.IDLE: {PowerState.ACTIVE, PowerState.LIGHT_SLEEP,
                      PowerState.RF_OFF},
    PowerState.LIGHT_SLEEP: {PowerState.DEEP_SLEEP, PowerState.IDLE},
    PowerState.DEEP_SLEEP: {PowerState.IDLE},
    PowerState.RF_OFF: {PowerState.IDLE, PowerState.ACTIVE},
}


class LedgerError(RuntimeError):
    """Gap or overlap in the energy ledger - fatal accounting error."""


class PowerProfile(NamedTuple):
    watts: dict[PowerState, float]
    wake_light_ns: int = 10_000_000     # 10 ms
    wake_deep_ns: int = 100_000_000     # 100 ms
    t_listen_ns: int = 1_000_000_000    # deep-sleep listen interval

    def validate(self):
        w = self.watts
        order = [PowerState.ACTIVE, PowerState.IDLE, PowerState.LIGHT_SLEEP,
                 PowerState.DEEP_SLEEP]
        present = [s for s in order if s in w]
        for a, b in zip(present, present[1:]):
            if w[a] < w[b]:
                raise ValueError(f"power ordering violated: {a} < {b}")
        if any(v <= 0 for v in w.values()):
            raise ValueError("state power must be > 0 W")
        if min(self.wake_light_ns, self.wake_deep_ns, self.t_listen_ns) <= 0:
            raise ValueError("wake latencies and listen interval must be > 0")


def select_policy(iot: bool) -> PowerState:
    """The power state an idle room enters when its sleep timer passes.

    A room with a resident IoT device keeps its connectivity by turning its
    RF off instead of sleeping; any other room reports light sleep. Deep
    sleep comes only from the MFU's coordinated command.
    """
    return PowerState.RF_OFF if iot else PowerState.LIGHT_SLEEP


class EnergyLedger:
    """Per-node (state, enter, exit) intervals; closed intervals must tile
    [0, horizon] with no gaps or overlaps."""

    def __init__(self, node: str, initial: PowerState, start: int = 0):
        self.node = node
        self.records: list[tuple[PowerState, int, int]] = []
        self.state = initial          # current state, entered at since
        self.since = start

    def transition(self, new: PowerState, now: int) -> None:
        if now < self.since:
            raise LedgerError(f"{self.node}: ledger time regression")
        self.records.append((self.state, self.since, now))
        self.state = new
        self.since = now

    def close(self, horizon: int) -> None:
        self.records.append((self.state, self.since, horizon))
        self.since = horizon

    def check_tiling(self, horizon: int) -> None:
        if not self.records:
            raise LedgerError(f"{self.node}: empty ledger")
        if self.records[0][1] != 0:
            raise LedgerError(f"{self.node}: ledger does not start at 0")
        for (_, _, a_end), (_, b_start, _) in zip(self.records, self.records[1:]):
            if a_end != b_start:
                raise LedgerError(
                    f"{self.node}: ledger gap/overlap at {a_end} vs {b_start}")
        if self.records[-1][2] != horizon:
            raise LedgerError(f"{self.node}: ledger does not end at horizon")

    def joules(self, profile: PowerProfile) -> float:
        return sum((end - start) * profile.watts[state]
                   for state, start, end in self.records) / NS_PER_S

    def residency_ns(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for state, start, end in self.records:
            out[state.value] = out.get(state.value, 0) + (end - start)
        return out


class PowerMachine:
    """State machine wrapper enforcing the legal-transition table, with the
    unit's idle timer: an awake unit goes IDLE at `idle_at`, `t_act_idle_ns`
    after its last activity. At one instant an activity beats the timer."""

    def __init__(self, node: str, initial: PowerState = PowerState.ACTIVE,
                 t_act_idle_ns: int = 0):
        self.node = node
        self.ledger = EnergyLedger(node, initial)
        self.rejected = 0
        self.t_act_idle_ns = self.idle_at = t_act_idle_ns

    @property
    def state(self) -> PowerState:
        return self.ledger.state

    def request(self, new: PowerState, now: int) -> bool:
        """Attempt a transition; illegal requests are rejected and counted."""
        if new == self.state:
            return False
        if new not in LEGAL_TRANSITIONS[self.state]:
            self.rejected += 1
            return False
        self.ledger.transition(new, now)
        return True

    def active(self, t: int) -> None:
        """Fold an activity at `t`, no earlier than the last: an ACTIVE unit
        whose timer ran out before `t` is IDLE from `idle_at` to `t`, an
        IDLE or RF_OFF unit is ACTIVE from `t`, a sleeping one stays
        asleep; the timer restarts at `t`."""
        idle_at, self.idle_at = self.idle_at, t + self.t_act_idle_ns
        state = self.ledger.state
        if state is _ACTIVE:
            if t <= idle_at:
                return
            self.request(_IDLE, idle_at)
        elif state not in _WAKE_ON_TRAFFIC:
            return
        self.request(_ACTIVE, t)

    def settle(self, t: int) -> None:
        """Record the IDLE of an ACTIVE unit whose timer ran out by `t`."""
        if self.ledger.state is _ACTIVE and self.idle_at <= t:
            self.request(_IDLE, self.idle_at)


class SleepBuffer:
    """Holds frames for a sleeping SFU at the MFU; oldest-drop on overflow."""

    def __init__(self, capacity_frames: int):
        self.capacity = capacity_frames
        self.frames: list = []

    def push(self, frame):
        """Hold `frame`; return the oldest frame if it no longer fits, else
        None."""
        self.frames.append(frame)
        if len(self.frames) > self.capacity:
            return self.frames.pop(0)
        return None

    def flush(self) -> list:
        out, self.frames = self.frames, []
        return out


def ftth_baseline_joules(activity_spans: list[tuple[int, int]], horizon: int,
                         active_w: float, idle_w: float,
                         hold_ns: int) -> float:
    """Single-gateway reference: Active during traffic activity plus a
    hold-down of hold_ns after each span (mirroring the FTTR active->idle
    timer), Idle otherwise. Spans may overlap; they are merged first."""
    held = merge_spans([(min(start, horizon), min(end + hold_ns, horizon))
                        for start, end in activity_spans])
    active_ns = sum(end - start for start, end in held)
    idle_ns = horizon - active_ns
    return (active_ns * active_w + idle_ns * idle_w) / NS_PER_S


def merge_spans(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """`spans` sorted, with overlapping or touching spans folded into one.
    The result covers the same time, so ftth_baseline_joules gives the same
    joules for it, alone or with further spans, as for the raw spans."""
    merged: list[tuple[int, int]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged
