"""Power state machines, energy-saving policy selection and exact energy
accounting.

Per-node power states follow a fixed transition table; every transition is
recorded in a ledger whose intervals must tile the run exactly, which makes
the joule total a closed-form interval sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .engine import NS_PER_S


class PowerState(Enum):
    ACTIVE = "active"
    IDLE = "idle"
    LIGHT_SLEEP = "light_sleep"
    DEEP_SLEEP = "deep_sleep"
    RF_OFF = "rf_off"
    REDUCED_TX = "reduced_tx"


# state -> states reachable from it
LEGAL_TRANSITIONS: dict[PowerState, set[PowerState]] = {
    PowerState.ACTIVE: {PowerState.IDLE, PowerState.REDUCED_TX},
    PowerState.IDLE: {PowerState.ACTIVE, PowerState.LIGHT_SLEEP,
                      PowerState.RF_OFF, PowerState.REDUCED_TX},
    PowerState.LIGHT_SLEEP: {PowerState.DEEP_SLEEP, PowerState.IDLE},
    PowerState.DEEP_SLEEP: {PowerState.IDLE},
    PowerState.RF_OFF: {PowerState.IDLE, PowerState.ACTIVE},
    PowerState.REDUCED_TX: {PowerState.ACTIVE, PowerState.IDLE},
}


class LedgerError(RuntimeError):
    """Gap or overlap in the energy ledger - fatal accounting error."""


@dataclass
class PowerProfile:
    watts: dict[PowerState, float]
    wake_light_ns: int = 10_000_000     # 10 ms
    wake_deep_ns: int = 100_000_000     # 100 ms
    t_listen_ns: int = 1_000_000_000    # deep-sleep listen interval

    def validate(self):
        w = self.watts
        order = [PowerState.ACTIVE, PowerState.IDLE, PowerState.REDUCED_TX,
                 PowerState.LIGHT_SLEEP, PowerState.DEEP_SLEEP]
        present = [s for s in order if s in w]
        for a, b in zip(present, present[1:]):
            if w[a] < w[b]:
                raise ValueError(f"power ordering violated: {a} < {b}")
        if any(v <= 0 for v in w.values()):
            raise ValueError("state power must be > 0 W")
        if min(self.wake_light_ns, self.wake_deep_ns, self.t_listen_ns) <= 0:
            raise ValueError("wake latencies and listen interval must be > 0")


class EnergyPolicy(Enum):
    RF_OFF = "rf_off"
    TX_POWER_ADJUST = "tx_power_adjust"
    LIGHT_SLEEP = "light_sleep"
    DEEP_SLEEP = "deep_sleep"


@dataclass
class ScenarioFeatures:
    load_class: str                      # idle | background | moderate | bursty
    services: frozenset = frozenset()
    user_activity: bool = False
    idle_ns: int = 0


# Idle-duration thresholds splitting short-term from long-term idle; the
# strategy table names the conditions, the numbers are this build's defaults.
SHORT_IDLE_NS = 10 * NS_PER_S
LONG_IDLE_NS = 60 * NS_PER_S


def select_policy(features: ScenarioFeatures) -> EnergyPolicy:
    """Deterministic strategy-table mapping from scenario features.

    Resident-IoT SFUs never select a full sleep state; they fall back to
    RF channel deactivation to keep connectivity.
    """
    iot = "iot" in features.services
    low_activity = features.load_class in ("idle", "background") and not features.user_activity
    if iot and low_activity:
        return EnergyPolicy.RF_OFF
    if features.load_class == "moderate":
        return EnergyPolicy.TX_POWER_ADJUST
    if features.idle_ns >= LONG_IDLE_NS and not iot:
        return EnergyPolicy.DEEP_SLEEP
    if features.idle_ns >= SHORT_IDLE_NS and not iot:
        return EnergyPolicy.LIGHT_SLEEP
    return EnergyPolicy.LIGHT_SLEEP if not iot else EnergyPolicy.RF_OFF


class EnergyLedger:
    """Per-node (state, enter, exit) intervals; closed intervals must tile
    [0, horizon] with no gaps or overlaps."""

    def __init__(self, node: str, initial: PowerState, start: int = 0):
        self.node = node
        self.records: list[tuple[PowerState, int, int]] = []
        self.state = initial          # current state, entered at _since
        self._since = start

    def transition(self, new: PowerState, now: int) -> None:
        if now < self._since:
            raise LedgerError(f"{self.node}: ledger time regression")
        self.records.append((self.state, self._since, now))
        self.state = new
        self._since = now

    def close(self, horizon: int) -> None:
        self.records.append((self.state, self._since, horizon))
        self._since = horizon

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
    """State machine wrapper enforcing the legal-transition table."""

    def __init__(self, node: str, initial: PowerState = PowerState.ACTIVE):
        self.node = node
        self.ledger = EnergyLedger(node, initial)
        self.rejected = 0

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


class SleepBuffer:
    """Holds frames for a sleeping SFU at the MFU; oldest-drop on overflow."""

    def __init__(self, capacity_frames: int):
        self.capacity = capacity_frames
        self.frames: list = []
        self.dropped = 0

    def push(self, frame):
        """Hold `frame`; return the oldest frame if it no longer fits, else
        None."""
        self.frames.append(frame)
        if len(self.frames) > self.capacity:
            self.dropped += 1
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
