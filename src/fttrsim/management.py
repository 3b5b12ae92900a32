"""Integrated management plane: per-device MIB stores, the MFU-resident
OMCI adapter that converts between extended and standard message forms,
and liveness/fault alarms.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .frames import OMCI_SFU_ID_MAX, OmciMessage, OmciType, FrameError


# `OmciMessage` from its seven fields, without the keyword-aware constructor
_new = tuple.__new__
SET, GET = OmciType.SET, OmciType.GET
SET_RESPONSE, GET_RESPONSE = OmciType.SET_RESPONSE, OmciType.GET_RESPONSE
ERROR_RESPONSE = OmciType.ERROR_RESPONSE


class UnknownEntityError(KeyError):
    pass


class AdapterError(ValueError):
    """Routing bytes do not map to a known SFU."""


class MibStore:
    """Minimal managed-entity attribute store for one device."""

    def __init__(self, owner: str):
        self.owner = owner
        self._blobs: dict[tuple[int, int], bytes] = {}

    def set_attr(self, entity_class: int, entity_instance: int, blob: bytes) -> None:
        self._blobs[(entity_class, entity_instance)] = bytes(blob)

    def get_attr(self, entity_class: int, entity_instance: int) -> bytes:
        key = (entity_class, entity_instance)
        if key not in self._blobs:
            raise UnknownEntityError(
                f"{self.owner}: no entity ({entity_class}, {entity_instance})")
        return self._blobs[key]

    def snapshot(self) -> dict[tuple[int, int], bytes]:
        return dict(self._blobs)


class OmciAdapter:
    """Sits above the MME in the MFU; maps (mfu_port_id, sfu_id) routing
    bytes to attached SFUs and converts message forms in both directions.

    All SFUs under one MFU share a single port, so the table is injective
    by construction: one (port, sfu_id) pair per SFU.
    """

    def __init__(self, port_id: int):
        self.port_id = port_id
        self._by_route: dict[tuple[int, int], str] = {}
        self._by_node: dict[str, tuple[int, int]] = {}

    def register_sfu(self, sfu_id: int, node: str) -> None:
        if not 1 <= sfu_id <= OMCI_SFU_ID_MAX:
            raise ValueError(f"sfu_id {sfu_id} of {node} is outside "
                             f"1..{OMCI_SFU_ID_MAX}")
        key = (self.port_id, sfu_id)
        if key in self._by_route or node in self._by_node:
            raise ValueError(f"duplicate adapter mapping for {node}")
        self._by_route[key] = node
        self._by_node[node] = key

    def to_standard(self, msg: OmciMessage) -> tuple[str, OmciMessage]:
        """Downstream: strip routing bytes, return (target sfu, standard msg)."""
        tid, mtype, eclass, einst, content, port, sfu_id = msg
        if port is None:
            raise FrameError("downstream cross-domain message must be extended")
        node = self._by_route.get((port, sfu_id))
        if node is None:
            raise AdapterError(f"no SFU mapped at port/id {(port, sfu_id)}")
        return node, _new(OmciMessage, (tid, mtype, eclass, einst, content,
                                        None, None))

    def to_extended(self, msg: OmciMessage, source: str) -> OmciMessage:
        """Upstream: append routing bytes identifying the true source."""
        route = self._by_node.get(source)
        if route is None:
            raise AdapterError(f"unregistered source {source}")
        tid, mtype, eclass, einst, content, port, _ = msg
        if port is not None:
            raise FrameError("upstream SFU message must be standard form")
        return _new(OmciMessage, (tid, mtype, eclass, einst, content,
                                  route[0], route[1]))

    def route_of(self, node: str) -> tuple[int, int] | None:
        return self._by_node.get(node)


def apply_omci(msg: OmciMessage, mib: MibStore) -> OmciMessage:
    """Apply a standard-form request to a MIB store; return the response."""
    tid, mtype, eclass, einst, content, _, _ = msg
    if mtype == SET:
        mib.set_attr(eclass, einst, content)
        return _new(OmciMessage, (tid, SET_RESPONSE, eclass, einst, b"",
                                  None, None))
    if mtype == GET:
        try:
            blob = mib.get_attr(eclass, einst)
        except UnknownEntityError:
            pass
        else:
            return _new(OmciMessage, (tid, GET_RESPONSE, eclass, einst, blob,
                                      None, None))
    return _new(OmciMessage, (tid, ERROR_RESPONSE, eclass, einst, b"",
                              None, None))


class AlarmKind(Enum):
    UNRESPONSIVE = "Unresponsive"


class Alarm(NamedTuple):
    source: str
    kind: AlarmKind
    raised_at: int
    cleared_at: int | None = None

    def log_lines(self) -> list[str]:
        lines = [f"{self.raised_at} {self.source} {self.kind.value} raised"]
        if self.cleared_at is not None:
            lines.append(f"{self.cleared_at} {self.source} {self.kind.value} cleared")
        return lines


class LivenessMonitor:
    """Raises an Unresponsive alarm after k_miss consecutive missed polls,
    unless the SFU announced a sleep state; clears on recovery."""

    def __init__(self, k_miss: int = 2):
        if k_miss < 1:
            raise ValueError("k_miss must be >= 1")
        self.k_miss = k_miss
        self.misses: dict[str, int] = {}
        self.alarms: list[Alarm] = []
        # room -> index in `alarms` of its open alarm
        self._open: dict[str, int] = {}

    def record_poll(self, sfu: str, responded: bool, announced_sleep: bool,
                    now: int) -> None:
        """Raise or clear `sfu`'s alarm in `alarms` as this poll requires."""
        if responded or announced_sleep:
            self.misses[sfu] = 0
            i = self._open.pop(sfu, None)
            if i is not None:
                self.alarms[i] = self.alarms[i]._replace(cleared_at=now)
            return
        self.misses[sfu] = self.misses.get(sfu, 0) + 1
        if self.misses[sfu] < self.k_miss or sfu in self._open:
            return
        self._open[sfu] = len(self.alarms)
        self.alarms.append(Alarm(sfu, AlarmKind.UNRESPONSIVE, now))
