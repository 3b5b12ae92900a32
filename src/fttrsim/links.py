"""Physical-medium models of the Wi-Fi air interface (cells, overhead
parameters, conflict graph).

The Wi-Fi model works at transaction granularity: one transmission occupies
the medium for preamble + payload serialization + SIFS + ACK. Interference
is binary through the conflict graph. Event-driven contention itself lives
in the simulation module; this module holds the static medium parameters
and the arithmetic.
"""

from __future__ import annotations

from typing import NamedTuple

from .engine import transmit_time_ns


def _is_pow2_minus_1(v: int) -> bool:
    return v >= 0 and ((v + 1) & v) == 0


class WifiOverhead(NamedTuple):
    difs_ns: int = 34_000
    sifs_ns: int = 16_000
    slot_ns: int = 9_000
    cw_min: int = 15
    cw_max: int = 1023
    preamble_ns: int = 40_000
    ack_ns: int = 28_000

    def validate(self):
        if not (_is_pow2_minus_1(self.cw_min) and _is_pow2_minus_1(self.cw_max)):
            raise ValueError("cw_min/cw_max must be powers of two minus one")
        if self.cw_min > self.cw_max:
            raise ValueError("cw_min exceeds cw_max")


class WifiCell(NamedTuple):
    """The air model every cell of a scenario shares: one rate, one set of
    overheads."""
    air_rate_bps: int
    overhead: WifiOverhead

    def airtime_ns(self, payload_bytes: int) -> int:
        """Full medium occupancy of one transmission including ACK exchange."""
        oh = self.overhead
        return (oh.preamble_ns + transmit_time_ns(payload_bytes, self.air_rate_bps)
                + oh.sifs_ns + oh.ack_ns)


class InterferenceGraph:
    """Undirected, irreflexive conflict relation over cells (keyed by room).
    `nodes` adds cells that may have no conflict."""

    def __init__(self, edges: list[tuple[str, str]] = (),
                 nodes: list[str] = ()):
        # immutable neighbour sets, so `neighbors` can hand out the stored
        # set without a copy
        self._adj: dict[str, frozenset[str]] = dict.fromkeys(nodes,
                                                             frozenset())
        for a, b in edges:
            self.add_edge(a, b)

    def add_edge(self, a: str, b: str) -> None:
        if a == b:
            raise ValueError("conflict graph is irreflexive")
        adj = self._adj
        adj[a] = adj.get(a, frozenset()) | {b}
        adj[b] = adj.get(b, frozenset()) | {a}

    def conflicts(self, a: str, b: str) -> bool:
        return b in self._adj.get(a, ())

    def neighbors(self, a: str) -> frozenset[str]:
        return self._adj.get(a, frozenset())

    def components(self) -> list[list[str]]:
        """Connected components, each sorted, in sorted order of first node."""
        seen: set[str] = set()
        comps = []
        for start in sorted(self._adj):
            if start in seen:
                continue
            comp = []
            stack = [start]
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                comp.append(node)
                stack.extend(self._adj[node] - seen)
            comps.append(sorted(comp))
        return comps

