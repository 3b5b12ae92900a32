"""Physical-medium models of the Wi-Fi air interface (cells and the
conflict graph).

The Wi-Fi model works at transaction granularity: one transmission occupies
the medium for preamble + payload serialization + SIFS + ACK. Interference
is binary through the conflict graph. Event-driven contention itself lives
in the simulation module, and the scenario holds the 802.11 timings; this
module holds the air-time arithmetic and the conflict graph.
"""

from __future__ import annotations

from typing import NamedTuple

from .engine import transmit_time_ns


class WifiCell(NamedTuple):
    """The air model every cell of a scenario shares: one rate, and the
    fixed part of a transmission (preamble + SIFS + ACK)."""
    air_rate_bps: int
    overhead_ns: int

    def airtime_ns(self, payload_bytes: int) -> int:
        """Full medium occupancy of one transmission including ACK exchange."""
        return (self.overhead_ns
                + transmit_time_ns(payload_bytes, self.air_rate_bps))


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

