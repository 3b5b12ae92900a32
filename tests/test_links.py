import pytest

from fttrsim.links import WifiCell, InterferenceGraph

# the default preamble + SIFS + ACK: 40 + 16 + 28 us
OVERHEAD_NS = 84_000


def test_airtime_includes_full_exchange():
    cell = WifiCell(120_000_000, OVERHEAD_NS)
    # 1500 B at 120 Mb/s serializes in 100 us; preamble 40 + SIFS 16 + ACK 28
    assert cell.airtime_ns(1500) == (40 + 100 + 16 + 28) * 1000


def test_airtime_rounds_serialization_up():
    cell = WifiCell(999_999_999, OVERHEAD_NS)
    assert cell.airtime_ns(1) == OVERHEAD_NS + 9  # 8 bits needs 8.000000008 ns


def test_conflicts_are_symmetric_and_irreflexive():
    g = InterferenceGraph([("a", "b")])
    assert g.conflicts("a", "b") and g.conflicts("b", "a")
    assert not g.conflicts("a", "a")
    assert not g.conflicts("a", "zzz")
    with pytest.raises(ValueError):
        g.add_edge("c", "c")


def test_components_are_deterministic():
    g = InterferenceGraph([("d", "c"), ("a", "b")], ["x", "c"])
    assert g.components() == [["a", "b"], ["c", "d"], ["x"]]


def test_neighbors():
    g = InterferenceGraph([("a", "b"), ("a", "c")])
    assert g.neighbors("a") == {"b", "c"}
    assert g.neighbors("b") == {"a"}


def test_neighbors_view_cannot_change_the_graph():
    # `neighbors` hands out the stored set, not a copy, so it must be
    # immutable
    g = InterferenceGraph([("a", "b"), ("a", "c")])
    view = g.neighbors("a")
    with pytest.raises(AttributeError):
        view.add("d")
    view |= {"d"}
    assert g.neighbors("a") == {"b", "c"}
    assert not g.conflicts("a", "d")
    lone = g.neighbors("x")
    lone |= {"a"}
    assert g.neighbors("x") == set()
    assert g.neighbors("a") == {"b", "c"}
