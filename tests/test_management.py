import pytest

from fttrsim.frames import OmciMessage, OmciType, FrameError
from fttrsim.management import (MibStore, OmciAdapter, AdapterError,
                                UnknownEntityError, apply_omci,
                                LivenessMonitor, Alarm, AlarmKind)


# ---------------------------------------------------------------------------
# MIB store

def test_mib_set_get_snapshot():
    mib = MibStore("room1")
    mib.set_attr(256, 1, b"\x01\x02")
    mib.set_attr(256, 1, b"\x03")  # overwrite
    mib.set_attr(257, 0, b"x")
    assert mib.get_attr(256, 1) == b"\x03"
    assert mib.snapshot() == {(256, 1): b"\x03", (257, 0): b"x"}


def test_mib_unknown_entity_raises():
    with pytest.raises(UnknownEntityError):
        MibStore("r").get_attr(1, 1)


# ---------------------------------------------------------------------------
# adapter

def adapter():
    a = OmciAdapter(port_id=1)
    a.register_sfu(1, "room1")
    a.register_sfu(2, "room2")
    return a


def test_downstream_conversion_strips_routing_and_keeps_content():
    a = adapter()
    ext = OmciMessage(5, OmciType.SET, 256, 1, b"abc", mfu_port_id=1, sfu_id=2)
    node, std = a.to_standard(ext)
    assert node == "room2"
    assert std.mfu_port_id is None
    assert (std.transaction_id, std.content) == (5, b"abc")


def test_upstream_conversion_appends_source_route():
    a = adapter()
    std = OmciMessage(5, OmciType.SET_RESPONSE, 256, 1)
    ext = a.to_extended(std, "room1")
    assert (ext.mfu_port_id, ext.sfu_id) == (1, 1)
    assert ext.content == std.content


def test_conversion_roundtrip_is_identity_on_the_message_body():
    a = adapter()
    std = OmciMessage(9, OmciType.GET_RESPONSE, 300, 4, b"blob")
    node, back = a.to_standard(a.to_extended(std, "room2"))
    assert node == "room2" and back == std


def test_unknown_route_is_an_error():
    a = adapter()
    ext = OmciMessage(1, 1, 1, 1, mfu_port_id=1, sfu_id=77)
    with pytest.raises(AdapterError):
        a.to_standard(ext)
    with pytest.raises(AdapterError):
        a.to_extended(OmciMessage(1, 1, 1, 1), "cellar")


def test_wrong_form_for_direction_is_an_error():
    a = adapter()
    with pytest.raises(FrameError):
        a.to_standard(OmciMessage(1, 1, 1, 1))  # downstream must be extended
    with pytest.raises(FrameError):
        a.to_extended(OmciMessage(1, 1, 1, 1, mfu_port_id=1, sfu_id=1), "room1")


def test_duplicate_registration_rejected():
    a = adapter()
    with pytest.raises(ValueError):
        a.register_sfu(1, "elsewhere")
    with pytest.raises(ValueError):
        a.register_sfu(9, "room1")


def test_sfu_id_must_fit_its_routing_byte():
    a = OmciAdapter(port_id=1)
    for bad in (0, 256, 257):
        with pytest.raises(ValueError):
            a.register_sfu(bad, f"room{bad}")
    a.register_sfu(255, "room255")
    assert a.route_of("room255") == (1, 255)


def test_route_lookup():
    a = adapter()
    assert a.route_of("room2") == (1, 2)
    assert a.route_of("nope") is None


# ---------------------------------------------------------------------------
# request application

def test_set_then_get():
    mib = MibStore("r")
    resp = apply_omci(OmciMessage(1, OmciType.SET, 256, 1, b"v"), mib)
    assert resp.msg_type == OmciType.SET_RESPONSE and resp.transaction_id == 1
    resp = apply_omci(OmciMessage(2, OmciType.GET, 256, 1), mib)
    assert resp.msg_type == OmciType.GET_RESPONSE and resp.content == b"v"


def test_get_missing_entity_is_an_error_response():
    resp = apply_omci(OmciMessage(3, OmciType.GET, 999, 0), MibStore("r"))
    assert resp.msg_type == OmciType.ERROR_RESPONSE


def test_unsupported_type_is_an_error_response():
    resp = apply_omci(OmciMessage(4, OmciType.SET_RESPONSE, 1, 1), MibStore("r"))
    assert resp.msg_type == OmciType.ERROR_RESPONSE


# ---------------------------------------------------------------------------
# liveness

def test_alarm_after_consecutive_misses():
    mon = LivenessMonitor(k_miss=2)
    mon.record_poll("r", False, False, 1000)
    assert mon.alarms == []
    mon.record_poll("r", False, False, 2000)
    assert mon.alarms == [Alarm("r", AlarmKind.UNRESPONSIVE, 2000)]
    # stays raised without duplicating
    mon.record_poll("r", False, False, 3000)
    assert mon.alarms == [Alarm("r", AlarmKind.UNRESPONSIVE, 2000)]


def test_single_miss_recovers():
    mon = LivenessMonitor(k_miss=2)
    mon.record_poll("r", False, False, 1000)
    mon.record_poll("r", True, False, 2000)
    mon.record_poll("r", False, False, 3000)
    assert mon.alarms == []


def test_announced_sleep_suppresses_alarm():
    mon = LivenessMonitor(k_miss=2)
    for t in (1000, 2000, 3000, 4000):
        mon.record_poll("r", False, True, t)
        assert mon.alarms == []


def test_recovery_clears_alarm():
    mon = LivenessMonitor(k_miss=1)
    mon.record_poll("r", False, False, 1000)
    mon.record_poll("r", True, False, 2000)
    assert mon.alarms == [Alarm("r", AlarmKind.UNRESPONSIVE, 1000, 2000)]
    assert mon.alarms[0].log_lines() == ["1000 r Unresponsive raised",
                                         "2000 r Unresponsive cleared"]


def test_clearing_one_alarm_keeps_every_alarm_in_its_place():
    mon = LivenessMonitor(k_miss=1)
    mon.record_poll("a", False, False, 1000)
    mon.record_poll("b", False, False, 1500)
    mon.record_poll("a", True, False, 2000)
    assert mon.alarms == [Alarm("a", AlarmKind.UNRESPONSIVE, 1000, 2000),
                          Alarm("b", AlarmKind.UNRESPONSIVE, 1500)]
    mon.record_poll("b", True, False, 2500)
    mon.record_poll("a", False, False, 3000)
    assert mon.alarms == [Alarm("a", AlarmKind.UNRESPONSIVE, 1000, 2000),
                          Alarm("b", AlarmKind.UNRESPONSIVE, 1500, 2500),
                          Alarm("a", AlarmKind.UNRESPONSIVE, 3000)]


def test_k_miss_must_be_positive():
    with pytest.raises(ValueError):
        LivenessMonitor(k_miss=0)
