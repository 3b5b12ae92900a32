import random
import struct
import zlib

import pytest
from hypothesis import given, strategies as st

from fttrsim import frames as fr


# ---------------------------------------------------------------------------
# classification

def test_priority_maps_to_mirrored_queue_tag():
    assert [fr.classification_tag(p) for p in range(8)] == [7, 6, 5, 4, 3, 2, 1, 0]


@pytest.mark.parametrize("bad", [-1, 8, 100])
def test_out_of_range_priority_rejected(bad):
    with pytest.raises(fr.FrameError):
        fr.classification_tag(bad)


def test_apdu_roundtrip_preserves_classification():
    sdu = fr.Sdu(dest=3, payload_len=64, priority=5, service_class="gaming",
                 created_at=123456, flow_id=9)
    apdu = fr.encapsulate_sdu(sdu)
    assert apdu.classification_tag == 2
    back = fr.Apdu.decode(apdu.encode())
    assert back == apdu


def test_apdu_unknown_destination_rejected():
    sdu = fr.Sdu(dest=9, payload_len=10, priority=1, service_class="iot",
                 created_at=0, flow_id=1)
    with pytest.raises(fr.FrameError):
        fr.encapsulate_sdu(sdu, known_nodes={1, 2, 3})


# ---------------------------------------------------------------------------
# FEM frames / MPDU

def test_fem_frame_byte_layout():
    frame = fr.build_fem_frame(fr.FemKind.APDU, 0x0102, bytes(100))
    wire = frame.encode()
    assert len(wire) == 105
    assert wire[:5] == b"\x01\x01\x02\x00\x64"
    back, span = fr.parse_fem_frame(wire)
    assert span == 105 and back == frame


def test_fem_payload_bounds():
    with pytest.raises(fr.FrameError):
        fr.FemFrame(fr.FemKind.APDU, 0, b"").encode()
    with pytest.raises(fr.OversizeError):
        fr.FemFrame(fr.FemKind.APDU, 0, bytes(65536)).encode()
    fr.FemFrame(fr.FemKind.APDU, 0, bytes(65535)).encode()  # max fits


def test_fem_parse_rejects_garbage():
    with pytest.raises(fr.FrameError):
        fr.parse_fem_frame(b"\x00\x00")
    with pytest.raises(fr.FrameError):  # unknown kind code
        fr.parse_fem_frame(b"\x09\x00\x00\x00\x01A")
    with pytest.raises(fr.FrameError):  # truncated payload
        fr.parse_fem_frame(b"\x01\x00\x00\x00\x05AB")


def test_mpdu_concatenation_roundtrip():
    parts = [fr.build_fem_frame(fr.FemKind.APDU, i, bytes([i]) * (i + 1))
             for i in range(5)]
    mpdu = fr.Mpdu(tuple(parts))
    back = fr.Mpdu.decode(mpdu.encode())
    assert back == mpdu
    assert back.total_len == sum(5 + i + 1 for i in range(5))


# ---------------------------------------------------------------------------
# PLOAM / TAMap / PCS

def test_ploam_roundtrip_every_kind():
    for kind in fr.PloamKind:
        msg = fr.PloamMsg(kind, target_sfu=7, arg=0xDEADBEEF)
        assert fr.PloamMsg.decode(msg.encode()) == msg


def _tamap():
    return fr.Tamap(1000, (
        fr.TamapEntry(0, 0, 10_000, fr.OMCI_TCONT),
        fr.TamapEntry(1, 10_100, 5_000, fr.DATA_TCONT_BASE),
        fr.TamapEntry(2, 15_200, 7_000, fr.DATA_TCONT_BASE),
    ))


def test_tamap_roundtrip():
    tamap = _tamap()
    back, span = fr.Tamap.decode(tamap.encode())
    assert back == tamap and span == len(tamap.encode())


def test_tamap_overlap_rejected():
    bad = fr.Tamap(0, (fr.TamapEntry(0, 0, 100, 1),
                       fr.TamapEntry(1, 99, 50, 2)))
    with pytest.raises(fr.FrameError):
        bad.validate()
    with pytest.raises(fr.FrameError):
        fr.Tamap.decode(bad.encode())


def test_tamap_must_fit_cycle_and_carry_one_management_slot():
    tamap = _tamap()
    tamap.validate(cycle_ns=25_000, require_omci=True)
    with pytest.raises(fr.FrameError):
        tamap.validate(cycle_ns=20_000)
    no_omci = fr.Tamap(0, (fr.TamapEntry(0, 0, 10, fr.DATA_TCONT_BASE),))
    with pytest.raises(fr.FrameError):
        no_omci.validate(require_omci=True)


def test_pcs_frame_roundtrip():
    mpdu = fr.Mpdu((fr.build_fem_frame(fr.FemKind.FMCI_DU, 1, b"ctl"),))
    ploams = [fr.PloamMsg(fr.PloamKind.SLEEP_ALLOW, 2, 5)]
    pcs = fr.build_pcs_frame(mpdu, ploams, _tamap())
    back = fr.parse_pcs_frame(pcs.encode())
    assert back == pcs
    assert fr.Mpdu.decode(back.payload).frames[0].payload == b"ctl"


def test_pcs_header_corruption_detected():
    pcs = fr.build_pcs_frame(fr.Mpdu(()), [], _tamap())
    wire = bytearray(pcs.encode())
    wire[3] ^= 0x40  # inside the header, before the check word
    with pytest.raises(fr.IntegrityError):
        fr.parse_pcs_frame(bytes(wire))


def test_pcs_payload_length_mismatch_detected():
    pcs = fr.build_pcs_frame(
        fr.Mpdu((fr.build_fem_frame(fr.FemKind.APDU, 0, b"abc"),)), [], _tamap())
    with pytest.raises(fr.FrameError):
        fr.parse_pcs_frame(pcs.encode() + b"x")


def test_pcs_refuses_invalid_map_at_build_time():
    bad = fr.Tamap(0, (fr.TamapEntry(0, 0, 100, 1),
                       fr.TamapEntry(1, 50, 100, 2)))
    with pytest.raises(fr.FrameError):
        fr.build_pcs_frame(fr.Mpdu(()), [], bad)


# ---------------------------------------------------------------------------
# PMA

def test_pma_expansion_arithmetic():
    assert fr.pma_wire_len(239) == 255
    assert fr.pma_wire_len(240) == 255 + 17
    assert fr.pma_wire_len(478) == 510
    assert fr.pma_wire_len(0) == 0
    for n in (1, 100, 239, 240, 500, 1000):
        assert len(fr.pma_encode(bytes(n))) == fr.pma_wire_len(n)


@pytest.mark.parametrize("sizes", [range(1, 1001), range(4760, 4764),
                                   [65_000]])
def test_run_side_wire_length_matches_the_encoded_frame(sizes):
    # a run times a frame's optical transfer from this length alone; the
    # APDU header and the FEM header bring 4,760 B to 20 FEC blocks
    for size in sizes:
        sdu = fr.Sdu(dest=3, payload_len=size, priority=5,
                     service_class="video", created_at=123, flow_id=9)
        fem = fr.build_fem_frame(fr.FemKind.APDU, size,
                                 fr.encapsulate_sdu(sdu).encode())
        wire = fr.pma_encode(fem.encode())
        assert fr.pma_wire_len(
            fr.APDU_OVERHEAD + size + fr.FEM_HEADER_LEN) == len(wire), size


def test_pma_roundtrip():
    rng = random.Random(5)
    for n in (1, 50, 239, 240, 700):
        data = rng.randbytes(n)
        assert fr.pma_decode(fr.pma_encode(data)) == data


def test_pma_output_is_scrambled():
    data = bytes(500)  # all zeros must not appear on the wire as-is
    wire = fr.pma_encode(data)
    assert wire[:239] != data[:239]


def test_pma_single_bit_flip_detected():
    rng = random.Random(6)
    data = rng.randbytes(300)
    wire = bytearray(fr.pma_encode(data))
    for pos in (0, 100, 254, 255, len(wire) - 1):
        bad = bytearray(wire)
        bad[pos] ^= 0x01
        with pytest.raises(fr.IntegrityError):
            fr.pma_decode(bytes(bad))


# ---------------------------------------------------------------------------
# OMCI

def test_extended_message_wire_size():
    msg = fr.OmciMessage(1, fr.OmciType.SET, 0x0100, 2, bytes(10),
                         mfu_port_id=1, sfu_id=3)
    wire = fr.encode_omci(msg)
    assert len(wire) == 26
    assert wire[3] == 0x0B  # device flag marks the extended form
    assert struct.unpack(">H", wire[8:10])[0] == 12  # routing bytes counted


def test_standard_message_minimum_size():
    msg = fr.OmciMessage(7, fr.OmciType.GET, 0x0101, 0)
    wire = fr.encode_omci(msg)
    assert len(wire) == 14
    assert wire[3] == 0x0A


def test_omci_roundtrip_both_forms():
    ext = fr.OmciMessage(0xFFFF, fr.OmciType.SET_RESPONSE, 300, 63,
                         b"payload", mfu_port_id=2, sfu_id=9)
    assert fr.decode_omci(fr.encode_omci(ext)) == ext
    std = fr.OmciMessage(0, fr.OmciType.GET_RESPONSE, 1, 1, b"\x00\x01")
    assert fr.decode_omci(fr.encode_omci(std)) == std


def test_omci_integrity_check():
    wire = bytearray(fr.encode_omci(fr.OmciMessage(1, 1, 2, 3, b"abcd")))
    wire[11] ^= 0x80
    with pytest.raises(fr.IntegrityError):
        fr.decode_omci(bytes(wire))


def test_omci_routing_bytes_come_in_pairs():
    with pytest.raises(fr.FrameError):
        fr.encode_omci(fr.OmciMessage(1, 1, 2, 3, mfu_port_id=1, sfu_id=None))


def test_omci_encodings_pinned():
    msg = fr.OmciMessage(0x1234, fr.OmciType.SET, 257, 5, b"\x00\x01\xfe\xff",
                         1, 3)
    assert fr.encode_omci(msg).hex() == (
        "1234010b0101000500060001feff0103a71e3527")
    msg = fr.OmciMessage(0xFFFF, fr.OmciType.GET_RESPONSE, 300, 63, b"blob")
    assert fr.encode_omci(msg).hex() == "ffff040a012c003f0004626c6f6283e36de9"


def test_omci_message_is_immutable():
    msg = fr.OmciMessage(1, fr.OmciType.SET, 2, 3, b"x", 1, 2)
    with pytest.raises(AttributeError):
        msg.content = b"y"
    with pytest.raises(AttributeError):
        msg.sfu_id = None


def test_omci_rejects_unknown_device_flags():
    wire = bytearray(fr.encode_omci(fr.OmciMessage(1, 1, 2, 3)))
    wire[3] = 0x0C
    body = bytes(wire[:-4])
    wire[-4:] = struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF)
    with pytest.raises(fr.FrameError):
        fr.decode_omci(bytes(wire))


# ---------------------------------------------------------------------------
# property-based roundtrips

@given(kind=st.sampled_from(list(fr.FemKind)),
       seq=st.integers(0, 0xFFFF),
       payload=st.binary(min_size=1, max_size=200))
def test_fem_roundtrip_property(kind, seq, payload):
    frame = fr.build_fem_frame(kind, seq, payload)
    back, span = fr.parse_fem_frame(frame.encode())
    assert back == frame and span == frame.wire_len


@given(tid=st.integers(0, 0xFFFF),
       mtype=st.sampled_from(list(fr.OmciType)),
       eclass=st.integers(0, 0xFFFF),
       einst=st.integers(0, 0xFFFF),
       content=st.binary(max_size=100),
       route=st.one_of(st.none(), st.tuples(st.integers(0, 255),
                                            st.integers(0, 255))))
def test_omci_roundtrip_property(tid, mtype, eclass, einst, content, route):
    port, sfu = route if route else (None, None)
    msg = fr.OmciMessage(tid, mtype, eclass, einst, content, port, sfu)
    assert fr.decode_omci(fr.encode_omci(msg)) == msg


# The OMCI codec as first written, kept as the reference for the
# single-struct one: a header struct and a length struct, slicing before
# each unpack.
_REF_HEADER = struct.Struct(">HBBHH")


def reference_encode_omci(msg):
    if (msg.mfu_port_id is None) != (msg.sfu_id is None):
        raise fr.FrameError("extended form requires both routing bytes")
    extended = msg.mfu_port_id is not None
    flags = fr.OMCI_EXTENDED if extended else fr.OMCI_STANDARD
    content = msg.content
    if extended:
        content = content + bytes([msg.mfu_port_id & 0xFF, msg.sfu_id & 0xFF])
    if len(content) > 0xFFFF:
        raise fr.OversizeError("OMCI content too long")
    body = _REF_HEADER.pack(msg.transaction_id, msg.msg_type, flags,
                            msg.entity_class, msg.entity_instance)
    body += struct.pack(">H", len(content)) + content
    mic = zlib.crc32(body) & 0xFFFFFFFF
    return body + struct.pack(">I", mic)


def reference_decode_omci(data):
    if len(data) < 14:
        raise fr.FrameError("OMCI message shorter than minimum 14 bytes")
    tid, mtype, flags, eclass, einst = _REF_HEADER.unpack(data[:8])
    content_len, = struct.unpack(">H", data[8:10])
    if len(data) != 10 + content_len + 4:
        raise fr.FrameError("OMCI framing error")
    body = data[:10 + content_len]
    mic, = struct.unpack(">I", data[10 + content_len:])
    if zlib.crc32(body) & 0xFFFFFFFF != mic:
        raise fr.IntegrityError("OMCI MIC mismatch")
    content = bytes(data[10:10 + content_len])
    if flags == fr.OMCI_EXTENDED:
        if content_len < 2:
            raise fr.FrameError("extended OMCI content missing routing bytes")
        return fr.OmciMessage(tid, mtype, eclass, einst, content[:-2],
                              content[-2], content[-1])
    if flags != fr.OMCI_STANDARD:
        raise fr.FrameError(f"unknown OMCI device flags 0x{flags:02x}")
    return fr.OmciMessage(tid, mtype, eclass, einst, content)


def outcome(fn, *args):
    """What `fn(*args)` gives: its result, or the class of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


_omci_messages = st.builds(
    fr.OmciMessage,
    st.integers(0, 0xFFFF), st.sampled_from(list(fr.OmciType)),
    st.integers(0, 0xFFFF), st.integers(0, 0xFFFF), st.binary(max_size=40),
    st.one_of(st.none(), st.integers(0, 0xFFFF)),
    st.one_of(st.none(), st.integers(0, 0xFFFF)))


@given(msg=_omci_messages, pos=st.integers(0), xor=st.integers(1, 255),
       junk=st.binary(max_size=60))
def test_omci_codec_matches_reference(msg, pos, xor, junk):
    wire = outcome(fr.encode_omci, msg)
    assert wire == outcome(reference_encode_omci, msg)
    if isinstance(wire, bytes):
        assert fr.decode_omci(wire) == reference_decode_omci(wire)
        bad = bytearray(wire)
        bad[pos % len(bad)] ^= xor  # a single corrupted byte
        bad = bytes(bad)
        assert outcome(fr.decode_omci, bad) == outcome(reference_decode_omci,
                                                       bad)
        # the same corruption under a valid MIC reaches the later checks
        sealed = bad[:-4] + struct.pack(">I", zlib.crc32(bad[:-4]))
        assert outcome(fr.decode_omci, sealed) == outcome(
            reference_decode_omci, sealed)
    assert outcome(fr.decode_omci, junk) == outcome(reference_decode_omci,
                                                    junk)


# standard and extended messages, each with a valid routing pair or none
_omci_both_forms = st.tuples(
    st.integers(0, 0xFFFF), st.sampled_from(list(fr.OmciType)),
    st.integers(0, 0xFFFF), st.integers(0, 0xFFFF), st.binary(max_size=40),
    st.one_of(st.just((None, None)),
              st.tuples(st.integers(0, 255), st.integers(0, 255)))).map(
    lambda t: fr.OmciMessage(*t[:5], *t[5]))


@given(msgs=st.lists(_omci_both_forms, max_size=20))
def test_omci_stream_roundtrip_property(msgs):
    stream = bytearray()
    for msg in msgs:
        stream += fr.encode_omci(msg)
    assert fr.decode_omci_stream(stream) == msgs
    assert fr.decode_omci_stream(bytes(stream)) == msgs
    assert fr.decode_omci_stream(memoryview(stream)) == msgs


def _stream_of_two():
    first = fr.encode_omci(fr.OmciMessage(1, fr.OmciType.SET_RESPONSE, 2, 3,
                                          b"abcd", 1, 2))
    second = fr.encode_omci(fr.OmciMessage(2, fr.OmciType.GET_RESPONSE, 4, 5,
                                           b"xyz"))
    return first, second


@pytest.mark.parametrize("cut", [1, 9, 10, 13, 16])
def test_omci_stream_cut_inside_a_message_is_rejected(cut):
    # a cut inside the second message's 10-byte header (1, 9) or inside
    # its content or MIC (10, 13, 16 of its 17 bytes)
    first, second = _stream_of_two()
    with pytest.raises(fr.FrameError, match="cut inside"):
        fr.decode_omci_stream(first + second[:cut])


def test_omci_stream_flipped_mic_byte_is_rejected():
    first, second = _stream_of_two()
    stream = bytearray(first + second)
    stream[len(first) - 1] ^= 0x01  # the last byte of the first MIC
    with pytest.raises(fr.IntegrityError):
        fr.decode_omci_stream(stream)
    assert fr.decode_omci_stream(first + second) == [
        fr.decode_omci(first), fr.decode_omci(second)]


@pytest.mark.parametrize("content_len,route", [
    (0xFFFF, (None, None)), (0xFFFD, (1, 2)), (0xFFFE, (1, 2)),
    (0x10000, (None, None))])
def test_omci_content_length_limit_matches_reference(content_len, route):
    msg = fr.OmciMessage(1, fr.OmciType.SET, 2, 3, bytes(content_len), *route)
    assert outcome(fr.encode_omci, msg) == outcome(reference_encode_omci, msg)


@pytest.mark.parametrize("content_len", [0, 1, 0xFFFD, 0xFFFE])
def test_extended_omci_at_the_length_edges_matches_reference(content_len):
    # 0xFFFD content bytes and the two routing bytes fill the length field;
    # one more is too long
    content = random.Random(content_len).randbytes(content_len)
    msg = fr.OmciMessage(1, fr.OmciType.SET, 2, 3, content, 4, 5)
    wire = outcome(fr.encode_omci, msg)
    assert wire == outcome(reference_encode_omci, msg)
    if content_len > 0xFFFD:
        assert wire is fr.OversizeError
    else:
        assert fr.decode_omci(wire) == reference_decode_omci(wire) == msg


def test_the_per_length_struct_tables_stay_bounded():
    # every content length has a struct of its own, so a run of many
    # lengths (Hypothesis draws up to 65,535 B) must not keep them all
    for n in [*range(3 * fr.PER_LENGTH_MAX), 0xFFFD]:
        for route in ((None, None), (1, 2)):
            msg = fr.OmciMessage(1, fr.OmciType.SET, 2, 3, bytes(n), *route)
            assert fr.decode_omci(fr.encode_omci(msg)) == msg
    for table in (fr._STANDARD, fr._EXTENDED, fr._WHOLE):
        assert 0 < len(table) <= fr.PER_LENGTH_MAX


@given(data=st.binary(min_size=1, max_size=1000))
def test_pma_roundtrip_property(data):
    assert fr.pma_decode(fr.pma_encode(data)) == data
