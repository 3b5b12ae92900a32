"""Byte-exact codec of the extended OMCI management message, and the
constants and wire lengths of the G.fin DLL/PHY frame family that a run
reads: service classes, T-CONTs, the APDU and FEM header lengths and the
PMA's FEC expansion. The codecs of the other frames are in `framing`,
which no run imports.

Everything in here is a pure function of its inputs: no clock, no RNG.
Serialized layouts (documented in docs/FORMATS.md) are the wire format used
by the link layer and by the management plane.

Layout summary:
  OMCI       = tid:2 type:1 dev:1 class:2 inst:2 | content_len:2 | content
               | crc32(everything before):4
"""

from __future__ import annotations

import struct
import zlib
from enum import IntEnum
from typing import NamedTuple

SERVICE_CLASSES = ("control", "video", "gaming", "iot", "background")
# The APDU header's class byte: the index of the service class.
CLASS_RANK = {name: i for i, name in enumerate(SERVICE_CLASSES)}

OMCI_TCONT = 1  # dedicated management T-CONT; data T-CONTs are >= 2
DATA_TCONT_BASE = 2


class FrameError(ValueError):
    """Malformed or inconsistent frame bytes."""


class OversizeError(FrameError):
    """Payload exceeds a length-field width."""


class IntegrityError(FrameError):
    """Checksum / MIC / parity mismatch."""


def classification_tag(priority: int) -> int:
    """Map an SDU priority (0..7, 7 most urgent) to a queue tag (0 first)."""
    if not 0 <= priority <= 7:
        raise FrameError(f"priority {priority} out of range 0..7")
    return 7 - priority


# ---------------------------------------------------------------------------
# APDU and FEM headers (codecs in `framing`)

APDU_HEADER = struct.Struct(">HBBBHQ")
APDU_OVERHEAD = APDU_HEADER.size

FEM_HEADER = struct.Struct(">BHH")
FEM_HEADER_LEN = FEM_HEADER.size  # 5
FEM_MAX_PAYLOAD = 0xFFFF


# ---------------------------------------------------------------------------
# PMA: modeled FEC overhead (scrambler and parity codec in `framing`)

# RS(255,239)-style framing: 239 data bytes carry 16 parity bytes. Parity is
# a truncated SHA-256 of the scrambled block - verified, not error-correcting.
FEC_DATA = 239
FEC_PARITY = 16
FEC_BLOCK = FEC_DATA + FEC_PARITY


def pma_wire_len(nbytes: int) -> int:
    """On-the-wire size of `nbytes` after the modeled FEC expansion."""
    full, rem = divmod(nbytes, FEC_DATA)
    return full * FEC_BLOCK + (rem + FEC_PARITY if rem else 0)


# ---------------------------------------------------------------------------
# OMCI message

OMCI_STANDARD = 0x0A
OMCI_EXTENDED = 0x0B
# the extended form routes to an SFU by one `sfu_id` byte, 1 to 255
OMCI_SFU_ID_MAX = 0xFF

# header and content length in one struct; the MIC trails the content
OMCI_HEADER = struct.Struct(">HBBHHH")
OMCI_MIC = struct.Struct(">I")


class OmciType(IntEnum):
    SET = 1
    GET = 2
    SET_RESPONSE = 3
    GET_RESPONSE = 4
    ERROR_RESPONSE = 5


class OmciMessage(NamedTuple):
    """Immutable, like every record here; the management plane builds
    several per message."""
    transaction_id: int
    msg_type: int
    entity_class: int
    entity_instance: int
    content: bytes = b""          # application content, routing bytes excluded
    mfu_port_id: int | None = None
    sfu_id: int | None = None


class _PerLength(dict):
    """One message layout's bound `pack` or `unpack`, per content
    length, each made from `fmt % length` on the length's first use. At
    most `PER_LENGTH_MAX` are kept: a full table is emptied first."""

    def __init__(self, fmt: str, method: str) -> None:
        self.fmt, self.method = fmt, method

    def __missing__(self, n: int):
        if len(self) >= PER_LENGTH_MAX:
            self.clear()
        fn = self[n] = getattr(struct.Struct(self.fmt % n), self.method)
        return fn


PER_LENGTH_MAX = 64
# a standard or extended message but its MIC, by its content's length;
# and a whole message, MIC included, by its length less header and MIC
_STANDARD = _PerLength(">HBBHHH%ds", "pack")
_EXTENDED = _PerLength(">HBBHHH%dsBB", "pack")
_WHOLE = _PerLength(">HBBHHH%dsI", "unpack")
# an `OmciMessage` from its seven fields without the keyword-aware
# constructor, and the calls of the MIC and the stream's header
_new = tuple.__new__
_pack_mic, _unpack_header = OMCI_MIC.pack, OMCI_HEADER.unpack_from
_crc32 = zlib.crc32


def encode_omci(msg: OmciMessage) -> bytes:
    tid, mtype, eclass, einst, content, port, sfu_id = msg
    if (port is None) != (sfu_id is None):
        raise FrameError("extended form requires both routing bytes")
    n = len(content)
    if port is None:
        if n > 0xFFFF:
            raise OversizeError("OMCI content too long")
        body = _STANDARD[n](tid, mtype, OMCI_STANDARD, eclass, einst, n,
                            content)
    else:
        if n > 0xFFFD:
            raise OversizeError("OMCI content too long")
        body = _EXTENDED[n](tid, mtype, OMCI_EXTENDED, eclass, einst, n + 2,
                            content, port & 0xFF, sfu_id & 0xFF)
    return body + _pack_mic(_crc32(body))


def decode_omci(data: bytes) -> OmciMessage:
    # a buffer other than bytes is copied once, so that every slice below
    # is bytes; `bytes()` of a bytes object would cost a call per message
    if type(data) is not bytes:
        data = bytes(data)
    # sizes as literals on this hot path: 10-byte header, 4-byte MIC
    n = len(data)
    if n < 14:
        raise FrameError("OMCI message shorter than minimum 14 bytes")
    tid, mtype, flags, eclass, einst, clen, content, mic = _WHOLE[n - 14](data)
    if clen != n - 14:
        raise FrameError(
            f"OMCI framing error: content_len {clen} vs total {n}")
    if _crc32(data[:-4]) != mic:
        raise IntegrityError("OMCI MIC mismatch")
    if flags == OMCI_EXTENDED:
        if clen < 2:
            raise FrameError("extended OMCI content missing routing bytes")
        return _new(OmciMessage, (tid, mtype, eclass, einst, content[:-2],
                                  content[-2], content[-1]))
    if flags != OMCI_STANDARD:
        raise FrameError(f"unknown OMCI device flags 0x{flags:02x}")
    return _new(OmciMessage, (tid, mtype, eclass, einst, content, None, None))


def decode_omci_stream(data: bytes) -> list[OmciMessage]:
    """Decode a concatenation of encoded OMCI messages: each one ends
    where its header's content length says, and is decoded, MIC and all,
    by `decode_omci`. A stream cut inside a header or a body raises
    `FrameError`. Any other buffer is copied to bytes once, not per message."""
    if type(data) is not bytes:
        data = bytes(data)
    out = []
    pos, n = 0, len(data)
    while pos < n:
        if n - pos < OMCI_HEADER.size:
            raise FrameError("OMCI stream cut inside a message header")
        content_len = _unpack_header(data, pos)[5]
        end = pos + OMCI_HEADER.size + content_len + OMCI_MIC.size
        if end > n:
            raise FrameError("OMCI stream cut inside a message")
        out.append(decode_omci(data[pos:end]))
        pos = end
    return out
