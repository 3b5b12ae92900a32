"""Reference codecs for the G.fin DLL/PHY frame family: the SDU and its
APDU, FEM frames and their MPDU, PLOAM messages, the TAMap, the PCS frame,
and the PMA's scrambler and FEC parity.

No simulation run imports this module: a run needs only the wire lengths
and constants that `frames` keeps. The tests encode and decode through these
codecs, also to check those lengths, and the DBA's `generate_tamap` builds
its maps from `Tamap`. Everything here is a pure function of its inputs: no
clock, no RNG. Serialized layouts are documented in docs/FORMATS.md.

Layout summary:
  APDU       = dest:2 tag:1 priority:1 class:1 flow_id:2 created_at:8 payload
  FEM frame  = kind:1 seq:2 length:2 payload                  (5-byte header)
  MPDU       = concatenation of FEM frames
  PLOAM msg  = kind:1 target_sfu:2 arg:4                      (7 bytes)
  TAMap      = cycle_start:8 n:2 then per entry sfu:2 offset:4 dur:4 tcont:2
  PCS frame  = n_ploam:1 ploams tamap payload_len:4 crc32(header):4 payload
"""

from __future__ import annotations

import functools
import hashlib
import struct
import zlib
from enum import IntEnum
from typing import NamedTuple

from .frames import (APDU_HEADER, CLASS_RANK, FEC_BLOCK, FEC_DATA,
                     FEC_PARITY, FEM_HEADER, FEM_HEADER_LEN, FEM_MAX_PAYLOAD,
                     OMCI_TCONT, SERVICE_CLASSES, FrameError, IntegrityError,
                     OversizeError, classification_tag)


# ---------------------------------------------------------------------------
# SDU / APDU

class Sdu(NamedTuple):
    dest: int
    payload_len: int
    priority: int
    service_class: str
    created_at: int
    flow_id: int

    def validate(self):
        if self.payload_len < 1:
            raise FrameError("SDU payload_len must be >= 1")
        if not 0 <= self.priority <= 7:
            raise FrameError("SDU priority out of range")
        if self.service_class not in CLASS_RANK:
            raise FrameError(f"unknown service class {self.service_class!r}")


class Apdu(NamedTuple):
    inner: Sdu
    target_node: int
    classification_tag: int

    APDU_HEADER = APDU_HEADER  # `frames.APDU_OVERHEAD` is its size

    def encode(self) -> bytes:
        s = self.inner
        return self.APDU_HEADER.pack(
            self.target_node, self.classification_tag, s.priority,
            CLASS_RANK[s.service_class], s.flow_id, s.created_at
        ) + bytes(s.payload_len)

    @classmethod
    def decode(cls, data: bytes) -> "Apdu":
        if len(data) < cls.APDU_HEADER.size:
            raise FrameError("short APDU")
        dest, tag, prio, cls_rank, flow_id, created = cls.APDU_HEADER.unpack(
            data[:cls.APDU_HEADER.size])
        payload_len = len(data) - cls.APDU_HEADER.size
        sdu = Sdu(dest, payload_len, prio, SERVICE_CLASSES[cls_rank],
                  created, flow_id)
        return cls(sdu, dest, tag)

    @property
    def wire_len(self) -> int:
        return self.APDU_HEADER.size + self.inner.payload_len


def encapsulate_sdu(sdu: Sdu, known_nodes: set[int] | None = None) -> Apdu:
    """APC step: wrap an SDU into an APDU, assigning its queue tag."""
    sdu.validate()
    if known_nodes is not None and sdu.dest not in known_nodes:
        raise FrameError(f"unknown destination node {sdu.dest}")
    return Apdu(sdu, sdu.dest, classification_tag(sdu.priority))


# ---------------------------------------------------------------------------
# FEM frames and MPDU aggregation

class FemKind(IntEnum):
    APDU = 1
    FMCI_DU = 2
    WMCI_DU = 3


class FemFrame(NamedTuple):
    kind: FemKind
    seq: int
    payload: bytes

    def encode(self) -> bytes:
        if len(self.payload) < 1:
            raise FrameError("FEM payload must be >= 1 byte")
        if len(self.payload) > FEM_MAX_PAYLOAD:
            raise OversizeError(
                f"FEM payload {len(self.payload)} exceeds {FEM_MAX_PAYLOAD}")
        return FEM_HEADER.pack(self.kind, self.seq, len(self.payload)) + self.payload

    @property
    def wire_len(self) -> int:
        return FEM_HEADER_LEN + len(self.payload)


def build_fem_frame(kind: FemKind, seq: int, payload: bytes) -> FemFrame:
    frame = FemFrame(FemKind(kind), seq & 0xFFFF, payload)
    frame.encode()  # force length checks at build time
    return frame


def parse_fem_frame(data: bytes) -> tuple[FemFrame, int]:
    """Parse one FEM frame from the head of `data`; return (frame, span)."""
    if len(data) < FEM_HEADER_LEN:
        raise FrameError("short FEM header")
    kind, seq, length = FEM_HEADER.unpack(data[:FEM_HEADER_LEN])
    try:
        kind = FemKind(kind)
    except ValueError:
        raise FrameError(f"unknown FEM kind code {kind}")
    end = FEM_HEADER_LEN + length
    if len(data) < end:
        raise FrameError("FEM payload truncated")
    return FemFrame(kind, seq, bytes(data[FEM_HEADER_LEN:end])), end


class Mpdu(NamedTuple):
    frames: tuple[FemFrame, ...]

    @property
    def total_len(self) -> int:
        return sum(f.wire_len for f in self.frames)

    def encode(self) -> bytes:
        return b"".join(f.encode() for f in self.frames)

    @classmethod
    def decode(cls, data: bytes) -> "Mpdu":
        frames = []
        pos = 0
        while pos < len(data):
            frame, span = parse_fem_frame(data[pos:])
            frames.append(frame)
            pos += span
        return cls(tuple(frames))


# ---------------------------------------------------------------------------
# PLOAM, TAMap, PCS frame

class PloamKind(IntEnum):
    REGISTER = 1
    RANGING_GRANT = 2
    SLEEP_ALLOW = 3
    WAKE_COMMAND = 4
    DEEP_SLEEP_COMMAND = 5


PLOAM_FMT = struct.Struct(">BHI")


class PloamMsg(NamedTuple):
    kind: PloamKind
    target_sfu: int
    arg: int = 0

    def encode(self) -> bytes:
        return PLOAM_FMT.pack(self.kind, self.target_sfu, self.arg)

    @classmethod
    def decode(cls, data: bytes) -> "PloamMsg":
        kind, target, arg = PLOAM_FMT.unpack(data)
        return cls(PloamKind(kind), target, arg)


TAMAP_HEAD = struct.Struct(">QH")
TAMAP_ENTRY = struct.Struct(">HIIH")


class TamapEntry(NamedTuple):
    sfu: int
    offset_ns: int
    duration_ns: int
    tcont: int


class Tamap(NamedTuple):
    cycle_start: int
    entries: tuple[TamapEntry, ...] = ()

    def validate(self, cycle_ns: int | None = None,
                 require_omci: bool = False) -> None:
        spans = sorted((e.offset_ns, e.offset_ns + e.duration_ns)
                       for e in self.entries)
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            if b0 < a1:
                raise FrameError(
                    f"TAMap entries overlap: [{a0},{a1}) and [{b0},{b1})")
        if cycle_ns is not None:
            for e in self.entries:
                if e.offset_ns < 0 or e.offset_ns + e.duration_ns > cycle_ns:
                    raise FrameError("TAMap entry outside allocation cycle")
        if require_omci:
            omci = [e for e in self.entries if e.tcont == OMCI_TCONT]
            if len(omci) != 1:
                raise FrameError(
                    f"expected exactly one OMCI T-CONT entry, got {len(omci)}")

    def encode(self) -> bytes:
        out = [TAMAP_HEAD.pack(self.cycle_start, len(self.entries))]
        out += [TAMAP_ENTRY.pack(e.sfu, e.offset_ns, e.duration_ns, e.tcont)
                for e in self.entries]
        return b"".join(out)

    @classmethod
    def decode(cls, data: bytes) -> tuple["Tamap", int]:
        if len(data) < TAMAP_HEAD.size:
            raise FrameError("short TAMap")
        cycle_start, n = TAMAP_HEAD.unpack(data[:TAMAP_HEAD.size])
        pos = TAMAP_HEAD.size
        entries = []
        for _ in range(n):
            if len(data) < pos + TAMAP_ENTRY.size:
                raise FrameError("TAMap entries truncated")
            sfu, off, dur, tcont = TAMAP_ENTRY.unpack(
                data[pos:pos + TAMAP_ENTRY.size])
            entries.append(TamapEntry(sfu, off, dur, tcont))
            pos += TAMAP_ENTRY.size
        tamap = cls(cycle_start, tuple(entries))
        tamap.validate()  # structural non-overlap checked on parse
        return tamap, pos


class PcsFrame(NamedTuple):
    ploam_msgs: tuple[PloamMsg, ...]
    tamap: Tamap
    payload: bytes  # serialized MPDU

    def encode(self) -> bytes:
        if len(self.ploam_msgs) > 0xFF:
            raise OversizeError("too many PLOAM messages")
        self.tamap.validate()
        header = bytes([len(self.ploam_msgs)])
        header += b"".join(p.encode() for p in self.ploam_msgs)
        header += self.tamap.encode()
        header += struct.pack(">I", len(self.payload))
        check = zlib.crc32(header) & 0xFFFFFFFF
        return header + struct.pack(">I", check) + self.payload

    @property
    def wire_len(self) -> int:
        return (1 + 7 * len(self.ploam_msgs) + TAMAP_HEAD.size
                + TAMAP_ENTRY.size * len(self.tamap.entries) + 8
                + len(self.payload))


def build_pcs_frame(mpdu: Mpdu, ploam: list[PloamMsg], tamap: Tamap) -> PcsFrame:
    tamap.validate()  # invalid map refuses construction
    return PcsFrame(tuple(ploam), tamap, mpdu.encode())


def parse_pcs_frame(data: bytes) -> PcsFrame:
    if len(data) < 1:
        raise FrameError("empty PCS frame")
    n_ploam = data[0]
    pos = 1
    ploams = []
    for _ in range(n_ploam):
        if len(data) < pos + PLOAM_FMT.size:
            raise FrameError("PLOAM messages truncated")
        ploams.append(PloamMsg.decode(data[pos:pos + PLOAM_FMT.size]))
        pos += PLOAM_FMT.size
    tamap, span = Tamap.decode(data[pos:])
    pos += span
    if len(data) < pos + 8:
        raise FrameError("short PCS trailer")
    payload_len, = struct.unpack(">I", data[pos:pos + 4])
    check, = struct.unpack(">I", data[pos + 4:pos + 8])
    header = data[:pos + 4]
    if zlib.crc32(header) & 0xFFFFFFFF != check:
        raise IntegrityError("PCS header check failed")
    payload = data[pos + 8:]
    if len(payload) != payload_len:
        raise FrameError(
            f"PCS payload length mismatch: field {payload_len}, got {len(payload)}")
    return PcsFrame(tuple(ploams), tamap, bytes(payload))


# ---------------------------------------------------------------------------
# PMA: scrambling and FEC parity

# Additive scrambler keystream from a 16-bit Fibonacci LFSR (taps 16,14,13,11).
_LFSR_SEED = 0xACE1


def _keystream(n: int) -> bytes:
    out = bytearray(n)
    state = _LFSR_SEED
    for i in range(n):
        byte = 0
        for _ in range(8):
            bit = ((state >> 0) ^ (state >> 2) ^ (state >> 3) ^ (state >> 5)) & 1
            state = (state >> 1) | (bit << 15)
            byte = (byte << 1) | (state & 1)
        out[i] = byte
    return bytes(out)


@functools.cache
def _keystream_period() -> bytes:
    """One 64 KiB period of the keystream, built on first use rather than
    at import, because a simulation run never scrambles a byte."""
    return _keystream(65536)


def _scramble(data: bytes) -> bytes:
    n = len(data)
    period = _keystream_period()
    ks = (period * (n // len(period) + 1))[:n]
    return (int.from_bytes(data, "big") ^ int.from_bytes(ks, "big")).to_bytes(n, "big") if n else b""


def pma_encode(data: bytes) -> bytes:
    """Scramble and append per-block parity at the modeled FEC overhead."""
    scrambled = _scramble(data)
    out = bytearray()
    for i in range(0, len(scrambled), FEC_DATA):
        block = scrambled[i:i + FEC_DATA]
        out += block
        out += hashlib.sha256(block).digest()[:FEC_PARITY]
    return bytes(out)


def pma_decode(data: bytes) -> bytes:
    """Verify and strip parity, then descramble. Raises on any mismatch."""
    scrambled = bytearray()
    pos = 0
    while pos < len(data):
        chunk = data[pos:pos + FEC_BLOCK]
        if len(chunk) <= FEC_PARITY:
            raise IntegrityError("truncated PMA stream")
        block, parity = chunk[:-FEC_PARITY], chunk[-FEC_PARITY:]
        if hashlib.sha256(block).digest()[:FEC_PARITY] != parity:
            raise IntegrityError("PMA parity mismatch")
        scrambled += block
        pos += len(chunk)
    return _scramble(bytes(scrambled))
