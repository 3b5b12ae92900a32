"""Discrete-event engine: integer-nanosecond clock, one ordered queue of
events and arrival heads, per-node RNG substreams and a deterministic trace
digest.

All simulation time is an integer count of nanoseconds since run start.
Events and arrivals are totally ordered by (time, insertion sequence number)
so two runs of the same scenario dispatch in exactly the same order on any
platform.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable

try:
    # the interpreter's own SHA-256: importing hashlib loads OpenSSL, which
    # costs more than the rest of the engine's imports
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

SimTime = int  # nanoseconds

NS_PER_S = 1_000_000_000


class SimError(RuntimeError):
    """Fatal logic error inside the simulation (e.g. scheduling in the past)."""


def transmit_time_ns(nbytes: int, rate_bps: int) -> int:
    """Serialization time of `nbytes` at `rate_bps`, rounded up to whole ns."""
    bits = nbytes * 8
    return -(-bits * NS_PER_S // rate_bps)


def draw_int(getrandbits: Callable[[int], int], hi: int) -> int:
    """The value `random.Random.randint(0, hi)` returns, drawn from the same
    bits: CPython draws `(hi + 1).bit_length()` bits and rejects values
    above `hi`, so a stream yields the same numbers through either call."""
    k = (hi + 1).bit_length()
    r = getrandbits(k)
    while r > hi:
        r = getrandbits(k)
    return r


# byte i of a word stream shifted right by 23 bits, for i = 1 mod 4: its
# low bit is the top bit of a word; 1 where that bit is 1 and the word's
# byte is rejected
_REJECTED = bytes(b & 1 for b in range(256))


def draw_bytes(getrandbits: Callable[[int], int], n: int) -> bytes:
    """The bytes that `n` calls of `draw_int(getrandbits, 255)` return,
    drawn from the same stream words, for a CPython `getrandbits`.

    Each of those calls is `getrandbits(9)`, the top 9 bits of one 32-bit
    word, kept when the word's top bit is 0: the byte is then bits 23..30
    of the word. `getrandbits(32 * m)` returns the next m words, the first
    in the lowest bits. Each round draws one word per byte still missing,
    so it never draws past the word of the last byte. The accepted bytes
    are kept in C: each word gives one UTF-16 code unit, its byte v plus
    256 if it is rejected, and encoding the units as Latin-1 drops every
    unit above 255.
    """
    out = bytearray()
    need = n
    while need:
        words = (getrandbits(32 * need) >> 23).to_bytes(4 * need, "little")
        units = bytearray(2 * need)
        units[::2] = words[::4]
        units[1::2] = words[1::4].translate(_REJECTED)
        out += units.decode("utf-16-le").encode("latin-1", "ignore")
        need = n - len(out)
    return bytes(out)


class Event:
    """The event a handler is called with.

    `Simulator.run_until` keeps one record and rewrites its four fields
    before each dispatch, so a handler must not keep `ev` after it returns:
    it copies the fields it needs.
    """

    __slots__ = ("fire_time", "seq", "target", "kind")

    def __init__(self, fire_time: SimTime, seq: int, target: str, kind: str):
        self.fire_time = fire_time
        self.seq = seq
        self.target = target
        self.kind = kind


class RngStreams:
    """Per-node RNG substreams split from a single master seed.

    The substream for a node depends only on (seed, node name), so adding or
    removing a node never perturbs another node's draw sequence.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def for_node(self, name: str) -> random.Random:
        rng = self._streams.get(name)
        if rng is None:
            material = sha256(f"{self.seed}:{name}".encode()).digest()
            rng = random.Random(int.from_bytes(material[:8], "big"))
            self._streams[name] = rng
        return rng


# digest lines hashed per update: 64 lines make the cost per line of an
# update small, and a run's peak memory no larger than with one update
# per line; 512 raised it by about 50 KiB
DIGEST_BATCH = 64


class Simulator:
    """Single-threaded event loop with a horizon and a dispatch digest.

    The queue is one heap, ordered by (time, seq). An event is a
    `(fire_time, seq, target, kind)` entry. `reserve` hands out a sequence
    number without pushing an event, so that an action the model applies
    later, without an event, keeps its place in that total order;
    `schedule_at` pushes an event at such a number.

    Arrivals are not events. The head of each arrival stream, its next
    arrival, is a `(time, seq, None, item)` entry of the same heap, pushed
    by `add_arrival`. `run_until` calls `on_arrival(time, item)` for each
    head it reaches; the callback returns the stream's next arrival time,
    which takes the next sequence number as the callback returns, or None
    when the stream ends. An arrival adds no digest line and counts in none
    of `n_scheduled`, `n_dispatched` and `n_beyond_horizon`.

    The digest is the SHA-256 of one `time|target|kind` line per dispatched
    event, fed in batches of at most `DIGEST_BATCH` lines.
    """

    def __init__(self, seed: int = 0):
        self.now: SimTime = 0
        self.rng = RngStreams(seed)
        # events and arrival heads; an arrival head's target is None
        self._queue: list[tuple[int, int, str | None, Any]] = []
        self.on_arrival: Callable[[SimTime, Any], SimTime | None] | None = None
        self._seq = 0
        self._handlers: dict[str, Callable[[Event], None]] = {}
        self._digest = sha256()
        # events pushed onto the queue
        self.n_scheduled = 0
        self.n_dispatched = 0
        self.n_beyond_horizon = 0

    def register(self, target: str, handler: Callable[[Event], None]) -> None:
        self._handlers[target] = handler

    def schedule(self, fire_time: SimTime, target: str, kind: str) -> None:
        """Push an event at the next sequence number."""
        seq = self._seq
        self._seq = seq + 1
        self.schedule_at(fire_time, seq, target, kind)

    def reserve(self) -> int:
        """The next sequence number, handed out without pushing an event."""
        seq = self._seq
        self._seq = seq + 1
        return seq

    def schedule_at(self, fire_time: SimTime, seq: int, target: str,
                    kind: str) -> None:
        """Push an event at a sequence number that `reserve` handed out."""
        if fire_time < self.now:
            raise SimError(
                f"attempt to schedule event '{kind}' for {target} at "
                f"t={fire_time} ns while clock is at t={self.now} ns")
        self.n_scheduled += 1
        heapq.heappush(self._queue, (fire_time, seq, target, kind))

    def add_arrival(self, time: SimTime, item: Any) -> None:
        """Push the head of an arrival stream at the next sequence number."""
        if time < self.now:
            raise SimError(
                f"attempt to add an arrival at t={time} ns while clock is "
                f"at t={self.now} ns")
        heapq.heappush(self._queue, (time, self.reserve(), None, item))

    def run_until(self, horizon: SimTime) -> str:
        """Dispatch every event, and run every arrival, with time <= horizon,
        in (time, seq) order; return the trace digest."""
        queue, handlers = self._queue, self._handlers
        pop, push = heapq.heappop, heapq.heappush
        feed, arrive = self._digest.update, self.on_arrival
        ev = Event(0, 0, "", "")
        lines: list[str] = []
        add, batch = lines.append, DIGEST_BATCH
        n = self.n_dispatched
        try:
            while queue and queue[0][0] <= horizon:
                t, seq, target, kind = pop(queue)
                if t < self.now:
                    raise SimError("clock regression detected")
                self.now = t
                if target is None:
                    # an arrival head: `kind` is the stream's item
                    nxt = arrive(t, kind)
                    if nxt is not None:
                        if nxt < t:
                            raise SimError(
                                f"attempt to add an arrival at t={nxt} ns "
                                f"while clock is at t={t} ns")
                        seq = self._seq
                        self._seq = seq + 1
                        push(queue, (nxt, seq, None, kind))
                    continue
                add(f"{t}|{target}|{kind}\n")
                if len(lines) == batch:
                    feed("".join(lines).encode())
                    lines.clear()
                handler = handlers.get(target)
                if handler is None:
                    raise SimError(
                        f"no handler registered for target '{target}'")
                ev.fire_time = t
                ev.seq = seq
                ev.target = target
                ev.kind = kind
                n += 1
                handler(ev)
        finally:
            self.n_dispatched = n
            if lines:
                feed("".join(lines).encode())
        self.now = horizon
        self.n_beyond_horizon = sum(e[2] is not None for e in queue)
        return self._digest.hexdigest()
