"""Host-speed calibration kernel.

On a shared 2-vCPU virtual machine the host's speed changes by up to 1.7x,
in spells of a fraction of a second to minutes, while CPU time stays equal
to wall time; raw host seconds from two runs are then not comparable.
``kernel()`` is a fixed, deterministic, pure-Python miniature event loop
(heap-ordered events, dict dispatch, attribute access, a per-event digest
update, small sorted lists): the same kind of interpreter work as the
simulator, sharing no code with it, so no change to the simulator can
change it. Timed right before and right after a measured span it gives the
host's speed during that span, and ``scale`` gives the factor that turns
the span into the time it would take on a reference host on which one
kernel call takes ``REFERENCE_KERNEL_S``.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import time

# one kernel call on the reference host: the median on an otherwise idle
# 2-vCPU x86-64 virtual machine with CPython 3.11
REFERENCE_KERNEL_S = 0.03
KERNEL_EVENTS = 12_000


class _Event:
    __slots__ = ("at", "target", "kind", "size")

    def __init__(self, at: int, target: str, kind: str, size: int):
        self.at = at
        self.target = target
        self.kind = kind
        self.size = size


def kernel() -> str:
    """Dispatch ``KERNEL_EVENTS`` events of a fixed synthetic model; return
    its digest (so the work cannot be skipped)."""
    heap: list = []
    queues: dict[str, list[int]] = {f"n{i}": [] for i in range(16)}
    served: dict[str, int] = dict.fromkeys(queues, 0)
    digest = hashlib.sha256()
    lcg = 12345
    seq = 0
    for i, name in enumerate(queues):
        heapq.heappush(heap, (i, seq, _Event(i, name, "arrive", 1500)))
        seq += 1
    for _ in range(KERNEL_EVENTS):
        at, _, ev = heapq.heappop(heap)
        digest.update(f"{at}|{ev.target}|{ev.kind}\n".encode())
        lcg = (lcg * 1103515245 + 12345) & 0x7FFFFFFF
        q = queues[ev.target]
        if ev.kind == "arrive":
            q.append(ev.size)
            q.sort()
            nxt = _Event(at + 50 + lcg % 400, ev.target, "arrive",
                         1500 + lcg % 3500)
        else:
            if q:
                served[ev.target] += q.pop(0)
            nxt = _Event(at + 100 + lcg % 300, ev.target,
                         "arrive" if len(q) < 4 else "serve", ev.size)
        heapq.heappush(heap, (nxt.at, seq, nxt))
        seq += 1
        if lcg % 3 == 0:
            heapq.heappush(heap, (at + lcg % 200, seq,
                                  _Event(at + lcg % 200, ev.target, "serve", 0)))
            seq += 1
    return digest.hexdigest()


def kernel_s() -> float:
    """Host seconds of one kernel call now.

    Garbage left by the measured span is collected first and the collector
    is off during the call, so that only the host's speed is timed."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scale(kernel_before_s: float, kernel_after_s: float) -> float:
    """Factor from host seconds to reference-host seconds for a span,
    given the kernel times measured right before and right after it."""
    return 2 * REFERENCE_KERNEL_S / (kernel_before_s + kernel_after_s)
