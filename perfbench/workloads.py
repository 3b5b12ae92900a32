"""Scenario generators for the benchmark workloads.

Each workload is a sweep of scenario instances of one shape. The whole sweep
is a pure function of the benchmark's --seed argument: instance i is drawn
from ``random.Random(f"{key}:{seed}:{i}")``. The simulator only ever
receives the resulting scenario dicts; the instance's own ``seed`` field is
drawn from the same generator.
"""

from __future__ import annotations

import random

# Instances in one sweep pass. A run repeats the pass until its time is up.
SWEEP_SIZE = 3

SERVICE_CLASSES = ("control", "video", "gaming", "background", "iot")


def _ring(names: list[str]) -> list[list[str]]:
    return [[names[i], names[(i + 1) % len(names)]] for i in range(len(names))]


def downlink(rng: random.Random, mode: str) -> dict:
    """32-room conflict ring, one constant-rate downlink flow per room.

    Frames of 1.5-5 kB with mixed priorities and service classes. Each room
    offers 280-320 frames/s (3.4-12.8 Mb/s), so the number of events per
    simulated second hardly varies between seeds; that keeps the centralized
    grant schedule well below saturation, while the single CSMA/CA domain
    that the ring forms in distributed mode saturates.
    """
    rooms = [f"room{i:02d}" for i in range(32)]
    flows = []
    for room in rooms:
        size = rng.randint(1500, 5000)
        flows.append({
            "name": f"dl_{room}",
            "dst": room,
            "service_class": rng.choice(SERVICE_CLASSES),
            "priority": rng.randint(0, 7),
            "size_bytes": size,
            "model": "constant_rate",
            "rate_mbps": round(size * 8 * rng.uniform(280, 320) / 1e6, 3),
            "start_ms": round(rng.uniform(0.0, 2.0), 3),
        })
    return {
        "name": f"ring32_{mode}",
        "seed": rng.randrange(1, 2**31),
        "horizon_ms": 1000,
        "mode": mode,
        "topology": {"sfus": rooms, "conflicts": _ring(rooms)},
        "flows": flows,
        "energy": {"savings_enabled": False},
    }


def control_plane(rng: random.Random) -> dict:
    """8 rooms exercising OMCI, the upstream calendar, liveness and sleep.

    - an OMCI storm with one message per 250 us allocation cycle for the
      whole horizon, so the management slot is never idle
    - periodic OFDMA uplink bursts from every room, even rooms coordinated
    - the IoT-resident room killed at 30 % of the horizon and recovered at
      60 %, under 100 ms liveness polls
    - energy saving on with sparse on_off downlink, so rooms fall to light
      and deep sleep and are woken by buffered frames
    """
    rooms = [f"room{i}" for i in range(8)]
    horizon_ms = 2000
    alloc_cycle_us = 250
    # a fixed multiset of burst periods, so the burst rate is the same for
    # every seed
    periods = [2000, 2000, 2500, 2500, 4000, 4000, 5000, 5000]
    rng.shuffle(periods)
    bursts = [{
        "sfu": room,
        "period_us": periods[i],
        "air_duration_us": rng.randint(50, 150),
        "start_ms": round(rng.uniform(0.0, 5.0), 3),
        "coordinated": i % 2 == 0,
        "rus": [{"sta": f"sta{j}", "bytes": rng.randint(200, 1200)}
                for j in range(rng.randint(2, 4))],
    } for i, room in enumerate(rooms)]
    flows = [{
        "name": f"dl_{room}",
        "dst": room,
        "service_class": rng.choice(SERVICE_CLASSES),
        "priority": rng.randint(0, 7),
        "size_bytes": rng.randint(1500, 5000),
        "model": "on_off",
        "rate_mbps": round(rng.uniform(2.0, 8.0), 3),
        "on_ms": rng.randint(5, 20),
        "off_ms": rng.randint(600, 1400),
        "start_ms": round(rng.uniform(0.0, 300.0), 3),
    } for room in rooms]
    return {
        "name": "control8",
        "seed": rng.randrange(1, 2**31),
        "horizon_ms": horizon_ms,
        "mode": "centralized",
        "topology": {"sfus": rooms[:-1] + [{"name": rooms[-1],
                                             "iot_resident": True}],
                     "conflicts": _ring(rooms)},
        "control": {"alloc_cycle_us": alloc_cycle_us},
        "flows": flows,
        "uplink_bursts": bursts,
        "management": {
            "poll_cycle_ms": 100,
            "k_miss": 2,
            "storm": {"count": horizon_ms * 1000 // alloc_cycle_us + 16,
                      "entity_class": 257, "content_bytes": 16},
            # the IoT room never announces sleep, so its silence always
            # raises the Unresponsive alarm
            "kill": {"sfu": rooms[-1], "at_ms": 0.3 * horizon_ms,
                     "recover_ms": 0.6 * horizon_ms},
        },
        "energy": {"savings_enabled": True, "t_act_idle_ms": 100,
                   "t_idle_sleep_ms": 150},
    }


WORKLOADS = {
    "downlink_grants": lambda rng: downlink(rng, "centralized"),
    "downlink_csma": lambda rng: downlink(rng, "distributed"),
    "control_plane": control_plane,
}


def sweep(workload: str, seed: int) -> list[dict]:
    """The scenario dicts of one sweep pass, fixed by (workload, seed).

    The two downlink workloads draw from the same generator key, so they
    share rooms, flows and instance seeds and differ only in ``mode``.
    """
    key = "downlink" if workload.startswith("downlink") else workload
    make = WORKLOADS[workload]
    return [make(random.Random(f"{key}:{seed}:{i}"))
            for i in range(SWEEP_SIZE)]
