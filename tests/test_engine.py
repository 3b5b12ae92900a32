import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from fttrsim.engine import (DIGEST_BATCH, Event, Simulator, SimError,
                            RngStreams, draw_bytes, draw_int, transmit_time_ns,
                            NS_PER_S)


def collect(sim, horizon):
    seen = []

    def handler(ev):
        seen.append((sim.now, ev.target, ev.kind))

    return handler, seen


def test_events_dispatch_in_time_order():
    sim = Simulator()
    handler, seen = collect(sim, 100)
    sim.register("n", handler)
    sim.schedule(30, "n", "c")
    sim.schedule(10, "n", "a")
    sim.schedule(20, "n", "b")
    sim.run_until(100)
    assert [k for _, _, k in seen] == ["a", "b", "c"]
    assert [t for t, _, _ in seen] == [10, 20, 30]


def test_simultaneous_events_keep_insertion_order():
    sim = Simulator()
    handler, seen = collect(sim, 100)
    sim.register("n", handler)
    for kind in "abcde":
        sim.schedule(50, "n", kind)
    sim.run_until(100)
    assert [k for _, _, k in seen] == list("abcde")


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.register("n", lambda ev: sim.schedule(ev.fire_time - 1, "n", "late"))
    sim.schedule(10, "n", "x")
    with pytest.raises(SimError, match="'late' for n at t=9 ns"):
        sim.run_until(100)
    assert sim.n_scheduled == 1


def test_scheduling_at_a_reserved_seq_in_the_past_raises():
    sim = Simulator()
    sim.register("n", lambda ev: sim.schedule_at(ev.fire_time - 1,
                                                 sim.reserve(), "n", "late"))
    sim.schedule(10, "n", "x")
    with pytest.raises(SimError, match="'late' for n at t=9 ns"):
        sim.run_until(100)
    assert sim.n_scheduled == 1


def test_handler_can_schedule_followups():
    sim = Simulator()
    fired = []

    def handler(ev):
        fired.append(ev.kind)
        if ev.kind == "first":
            sim.schedule(sim.now + 5, "n", "second")

    sim.register("n", handler)
    sim.schedule(0, "n", "first")
    sim.run_until(100)
    assert fired == ["first", "second"]


def test_event_counters_are_conserved():
    sim = Simulator()
    sim.register("n", lambda ev: None)
    for t in (5, 10, 200, 300):
        sim.schedule(t, "n", "x")
    sim.run_until(100)
    assert sim.n_scheduled == 4
    assert sim.n_dispatched == 2
    assert sim.n_beyond_horizon == 2
    assert sim.n_scheduled == sim.n_dispatched + sim.n_beyond_horizon


def test_an_event_pushed_at_a_reserved_seq_keeps_its_place():
    sim = Simulator()
    handler, seen = collect(sim, 100)
    sim.register("n", handler)
    sim.schedule(10, "n", "a")
    seq = sim.reserve()
    sim.schedule(10, "n", "c")
    sim.schedule(5, "n", "first")
    sim.schedule_at(10, seq, "n", "b")
    sim.run_until(100)
    assert [k for _, _, k in seen] == ["first", "a", "b", "c"]


def test_reserved_seqs_count_as_scheduled_only_once_pushed():
    sim = Simulator()
    sim.register("n", lambda ev: None)
    pushed = sim.reserve()
    sim.reserve()  # never pushed
    for t in (5, 200):
        sim.schedule(t, "n", "x")
    sim.schedule_at(10, pushed, "n", "x")
    sim.run_until(100)
    assert sim.n_scheduled == 3
    assert sim.n_dispatched == 2
    assert sim.n_beyond_horizon == 1
    assert sim.n_scheduled == sim.n_dispatched + sim.n_beyond_horizon


def test_events_beyond_horizon_stay_queued():
    sim = Simulator()
    handler, seen = collect(sim, 100)
    sim.register("n", handler)
    sim.schedule(150, "n", "late")
    sim.run_until(100)
    assert seen == []
    assert sim.now == 100


def test_trace_digest_reproducible():
    def run():
        sim = Simulator(seed=4)
        sim.register("n", lambda ev: None)
        for t in (1, 2, 3, 7):
            sim.schedule(t, "n", f"k{t}")
        return sim.run_until(10)

    assert run() == run()


def test_trace_digest_sensitive_to_any_event():
    def run(extra):
        sim = Simulator(seed=4)
        sim.register("n", lambda ev: None)
        sim.schedule(1, "n", "a")
        if extra:
            sim.schedule(2, "n", "b")
        return sim.run_until(10)

    assert run(False) != run(True)


def test_trace_digest_hashes_every_dispatched_line_across_batches():
    # more than two flush batches, over two calls of run_until, with events
    # at shared times and on two targets
    sim = Simulator()
    sim.register("a", lambda ev: None)
    sim.register("b", lambda ev: None)
    n = 2 * DIGEST_BATCH + 77
    for i in range(n):
        sim.schedule(i // 3, "ab"[i % 2], f"k{i % 5}")
    lines = [f"{i // 3}|{'ab'[i % 2]}|k{i % 5}\n" for i in range(n)]
    sim.run_until(n // 6)
    digest = sim.run_until(n)
    assert sim.n_dispatched == n
    assert digest == hashlib.sha256("".join(lines).encode()).hexdigest()


def test_handlers_see_each_event_as_scheduled():
    sim = Simulator()
    seen = []

    def handler(ev):
        seen.append((ev.fire_time, ev.seq, ev.target, ev.kind))
        if ev.kind == "first":
            sim.schedule(sim.now, "y", "follow")

    sim.register("x", handler)
    sim.register("y", handler)
    sim.schedule(20, "y", "late")
    sim.schedule(10, "x", "first")
    sim.schedule(10, "x", "second")
    sim.run_until(100)
    assert seen == [(10, 1, "x", "first"), (10, 2, "x", "second"),
                    (10, 3, "y", "follow"), (20, 0, "y", "late")]


def test_dispatch_count_survives_a_raising_handler():
    sim = Simulator()

    def handler(ev):
        if ev.kind == "boom":
            raise ValueError("handler failed")

    sim.register("n", handler)
    for t, kind in [(1, "a"), (2, "b"), (3, "boom"), (4, "c")]:
        sim.schedule(t, "n", kind)
    with pytest.raises(ValueError):
        sim.run_until(10)
    # the raising event counts as dispatched; the one after it does not
    assert sim.n_dispatched == 3
    assert sim.n_scheduled == 4
    assert sim.now == 3


def test_missing_handler_is_fatal():
    sim = Simulator()
    sim.schedule(1, "ghost", "x")
    with pytest.raises(SimError):
        sim.run_until(10)


def arrivals(sim, seen, period=None):
    """Run each arrival as `(now, item)` into `seen`; with `period`, the
    stream's next arrival is `period` ns on."""
    def arrive(now, item):
        assert sim.now == now
        seen.append((now, item))
        return None if period is None else now + period
    sim.on_arrival = arrive


@pytest.mark.parametrize("head_first", [True, False])
def test_an_arrival_and_an_event_at_one_ns_run_in_seq_order(head_first):
    sim = Simulator()
    seen = []
    sim.register("n", lambda ev: seen.append((ev.fire_time, ev.kind)))
    arrivals(sim, seen)
    if head_first:
        sim.add_arrival(10, "head")
        sim.schedule(10, "n", "event")
    else:
        sim.schedule(10, "n", "event")
        sim.add_arrival(10, "head")
    sim.run_until(100)
    order = [(10, "head"), (10, "event")]
    assert seen == (order if head_first else order[::-1])


def test_an_arrival_takes_its_next_number_as_its_callback_returns():
    # the event the arrival schedules is numbered before the stream's next
    # arrival, so at one ns it runs first
    sim = Simulator()
    seen = []
    sim.register("n", lambda ev: seen.append((ev.fire_time, ev.kind)))

    def arrive(now, item):
        seen.append((now, item))
        if now == 0:
            sim.schedule(5, "n", "follow")
            return 5
        return None
    sim.on_arrival = arrive
    sim.add_arrival(0, "a")
    sim.run_until(100)
    assert seen == [(0, "a"), (5, "follow"), (5, "a")]


def test_an_arrival_after_the_horizon_is_not_run_or_counted():
    sim = Simulator()
    seen = []
    sim.register("n", lambda ev: None)
    arrivals(sim, seen, period=40)
    sim.add_arrival(30, "s")
    sim.add_arrival(100, "edge")
    sim.add_arrival(101, "late")
    sim.schedule(50, "n", "x")
    sim.run_until(100)
    # `s` runs at 30 and 70 and `edge` at the horizon; the heads at 101,
    # 110 and 140 stay
    assert seen == [(30, "s"), (70, "s"), (100, "edge")]
    assert sim.n_scheduled == sim.n_dispatched == 1
    assert sim.n_beyond_horizon == 0
    assert sim.now == 100


def test_an_arrival_whose_next_time_is_in_the_past_raises():
    sim = Simulator()
    sim.on_arrival = lambda now, item: now - 1
    sim.add_arrival(10, "s")
    with pytest.raises(SimError):
        sim.run_until(100)
    sim = Simulator()
    sim.register("n", lambda ev: None)
    sim.schedule(20, "n", "x")
    sim.run_until(30)
    with pytest.raises(SimError):
        sim.add_arrival(29, "s")


def test_arrivals_count_in_no_event_counter_and_add_no_digest_line():
    def run(with_arrivals):
        sim = Simulator()
        seen = []
        sim.register("n", lambda ev: None)
        arrivals(sim, seen, period=7)
        if with_arrivals:
            sim.add_arrival(0, "s")
            sim.add_arrival(3, "t")
        for t in (5, 10, 200, 300):
            sim.schedule(t, "n", "x")
        digest = sim.run_until(100)
        return sim, seen, digest

    sim, seen, digest = run(True)
    assert len(seen) == 29  # 15 of s, 14 of t
    assert sim.n_scheduled == 4
    assert sim.n_dispatched == 2
    assert sim.n_beyond_horizon == 2
    assert sim.n_scheduled == sim.n_dispatched + sim.n_beyond_horizon
    assert digest == run(False)[2]


class ListSimulator:
    """The engine's contract replayed on a plain list: each step takes the
    smallest (time, seq) entry, an event or an arrival head (target None)."""

    def __init__(self):
        self.now = 0
        self.seq = 0
        self.entries = []
        self.handlers = {}
        self.on_arrival = None
        self.lines = []
        self.n_scheduled = self.n_dispatched = self.n_beyond_horizon = 0

    def register(self, target, handler):
        self.handlers[target] = handler

    def reserve(self):
        self.seq += 1
        return self.seq - 1

    def schedule(self, fire_time, target, kind):
        self.schedule_at(fire_time, self.reserve(), target, kind)

    def schedule_at(self, fire_time, seq, target, kind):
        assert fire_time >= self.now
        self.n_scheduled += 1
        self.entries.append((fire_time, seq, target, kind))

    def add_arrival(self, time, item):
        assert time >= self.now
        self.entries.append((time, self.reserve(), None, item))

    def run_until(self, horizon):
        while (due := [e for e in self.entries if e[0] <= horizon]):
            entry = min(due)
            self.entries.remove(entry)
            t, seq, target, kind = entry
            self.now = t
            if target is None:
                nxt = self.on_arrival(t, kind)
                if nxt is not None:
                    self.entries.append((nxt, self.reserve(), None, kind))
            else:
                self.lines.append(f"{t}|{target}|{kind}\n")
                self.n_dispatched += 1
                self.handlers[target](Event(t, seq, target, kind))
        self.now = horizon
        self.n_beyond_horizon = sum(e[2] is not None for e in self.entries)
        return hashlib.sha256("".join(self.lines).encode()).hexdigest()


GRID = 10  # ns: a coarse grid, so that many entries share a time
grid_times = st.integers(0, 12).map(lambda k: k * GRID)


@st.composite
def engine_runs(draw):
    """Setup steps in drawn order: up to 6 arrival streams (`periodic`,
    `ending` after `count` arrivals, or `primed` with every head added up
    front) and up to 10 events, pushed by `schedule` or by `schedule_at` at
    a number reserved in setup order; the follow-up actions that arrivals
    and handlers take, one per step while they last; a spare pool of
    reserved numbers, and the two horizons of `run_until`."""
    streams = draw(st.lists(st.tuples(
        st.sampled_from(["periodic", "ending", "primed"]), grid_times,
        st.integers(1, 3).map(lambda k: k * GRID), st.integers(1, 4)),
        max_size=6))
    events = draw(st.lists(st.tuples(grid_times, st.booleans(),
                                     st.sampled_from("ab")), max_size=10))
    steps = draw(st.permutations([("stream", i) for i in range(len(streams))]
                                 + [("event", i) for i in range(len(events))]))
    follow = draw(st.lists(st.one_of(
        st.none(), st.tuples(st.sampled_from(["schedule", "pooled"]),
                             st.integers(0, 3).map(lambda k: k * GRID))),
        max_size=12))
    spare = draw(st.integers(0, 3))
    horizon = draw(grid_times)
    cut = draw(st.integers(0, horizon))
    return streams, events, steps, follow, spare, cut, horizon


def replay(sim, streams, events, steps, follow, spare, cut, horizon):
    """Set `sim` up from one drawn run and run it; return the run order
    (what ran, and `now` at each step), the counters and the digest."""
    order, actions, ran = [], list(reversed(follow)), [0] * len(streams)
    pool = [sim.reserve() for _ in range(spare)]

    def act(now):
        # arrivals and handlers schedule further events
        action = actions.pop() if actions else None
        if action is not None:
            how, delta = action
            if how == "pooled" and pool:
                sim.schedule_at(now + delta, pool.pop(), "b", "pooled")
            else:
                sim.schedule(now + delta, "a", "follow")

    def handler(ev):
        order.append((sim.now, ev.fire_time, ev.seq, ev.target, ev.kind))
        act(sim.now)

    def arrive(now, item):
        order.append((sim.now, now, item))
        act(now)
        i = item[0]
        ran[i] += 1
        mode, _, period, count = streams[i]
        if mode == "periodic" or (mode == "ending" and ran[i] < count):
            return now + period
        return None

    sim.register("a", handler)
    sim.register("b", handler)
    sim.on_arrival = arrive
    reserved = []
    for what, i in steps:
        if what == "stream":
            mode, start, period, count = streams[i]
            for k in range(count if mode == "primed" else 1):
                sim.add_arrival(start + k * period, (i, k))
        else:
            t, at_reserved, target = events[i]
            if at_reserved:
                reserved.append((t, sim.reserve(), target, f"e{i}"))
            else:
                sim.schedule(t, target, f"e{i}")
    for t, seq, target, kind in reversed(reserved):
        sim.schedule_at(t, seq, target, kind)
    sim.run_until(cut)
    digest = sim.run_until(horizon)
    return (order, sim.now, sim.n_scheduled, sim.n_dispatched,
            sim.n_beyond_horizon, digest)


@settings(max_examples=200, deadline=None)
@given(run=engine_runs())
def test_the_one_queue_runs_in_the_order_of_a_plain_list(run):
    assert replay(Simulator(), *run) == replay(ListSimulator(), *run)


def test_rng_substream_depends_only_on_seed_and_name():
    a = RngStreams(1).for_node("room1")
    b = RngStreams(1).for_node("room1")
    assert [a.randint(0, 1000) for _ in range(20)] == \
           [b.randint(0, 1000) for _ in range(20)]


def test_rng_substreams_are_isolated():
    lone = RngStreams(1).for_node("room1").randint(0, 10**9)
    # drawing from another node's stream first must not move room1's sequence
    shared = RngStreams(1)
    shared.for_node("room2").randint(0, 10**9)
    assert shared.for_node("room1").randint(0, 10**9) == lone


def test_serialization_time_rounds_up():
    assert transmit_time_ns(125, NS_PER_S) == 1000  # 1000 bits at 1 Gb/s
    assert transmit_time_ns(1, NS_PER_S) == 8
    # 8 bits at 3 bit/s = 2.666... s, rounded up to the next nanosecond
    assert transmit_time_ns(1, 3) == 2_666_666_667


CONTENTION_WINDOWS = [2 ** k - 1 for k in range(4, 11)]   # 15, 31, ..., 1023


@pytest.mark.parametrize("seed", [1, 7, 2 ** 40 + 3])
def test_draw_int_matches_randint_for_every_contention_window(seed):
    for cw in CONTENTION_WINDOWS:
        ref, rng = random.Random(seed), random.Random(seed)
        assert [draw_int(rng.getrandbits, cw) for _ in range(10_000)] == \
               [ref.randint(0, cw) for _ in range(10_000)]


@pytest.mark.parametrize("seed", [1, 7, 2 ** 40 + 3])
def test_draw_int_matches_randrange_for_bytes(seed):
    ref, rng = random.Random(seed), random.Random(seed)
    assert [draw_int(rng.getrandbits, 255) for _ in range(10_000)] == \
           [ref.randrange(256) for _ in range(10_000)]


def test_draw_int_matches_randint_when_the_window_changes_between_draws():
    # a CSMA stream doubles and resets its window between draws
    windows = random.Random(0).choices(CONTENTION_WINDOWS, k=10_000)
    ref, rng = random.Random(3), random.Random(3)
    assert [draw_int(rng.getrandbits, cw) for cw in windows] == \
           [ref.randint(0, cw) for cw in windows]


@given(seed=st.integers(0, 2 ** 64), n=st.integers(0, 5000),
       cuts=st.lists(st.integers(0, 5000), max_size=8))
def test_draw_bytes_matches_draw_int_and_randrange(seed, n, cuts):
    # the same bytes from the same words, whole or split into chunks, and
    # the stream is left where the byte-by-byte draws leave it
    whole, chunked, by_draw_int, by_randrange = (random.Random(seed)
                                                 for _ in range(4))
    bounds = [0, *sorted(c % (n + 1) for c in cuts), n]
    expected = bytes(draw_int(by_draw_int.getrandbits, 255)
                     for _ in range(n))
    assert expected == bytes(by_randrange.randrange(256) for _ in range(n))
    assert draw_bytes(whole.getrandbits, n) == expected
    assert b"".join(draw_bytes(chunked.getrandbits, b - a)
                    for a, b in zip(bounds, bounds[1:])) == expected
    assert len({rng.getrandbits(64) for rng in (
        whole, chunked, by_draw_int, by_randrange)}) == 1
