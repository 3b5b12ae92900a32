from random import Random

import pytest
from hypothesis import example, given, strategies as st

from fttrsim.energy import (PowerState, PowerProfile, PowerMachine,
                            EnergyLedger, LedgerError, select_policy,
                            SleepBuffer, ftth_baseline_joules, merge_spans,
                            LEGAL_TRANSITIONS)
from fttrsim.engine import NS_PER_S

WATTS = {PowerState.ACTIVE: 4.5, PowerState.IDLE: 3.0,
         PowerState.RF_OFF: 2.0, PowerState.LIGHT_SLEEP: 1.0,
         PowerState.DEEP_SLEEP: 0.3}


# ---------------------------------------------------------------------------
# state machine

def test_sleep_descent_and_wake_path_is_legal():
    m = PowerMachine("r")
    path = [(PowerState.IDLE, 10), (PowerState.LIGHT_SLEEP, 20),
            (PowerState.DEEP_SLEEP, 30), (PowerState.IDLE, 40),
            (PowerState.ACTIVE, 50)]
    for state, t in path:
        assert m.request(state, t)
    assert m.rejected == 0


def test_active_cannot_jump_straight_to_deep_sleep():
    m = PowerMachine("r")
    assert not m.request(PowerState.DEEP_SLEEP, 10)
    assert not m.request(PowerState.LIGHT_SLEEP, 10)
    assert m.rejected == 2
    assert m.state is PowerState.ACTIVE


def test_same_state_request_is_a_noop():
    m = PowerMachine("r")
    assert not m.request(PowerState.ACTIVE, 10)
    assert m.rejected == 0
    assert m.ledger.records == []


def test_every_declared_transition_is_reachable():
    for src, dsts in LEGAL_TRANSITIONS.items():
        for dst in dsts:
            ledger = EnergyLedger("r", src)
            m = PowerMachine("r")
            m.ledger = ledger
            assert m.request(dst, 5)


# ---------------------------------------------------------------------------
# idle timer fold

A, I = PowerState.ACTIVE, PowerState.IDLE


def test_an_activity_at_the_idle_instant_keeps_the_unit_active():
    # at one instant an activity beats the idle timer: no zero-length IDLE
    m = PowerMachine("r", t_act_idle_ns=100)
    for t in (100, 200, 300):
        m.active(t)
    m.active(450)
    m.settle(1000)
    assert m.ledger.records == [(A, 0, 400), (I, 400, 450), (A, 450, 550)]
    assert m.state is I and m.rejected == 0


@pytest.mark.parametrize("state", [PowerState.IDLE, PowerState.RF_OFF])
def test_traffic_takes_an_idle_or_rf_off_unit_active(state):
    m = PowerMachine("r", state, t_act_idle_ns=100)
    m.active(40)
    assert m.ledger.records == [(state, 0, 40)]
    assert (m.state, m.idle_at, m.rejected) == (A, 140, 0)


@pytest.mark.parametrize("state", [PowerState.LIGHT_SLEEP,
                                   PowerState.DEEP_SLEEP])
def test_traffic_moves_a_sleeping_units_timer_but_not_its_state(state):
    m = PowerMachine("r", state, t_act_idle_ns=100)
    m.active(40)
    m.settle(1000)
    assert m.ledger.records == []
    assert (m.state, m.idle_at, m.rejected) == (state, 140, 0)


@pytest.mark.parametrize("t,records", [
    (99, []),                 # never later than the timer
    (100, [(A, 0, 100)]),     # at the instant the timer runs out
    (250, [(A, 0, 100)]),     # at the timer's end, not at t
])
def test_settle_records_the_idle_of_a_timer_run_out_by_t(t, records):
    m = PowerMachine("r", t_act_idle_ns=100)
    m.settle(t)
    assert m.ledger.records == records
    assert m.state is (I if records else A)


def test_a_timer_ending_at_the_horizon_leaves_a_zero_length_idle():
    m = PowerMachine("r", t_act_idle_ns=100)
    for t in (100, 200, 300, 400):
        m.active(t)
    m.settle(500)
    m.ledger.close(500)
    m.ledger.check_tiling(500)
    assert m.ledger.records == [(A, 0, 500), (I, 500, 500)]


# ---------------------------------------------------------------------------
# ledger

def test_ledger_tiles_horizon_exactly():
    led = EnergyLedger("r", PowerState.ACTIVE)
    led.transition(PowerState.IDLE, 100)
    led.transition(PowerState.LIGHT_SLEEP, 250)
    led.close(1000)
    led.check_tiling(1000)
    assert led.records == [(PowerState.ACTIVE, 0, 100),
                           (PowerState.IDLE, 100, 250),
                           (PowerState.LIGHT_SLEEP, 250, 1000)]


def test_ledger_gap_is_fatal():
    led = EnergyLedger("r", PowerState.ACTIVE)
    led.close(1000)
    led.records.append((PowerState.IDLE, 1500, 2000))
    with pytest.raises(LedgerError):
        led.check_tiling(2000)


def test_ledger_must_cover_full_horizon():
    led = EnergyLedger("r", PowerState.ACTIVE)
    led.close(900)
    with pytest.raises(LedgerError):
        led.check_tiling(1000)


def test_ledger_rejects_time_regression():
    led = EnergyLedger("r", PowerState.ACTIVE)
    led.transition(PowerState.IDLE, 100)
    with pytest.raises(LedgerError):
        led.transition(PowerState.ACTIVE, 50)


def test_joules_is_interval_sum():
    led = EnergyLedger("r", PowerState.ACTIVE)
    led.transition(PowerState.IDLE, 100_000_000)       # 0.1 s active
    led.close(1_000_000_000)                           # 0.9 s idle
    profile = PowerProfile(watts=WATTS)
    assert led.joules(profile) == pytest.approx(4.5 * 0.1 + 3.0 * 0.9,
                                                rel=1e-12)
    assert led.residency_ns() == {"active": 100_000_000, "idle": 900_000_000}


def test_profile_power_ordering_enforced():
    bad = dict(WATTS)
    bad[PowerState.DEEP_SLEEP] = 5.0
    with pytest.raises(ValueError):
        PowerProfile(watts=bad).validate()
    with pytest.raises(ValueError):
        PowerProfile(watts={PowerState.ACTIVE: 0.0}).validate()
    PowerProfile(watts=WATTS).validate()


# ---------------------------------------------------------------------------
# sleep rule

SHORT_IDLE_NS = 10 * NS_PER_S
LONG_IDLE_NS = 60 * NS_PER_S


def reference_policy(load_class, services, user_activity, idle_ns):
    """The strategy table the sleep rule replaced, kept as its reference:
    it maps scenario features to one of rf_off, tx_power_adjust,
    light_sleep or deep_sleep."""
    iot = "iot" in services
    low_activity = load_class in ("idle", "background") and not user_activity
    if iot and low_activity:
        return "rf_off"
    if load_class == "moderate":
        return "tx_power_adjust"
    if idle_ns >= LONG_IDLE_NS and not iot:
        return "deep_sleep"
    if idle_ns >= SHORT_IDLE_NS and not iot:
        return "light_sleep"
    return "light_sleep" if not iot else "rf_off"


def test_iot_host_deactivates_radio_instead_of_sleeping():
    assert select_policy(True) is PowerState.RF_OFF
    assert select_policy(False) is PowerState.LIGHT_SLEEP


# a sleep check runs only after t_act_idle + t_idle_sleep without traffic,
# so a run asks about an idle room with no user activity, with or without
# a resident IoT device, after any idle time
@given(iot=st.booleans(),
       idle_ns=st.integers(min_value=0) | st.sampled_from(
           [SHORT_IDLE_NS - 1, SHORT_IDLE_NS, LONG_IDLE_NS - 1, LONG_IDLE_NS]))
def test_sleep_rule_matches_the_table_on_every_input_a_run_gives(iot, idle_ns):
    table = reference_policy("idle", frozenset({"iot"}) if iot else frozenset(),
                             False, idle_ns)
    # a run turned every answer but rf_off into a light-sleep report; deep
    # sleep comes only from the MFU's command
    assert select_policy(iot) is (PowerState.RF_OFF if table == "rf_off"
                                  else PowerState.LIGHT_SLEEP)


# ---------------------------------------------------------------------------
# sleep buffer

def test_overflow_drops_match_excess_arithmetic():
    for capacity, pushed in [(4, 7), (10, 10), (1, 5), (100, 3)]:
        buf = SleepBuffer(capacity)
        dropped = [f for f in map(buf.push, range(pushed)) if f is not None]
        assert len(dropped) == max(0, pushed - capacity)
        kept = buf.flush()
        assert kept == list(range(max(0, pushed - capacity), pushed))
        assert buf.frames == []


def test_oldest_frames_are_dropped_first():
    buf = SleepBuffer(2)
    # push hands back the frame it drops, so its own flow can be charged
    assert [buf.push(i) for i in range(4)] == [None, None, 0, 1]
    assert buf.flush() == [2, 3]


# ---------------------------------------------------------------------------
# single-gateway reference

def test_reference_merges_spans_and_applies_hold_down():
    # two overlapping spans plus a distant one, 10 ns hold each
    spans = [(0, 100), (50, 200), (500, 600)]
    j = ftth_baseline_joules(spans, horizon=1000, active_w=2.0, idle_w=1.0,
                             hold_ns=10)
    # merged active time: [0,210) and [500,610) = 320 ns
    assert j == pytest.approx((320 * 2.0 + 680 * 1.0) / 1e9, rel=1e-12)


def test_reference_hold_clamped_at_horizon():
    j = ftth_baseline_joules([(900, 1000)], horizon=1000, active_w=2.0,
                             idle_w=1.0, hold_ns=500)
    assert j == pytest.approx((100 * 2.0 + 900 * 1.0) / 1e9, rel=1e-12)


def test_reference_with_no_traffic_is_all_idle():
    j = ftth_baseline_joules([], horizon=1_000_000_000, active_w=13.0,
                             idle_w=12.0, hold_ns=0)
    assert j == pytest.approx(12.0, rel=1e-12)


# spans on a small grid, so that overlapping and touching spans are common
span_lists = st.lists(
    st.tuples(st.integers(0, 300), st.integers(0, 40)).map(
        lambda p: (p[0], p[0] + p[1])),
    max_size=60)


@given(spans=span_lists, chunk=st.integers(1, 16), order=st.randoms(),
       hold_ns=st.integers(0, 50), horizon=st.integers(0, 400))
@example(spans=[(0, 10), (10, 20), (30, 40), (5, 8)], chunk=1,
         order=Random(0), hold_ns=5, horizon=100)
def test_spans_merged_in_chunks_give_the_same_reference(spans, chunk, order,
                                                        hold_ns, horizon):
    shuffled = list(spans)
    order.shuffle(shuffled)
    merged: list = []
    for i in range(0, len(shuffled), chunk):
        merged = merge_spans(merged + shuffled[i:i + chunk])
    # sorted, and no two spans overlap or touch
    assert all(a[1] < b[0] for a, b in zip(merged, merged[1:]))
    assert all(start <= end for start, end in merged)
    # reference: count the covered nanoseconds one by one
    active_ns = sum(any(start <= t < end + hold_ns for start, end in spans)
                    for t in range(horizon))
    expected = (active_ns * 2.0 + (horizon - active_ns) * 1.0) / 1e9
    assert ftth_baseline_joules(merged, horizon, 2.0, 1.0, hold_ns) == expected
    assert ftth_baseline_joules(spans, horizon, 2.0, 1.0, hold_ns) == expected


def test_merge_folds_overlapping_and_touching_spans():
    assert merge_spans([(30, 40), (0, 10), (10, 20), (5, 8), (41, 50)]) == [
        (0, 20), (30, 40), (41, 50)]
