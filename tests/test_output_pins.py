"""Output pins: every shipped scenario at its own seed and every scenario of
tests/data/runs/, each in every mode, against tests/data/pins.json.

A pin is one case's `diffcheck.record` without its numbers, plus the hash
of its parsed config (`pins` in tools/repin.py). `digest` and `events` (the
`events_*` counters) are its event fields; the rest are model fields:
`summary` (summary.json without the event fields), `flows`, `schedule`,
`events_log` and `ledgers` (the MFU's commands and every node's power
records), `config` and the run's other records. A change that is only about
performance leaves every pin unchanged. A change to how events are
scheduled may move the event fields, which only `test_outputs_match_pin`
checks for a shipped scenario. A change to the model re-pins with
`python3 tools/repin.py`, in a commit of its own, and says in CHANGES.md
which numbers moved.

`golden` and `ofdma_uplink_burst` end with `SimError` in `phy_relay` mode:
their relayed bursts are longer than the room between two OMCI windows
(see `tests/test_cli.py`). Their pin is the `exit` record, the exit code
and message.
"""

import json

import pytest

from diffcheck import MODES, RUNS, SCENARIOS, compare, scenario_dicts
from fttrsim.energy import PowerState
from fttrsim.scenario import parse_scenario
from fttrsim.simulation import run_scenario_config
from repin import PINS, dumps, pins

STORED = json.loads(PINS.read_text())
SHIPPED = [(path.stem, mode) for path in sorted(SCENARIOS.glob("*.yaml"))
           for mode in MODES]
RUN_DICTS = scenario_dicts(RUNS)
RUN_CASES = [(name, mode) for name in RUN_DICTS for mode in MODES]


@pytest.fixture(scope="module")
def computed():
    return pins()


def differences(computed: dict, name: str, mode: str) -> dict:
    case = f"{name}/{mode}"
    return compare({case: STORED[case]}, {case: computed[case]})


def assert_no_event_cancelled(pin: dict):
    # every scheduled event either fired or is still queued past the horizon
    if "events" in pin:
        events = json.loads(pin["events"])
        assert events["events_scheduled"] == (
            events["events_dispatched"] + events["events_beyond_horizon"])


def test_pins_match_the_stored_file(computed):
    assert compare(STORED, computed) == {"model": [], "events": []}
    assert sorted(computed) == sorted(STORED)
    assert dumps(computed) == PINS.read_text()


def test_pins_cover_every_shipped_scenario():
    assert set(STORED) == {f"{name}/{mode}"
                           for name, mode in SHIPPED + RUN_CASES}


@pytest.mark.parametrize("name,mode", SHIPPED)
def test_model_outputs_match_pin(computed, name, mode):
    assert differences(computed, name, mode)["model"] == []


@pytest.mark.parametrize("name,mode", SHIPPED)
def test_outputs_match_pin(computed, name, mode):
    assert differences(computed, name, mode)["events"] == []
    assert_no_event_cancelled(computed[f"{name}/{mode}"])


@pytest.mark.parametrize("name,mode", RUN_CASES)
def test_run_outputs_match_pin(computed, name, mode):
    assert differences(computed, name, mode) == {"model": [], "events": []}
    assert_no_event_cancelled(computed[f"{name}/{mode}"])


def _run(name: str, mode: str):
    return run_scenario_config(parse_scenario(RUN_DICTS[name],
                                              {"mode": mode}))


def test_run_pins_reach_what_the_shipped_pins_miss():
    for name, raw in RUN_DICTS.items():
        assert raw["name"] == name
    sleep = _run("sleep_deep_wake", "centralized")
    kinds = [kind for _, kind, _ in sleep.events]
    assert "deep_sleep_command" in kinds
    assert sleep.rejected_transitions > 0
    # a deep-sleep interval that ends before the horizon ends in a wake
    assert any(state == PowerState.DEEP_SLEEP and end < 60_000_000
               for ledger in sleep.ledgers.values()
               for state, _, end in ledger.records)
    storm = _run("storm_kill_bursts", "centralized")
    assert any(a.kind.value == "Unresponsive" for a in storm.alarms)
    targets = RUN_DICTS["storm_kill_bursts"]["management"]["storm"]["targets"]
    assert len(set(targets)) >= 2
    assert 0 in storm.bursts and max(storm.bursts) > 0
    iot = _run("iot_rf_off_overflow", "centralized")
    # traffic returns the IoT room from RF_OFF straight to ACTIVE
    states = [state for state, _, _ in iot.ledgers["i"].records]
    assert any(a == PowerState.RF_OFF and b == PowerState.ACTIVE
               for a, b in zip(states, states[1:]))
    assert iot.sleep_drops > 0
    # one flow per room, so an overflow drop is charged to the flow whose
    # frame it was whichever frame is dropped
    flows = RUN_DICTS["iot_rf_off_overflow"]["flows"]
    assert len({f["dst"] for f in flows}) == len(flows)
