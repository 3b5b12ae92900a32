"""The `config` pin of every shipped scenario in every mode, checked
from a parse alone, without a run.

The pin is the sha256 of `canonical`'s dump of the parsed `ScenarioConfig`
(tools/repin.py), stored in tests/data/pins.json with the case's output
pins. A change to the scenario schema that is meant to parse every shipped
file as before leaves these unchanged.
"""

import json

import pytest

from diffcheck import MODES, SCENARIOS
from fttrsim.scenario import load_scenario
from repin import PINS, config_hash

STORED = json.loads(PINS.read_text())
SHIPPED = [(path.stem, mode) for path in sorted(SCENARIOS.glob("*.yaml"))
           for mode in MODES]


@pytest.mark.parametrize("name,mode", SHIPPED)
def test_parsed_config_matches_pin(name, mode):
    cfg = load_scenario(SCENARIOS / f"{name}.yaml", {"mode": mode})
    assert config_hash(cfg) == STORED[f"{name}/{mode}"]["config"]


def test_every_shipped_scenario_and_mode_is_pinned():
    assert all("config" in STORED[f"{name}/{mode}"]
               for name, mode in SHIPPED)
