"""Config pins for every shipped scenario in all four modes.

Each pin is the sha256 of a canonical dump of the parsed `ScenarioConfig`:
record fields sorted by name, sets and mappings sorted, and every value
kept with its type name. It catches drift in fields that no output pin can
see, such as `min_slot_ns` or `dump_schedule`, and an int read as a float
or the other way round. A change to the scenario schema that is meant to
parse every shipped file as before leaves these unchanged.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fttrsim.scenario import _Record, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
MODES = ("centralized", "distributed", "mac_integrated", "phy_relay")


def canonical(value):
    """A JSON-able dump of `value` that keeps every type name."""
    kind = type(value).__name__
    # a scenario section by its annotated fields, a named tuple by _fields
    names = (type(value).__annotations__ if isinstance(value, _Record)
             else getattr(value, "_fields", None))
    if names is not None:
        return [kind, {name: canonical(getattr(value, name))
                       for name in names}]
    if isinstance(value, (set, frozenset)):
        return [kind, sorted(canonical(v) for v in value)]
    if isinstance(value, dict):
        return [kind, sorted([canonical(k), canonical(v)]
                             for k, v in value.items())]
    if isinstance(value, (list, tuple)):
        return [kind, [canonical(v) for v in value]]
    return [kind, repr(value)]


def config_hash(cfg) -> str:
    text = json.dumps(canonical(cfg), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# (scenario, mode) -> sha256 of the canonical ScenarioConfig dump
CONFIG_PINS = {
    ("conflict_pair", "centralized"):
        "b6876fff9013a98c3f4d33e92bc120af04ae0573cee7443db85d8388e517f3ed",
    ("conflict_pair", "distributed"):
        "57401561d8e66469c7e484d960ef1f1863c131b5fe01535e67a64f0e815fc724",
    ("conflict_pair", "mac_integrated"):
        "4df33ae17db13d95478aa323a320176908e9ce678b0ae61025249c7162989275",
    ("conflict_pair", "phy_relay"):
        "711490c126859667566634ab35bd3f4d8f74863cec60e6900da44b00bc728be8",
    ("four_room_household", "centralized"):
        "ae8584629ece0d5148ebdf39fcc1b3845befe28592ca7490cc43ab6d17ba4e13",
    ("four_room_household", "distributed"):
        "798b6534cd1a88773cca5a2b02c7fb0d98113203b771e63d86fd130fa74ae4bb",
    ("four_room_household", "mac_integrated"):
        "04aa22471540e6c7775e8eab7c93b84ded0b23318e3c0c51e233b207f6e48a4d",
    ("four_room_household", "phy_relay"):
        "96ce5e1948a8d421b3277bebef793973f92cd6a684bda53b2dca5f30af355bbe",
    ("golden", "centralized"):
        "21cf0e0c51288b92a24c24640142da0f979cd9cb9bd2c354b843614245288fd6",
    ("golden", "distributed"):
        "3d3684b30d8e78b8309bf817994099a717eb64ae3056e5ff58d72ad4fac1ef9d",
    ("golden", "mac_integrated"):
        "d8c976fcb4e73fd6d15bc6dbb8f9da8d3f383ee91de1aaf64c556bac41d7790a",
    ("golden", "phy_relay"):
        "66736459bb33c1f2034caca547f6ef1d0fe94969ca11e894c26f1d7d3acf613e",
    ("idle_night", "centralized"):
        "a9b350cbc1dc1760cd6e5894b045e2119238c949f0aaeba3c7fd8909000322b3",
    ("idle_night", "distributed"):
        "e6fc888cd4960f83f9a474101bf4e1a3855019e2cdff52fa9f09cb4060bd2641",
    ("idle_night", "mac_integrated"):
        "2d81e25374c2229b6fbad52277120e38dfbe79f03d9cbadcaa13616fbcd474b5",
    ("idle_night", "phy_relay"):
        "1060f5c268cf3a938d717009e51b5214f33d646cbb17229870c72d1de18edbea",
    ("ofdma_uplink_burst", "centralized"):
        "bd5cdc15b5366cad84f803633165955cd492b9f81832212cb73fc943e89bbb9d",
    ("ofdma_uplink_burst", "distributed"):
        "2e5181be4b6245349dee40a9194b5e12d446a021a9f774c90909fa2ad92841f2",
    ("ofdma_uplink_burst", "mac_integrated"):
        "cfd866bfcb78e5bf575c5fedbf86eb93589efe29765ee93578c09313c7c4317d",
    ("ofdma_uplink_burst", "phy_relay"):
        "d14e92df67a7a38a3eef348607c39dd571589798e3a8101cdcb40ffc913f7abd",
    ("phy_relay_burst", "centralized"):
        "7e7b072a6153ba21dca38e5d5dc25886dc9b934f6826eaf3c56a0c7c0cf0311b",
    ("phy_relay_burst", "distributed"):
        "d223a5c3c2bd85cc96260f74daae56aae18cbe0e8cbe46090d8806a68331c16e",
    ("phy_relay_burst", "mac_integrated"):
        "57aa8c5fa13f50f131964a011480bc6fff462842cd0a41dfc0405789457c2044",
    ("phy_relay_burst", "phy_relay"):
        "d4b6c91d51d918d5db2364352120be4b1b924c777fdb2bc9bad1e6242f117ad7",
    ("provisioning_storm", "centralized"):
        "bfe37b39cb0942240b45cafa4c329f58a5f6643d2f8184b7b189af40535a94e9",
    ("provisioning_storm", "distributed"):
        "4f5788538088845b74ea80e415f066cc8b3708d9f0e2a992253eef2c0feae943",
    ("provisioning_storm", "mac_integrated"):
        "629fa7a252114f6c78a1d491e2fd963de55d1b58c396a75a9b0c1aad7d8ba26e",
    ("provisioning_storm", "phy_relay"):
        "a5d60fb04b0c7c1500db4aad25f008c14fd5b001fcab26431481f5745a7670d0",
    ("staged_kill", "centralized"):
        "0d9702b7acc38cd5c71963d55116d7581c8830f50c3af1eba8f8f8d4d7e7d335",
    ("staged_kill", "distributed"):
        "61e5a4ab6ac2d4f7add29706e0d6b957864b757fd47830876f964343445c1e8c",
    ("staged_kill", "mac_integrated"):
        "2686f6f44e6d7eb5993fd24ca71e1544435099cc46fba58f29ed59a9774d3ac3",
    ("staged_kill", "phy_relay"):
        "a2c3885d77c2c8104eb2121707fd2f57547b4cb853a1b4d8449f6ac1ae915864",
}


@pytest.mark.parametrize("name,mode", sorted(CONFIG_PINS))
def test_parsed_config_matches_pin(name, mode):
    cfg = load_scenario(SCENARIOS / f"{name}.yaml", {"mode": mode})
    assert config_hash(cfg) == CONFIG_PINS[name, mode]


def test_every_shipped_scenario_and_mode_is_pinned():
    names = {f.stem for f in SCENARIOS.glob("*.yaml")}
    assert set(CONFIG_PINS) == {(n, m) for n in names for m in MODES}
