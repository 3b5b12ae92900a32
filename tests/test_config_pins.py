"""Config pins for every shipped scenario in all four modes.

Each pin is the sha256 of a canonical dump of the parsed `ScenarioConfig`:
dataclass fields sorted by name, sets and mappings sorted, and every value
kept with its type name. It catches drift in fields that no output pin can
see, such as `min_slot_ns` or `dump_schedule`, and an int read as a float
or the other way round. A change to the scenario schema that is meant to
parse every shipped file as before leaves these unchanged.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from fttrsim.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
MODES = ("centralized", "distributed", "mac_integrated", "phy_relay")


def canonical(value):
    """A JSON-able dump of `value` that keeps every type name."""
    kind = type(value).__name__
    if dataclasses.is_dataclass(value):
        return [kind, {f.name: canonical(getattr(value, f.name))
                       for f in dataclasses.fields(value)}]
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
        "bee3b211e15a81ea19853fb769f4a37718a79f62d77866921d6ddc9af03a0cb7",
    ("conflict_pair", "distributed"):
        "c73cf44f4b3ea4e3bbfb4c8089e31d3111929cfbc7f520df024c335fa1893f3e",
    ("conflict_pair", "mac_integrated"):
        "700f01e9078f5c0ee2a4667da54f18ee8b0002837a800fe821862b35d2f4e9be",
    ("conflict_pair", "phy_relay"):
        "5a5d2fdf7591f8654daba8dc5341ca29a644d32de3f7df6b2fa76a4e42d4f75a",
    ("four_room_household", "centralized"):
        "dc394294c7b98b9dec7b2aa38f4a7e4d76bb40a6b16baa412dbb7fa534bc96ca",
    ("four_room_household", "distributed"):
        "0e8d1c0ec532bc145439091b3e32865b679c3b7458c5e098cd51ccfb02b74049",
    ("four_room_household", "mac_integrated"):
        "b0bfe79195c775fecd5af2b1371ccdb827ee56d577e6272a1e13a1e5c7146589",
    ("four_room_household", "phy_relay"):
        "6ba642d2f7c495932a96bd237c666768abcc340c41ceb50609a0991d77f0a000",
    ("golden", "centralized"):
        "ef50f743e2d9f2230e53472c991c2885fee1cfe35dcc2543ce97c022467ba8aa",
    ("golden", "distributed"):
        "eb7696e11651098a2fdf3952cf2eb95611a5f70631886216a53d62dfa40869cd",
    ("golden", "mac_integrated"):
        "363efe8074f39c5508e21ebc0d82ad255af20db1f694bd14d91fa7a30cf4bf49",
    ("golden", "phy_relay"):
        "30d9c80b7d2f10705608a091fdc09df172c5b2dfa797d54f79fe1b3108e541e1",
    ("idle_night", "centralized"):
        "f15e775d077b2cbcaaa1245c1939e418cb861c832399565546837f81ff26296e",
    ("idle_night", "distributed"):
        "319bb6dabe2e150a29d0fc6b3ee064153d09523b3b2bf3283cc7bb7a3ee3ae06",
    ("idle_night", "mac_integrated"):
        "177958f217c1819f725f4f1100f7ecebb64b60de741d619e6e7d4c8343f2a719",
    ("idle_night", "phy_relay"):
        "9307ad5295e51e1003394df40dfa97e82063c3ddf4f61cf76306c6280b841ece",
    ("ofdma_uplink_burst", "centralized"):
        "13fcdc49bbed063ac2ff709ff34571a14122a91d20e3a7cb9fc2920d465ef89f",
    ("ofdma_uplink_burst", "distributed"):
        "bf5dabb79908bb518c664a730d75b32b63d2ed2a05d70a7b80f3ca8ce15f0099",
    ("ofdma_uplink_burst", "mac_integrated"):
        "abd983b91571709c04852e445d7a0f18e3e9ba1ac816f60a6eb8cb2922a6af7d",
    ("ofdma_uplink_burst", "phy_relay"):
        "026931c86757679f9430ad7c72ec42b87eeafd0a1535ff3a4b1c3c5f36554d8d",
    ("phy_relay_burst", "centralized"):
        "b4e0de410d4cb03523ab2dc9ca2c326889059a1f2f53538fbd8d02bb6d57ca43",
    ("phy_relay_burst", "distributed"):
        "8ef432ff9e1d4cf3d6b81ae22af696772f567eddebfef85166fdcb4103c0c69b",
    ("phy_relay_burst", "mac_integrated"):
        "3c847b261aaa58da04bedd66a35e578565df116ce7fd3471f3ee81abed94d519",
    ("phy_relay_burst", "phy_relay"):
        "ad186a9aaad230522e45f5a7bd4c2a9be0d282553d6adc39fdc221ccfa3d58e8",
    ("provisioning_storm", "centralized"):
        "37fd3054d55c4fd35d8a1d105c5f109d7d57d12b01eaece6aa6b84fcc3467232",
    ("provisioning_storm", "distributed"):
        "a8b6e462cc6d7e497a14649ff445d8091b10c766230436f4de311ffff5581518",
    ("provisioning_storm", "mac_integrated"):
        "1b8d62d1e91a98f347cf8294a7a076cd2223eb8ea0e199ddcfd5993303ae72e8",
    ("provisioning_storm", "phy_relay"):
        "d4399e8d1d43268a0dc731bbe993f2aa7913e5fe89abbad1f3ca9bc0113c8ba3",
    ("staged_kill", "centralized"):
        "57d7a2cfd0c2e97b5e643a2143696351aff638be7419d52cc5b86bddf50a9e9f",
    ("staged_kill", "distributed"):
        "17200c4618bbdb66b100bc7c27837aa7335d71db006e6010d86c6ff3845a52a1",
    ("staged_kill", "mac_integrated"):
        "54fc410435fb6487d8d2e26067511e8d5cbec98066cea25afb9185368023f58d",
    ("staged_kill", "phy_relay"):
        "17935b83209f292f1a2ede3d1c7873b02d97f839a7f09379e859917ae632c5e6",
}


@pytest.mark.parametrize("name,mode", sorted(CONFIG_PINS))
def test_parsed_config_matches_pin(name, mode):
    cfg = load_scenario(SCENARIOS / f"{name}.yaml", {"mode": mode})
    assert config_hash(cfg) == CONFIG_PINS[name, mode]


def test_every_shipped_scenario_and_mode_is_pinned():
    names = {f.stem for f in SCENARIOS.glob("*.yaml")}
    assert set(CONFIG_PINS) == {(n, m) for n in names for m in MODES}
