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
        "fc56911454ea101234a1132e9d6b23d052c35b3ad18281af4135b32a39f9fbc7",
    ("conflict_pair", "distributed"):
        "80ebbd395b17dad746551312a9f554750d6353223ea2d0be62b0886b644deef7",
    ("conflict_pair", "mac_integrated"):
        "d9fa85b381fdb8a59c7b57a94bc86168bf3efe3f3bc2c8f855a4d93d177f878e",
    ("conflict_pair", "phy_relay"):
        "fb94ffe0f2c1b0065b460c9275487c60c698287b8195369f5648dab9470fa529",
    ("four_room_household", "centralized"):
        "ae8584629ece0d5148ebdf39fcc1b3845befe28592ca7490cc43ab6d17ba4e13",
    ("four_room_household", "distributed"):
        "798b6534cd1a88773cca5a2b02c7fb0d98113203b771e63d86fd130fa74ae4bb",
    ("four_room_household", "mac_integrated"):
        "04aa22471540e6c7775e8eab7c93b84ded0b23318e3c0c51e233b207f6e48a4d",
    ("four_room_household", "phy_relay"):
        "96ce5e1948a8d421b3277bebef793973f92cd6a684bda53b2dca5f30af355bbe",
    ("golden", "centralized"):
        "c8a594a926bef6b727e9f431850f2b0e43bde25d29df7adcd5f38aa7c054655b",
    ("golden", "distributed"):
        "6e5dd8d4a8c5a1c770d5aeef0c56e44ba1b1070a09107d6d999c3a1ec96417fd",
    ("golden", "mac_integrated"):
        "47a9669458c1932fe5ae9b05450d1723ba20017cc042e36bf42e17c6e5025ee8",
    ("golden", "phy_relay"):
        "6a96c306f562d275c0cc2440388a405c213b05eded9628392921db59494273e8",
    ("idle_night", "centralized"):
        "b2f51751fd1d791780ceb8d87f406f8769783fd14c464951162b2b102faa427f",
    ("idle_night", "distributed"):
        "ba6c873f4763b4edf3ddddfc1480d2c99e0166b1b727dd9f08e4e2d9ae088ab5",
    ("idle_night", "mac_integrated"):
        "5587ff1f2b7f38157f8812884878a8889eb92e01417f86cc35fcc716d71e843b",
    ("idle_night", "phy_relay"):
        "da10874bcf57c398713900c22190fa3a24304781e88c34073f48b8ea04a727ca",
    ("ofdma_uplink_burst", "centralized"):
        "25692c9f6133917c8070800a7c023c23965a373f9280078fa140d2323ba28a17",
    ("ofdma_uplink_burst", "distributed"):
        "fa2cdefcc371c267e91fb26b8df3da6d9f87db25c22fc73b2e5826135772c866",
    ("ofdma_uplink_burst", "mac_integrated"):
        "f55e63216c0b7caf4a9e86792ec4b499a5b320bd967655ee4d795dd33704eaa5",
    ("ofdma_uplink_burst", "phy_relay"):
        "54e717e9afc14b0861c2309f38d365fea3ebfde6747595a3d2c27c7392fb4ba1",
    ("phy_relay_burst", "centralized"):
        "cebc9cafbbe9335cccb86b6ea3c62eac61370e95daf55c803c3041335d171779",
    ("phy_relay_burst", "distributed"):
        "7cf9083459e0e52cd5acca63256d36c1660ad1af7d5d32fedc9714f610278407",
    ("phy_relay_burst", "mac_integrated"):
        "465b41fe041a4970774df3cba4fa100ffdbe96c49f2ccadf862d52aea26c0b71",
    ("phy_relay_burst", "phy_relay"):
        "914a648d2f3dbb086935731ed0d191509981431bef8eb099b91d34eb036714c9",
    ("provisioning_storm", "centralized"):
        "6a9a93ad86126967be20afb47bee868098560a7c19b2ee7feb006cc7c04b537d",
    ("provisioning_storm", "distributed"):
        "2a9de608ad56ca2ee8aa9b0ebcbf4b329ca0a11564cda14f3b2745b61c603e3a",
    ("provisioning_storm", "mac_integrated"):
        "673a04cd234da733d8af294ffc2afdc45b76180a70fc61a5832a2b17242d88e2",
    ("provisioning_storm", "phy_relay"):
        "2ca1a7422f47d771a81786e4084c7472a3daa8fb89449a417c2b2c0ccf51afc2",
    ("staged_kill", "centralized"):
        "fbb8fb96cf477668295f7f203ed7856bece9d1d8574fc7dce88a763ac4df3636",
    ("staged_kill", "distributed"):
        "1f1c501a4ea014f69ad5c34233ac714fe0f99a315668f5c8389b5404381070ad",
    ("staged_kill", "mac_integrated"):
        "8272aab6e039a7c013486e666fd2333a1f3682260603e6b5c71f5a9866268be0",
    ("staged_kill", "phy_relay"):
        "32aad88a0c6e6eaae8307aa9f754ec24e9925d0a555e4cb3059e864524e8f79c",
}


@pytest.mark.parametrize("name,mode", sorted(CONFIG_PINS))
def test_parsed_config_matches_pin(name, mode):
    cfg = load_scenario(SCENARIOS / f"{name}.yaml", {"mode": mode})
    assert config_hash(cfg) == CONFIG_PINS[name, mode]


def test_every_shipped_scenario_and_mode_is_pinned():
    names = {f.stem for f in SCENARIOS.glob("*.yaml")}
    assert set(CONFIG_PINS) == {(n, m) for n in names for m in MODES}
