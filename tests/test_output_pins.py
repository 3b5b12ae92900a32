"""Output pins: the sha256 of `summary.json` (trace digest included) and of
`flows.csv` for every shipped scenario in the two air-access modes.

A change that is only about performance must leave all of these bytes
unchanged. A change to the model re-pins them here, in its own commit, and
says in CHANGES.md which numbers moved. `phy_relay` mode is left out:
`golden.yaml` in that mode never ends (the upstream slot search in
`Simulation._reserve_data_slot` does not terminate).
"""

import hashlib
from pathlib import Path

import pytest

from fttrsim.metrics import build_summary, flow_table_bytes, summary_bytes
from fttrsim.scenario import load_scenario
from fttrsim.simulation import run_scenario_config

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# (scenario, mode) -> (sha256 of summary.json, sha256 of flows.csv)
PINS = {
    ("conflict_pair", "centralized"): (
        "dca58d9962dcc910c5acf70ceaaa364a3c744be4a312d4818e628b5e96bd331a",
        "0699922d1256e434c7c1815ccb7c17fdeb17128b88d05371616e5f12a2cf56d3"),
    ("conflict_pair", "distributed"): (
        "ee52be95f7ad1b38434f2d2564e45ad29ca7d2416e037b97608ec777a2c24279",
        "b38216e277d3ef8fc6ace04855064fa14a064dfe9c90644999b52ebdc67e286a"),
    ("four_room_household", "centralized"): (
        "b6ebe4e9c9297c333ca6ba665c39390ffdceb99c18d2cb6caab4446214a79661",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("four_room_household", "distributed"): (
        "6e87af1cb81d301b8f46a0bb0699e4dcfca831333c34210be4a31b1a3562469c",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("golden", "centralized"): (
        "99627a324c2a40e6f3f81c48987ac72448ec217f63c27f50acfd2caf5df94cbf",
        "537d351de7b375ff49adc9cd35c8a47a43d92bf491e8ec29d32ffe893de87999"),
    ("golden", "distributed"): (
        "90423e8ae25ccd2ae5e1990e6807ac17b4240573d03acface8830bdae43a270a",
        "4122b453971055f25395ac0f32ca9d81103e7fd9db57d9b295879055ee26c092"),
    ("idle_night", "centralized"): (
        "4aee22d187c11f907ac8ccb72b26140c464bd1ad0cba2a45e9ca86a533bee294",
        "afe8f3408ee7411b4c7f06512f66ff4e5c6d63ffdb4f09cdd8262eecef454abc"),
    ("idle_night", "distributed"): (
        "e4ac3b1cb85a42a4d20d59a3719eeee4fa8622a77b1685a105fbca60c48ad2e6",
        "a705d415ba98a671fbb54cfa1391ccd169be0abacfcde807cf2c11d19ec8a768"),
    ("ofdma_uplink_burst", "centralized"): (
        "19a3a3e59c6c7329701313c194b9b5dd7f2f7560b4cfba7d0bfe2255eaa76090",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("ofdma_uplink_burst", "distributed"): (
        "9031dc0cecf746d547cc0af8e9a53b22b854c217e9c5bbbecd62f327497fa650",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("phy_relay_burst", "centralized"): (
        "05dfc7343a5b441c1f6386e070ac094634487e2f99b6f54cf83944d8eb101654",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("phy_relay_burst", "distributed"): (
        "4d807c3b26992c9ddac632909b81fbf9687f3afcaa5638119022bf108726767e",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "centralized"): (
        "9802e84f774adb9e58ac9af14ab96bc4f00f7bf8c8b0eb2a279eb832970c499e",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "distributed"): (
        "f2f5ff1653fe9fe548f6b90dbff5102bae179023461ff5aed2f2bf11b9f68197",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("staged_kill", "centralized"): (
        "5d5208b55a4acfa55bc97bc020ca57dbe23aa697e0f02fc89bd259d3d325d0f2",
        "f338d9dbba59d249f3230511c18adf506eddd66319d5c543c92cfc79e3a59a6c"),
    ("staged_kill", "distributed"): (
        "0259995a3dcd08cce52259a1415baca81a9bb02e9faed1ee1d5ddfea6d89ba94",
        "400061c7dce4fd9c72b4ee7bae471447ea60399d805c2657b1ba6acdda6452ec"),
}


def test_pins_cover_every_shipped_scenario():
    shipped = {p.stem for p in SCENARIOS.glob("*.yaml")}
    assert {name for name, _ in PINS} == shipped


@pytest.mark.parametrize("name,mode", sorted(PINS))
def test_outputs_match_pin(name, mode):
    cfg = load_scenario(SCENARIOS / f"{name}.yaml", {"mode": mode})
    summary = build_summary(run_scenario_config(cfg))
    got = (hashlib.sha256(summary_bytes(summary)).hexdigest(),
           hashlib.sha256(flow_table_bytes(summary)).hexdigest())
    assert got == PINS[name, mode]
