"""Output pins for every shipped scenario.

`PINS` holds the sha256 of the full `summary.json` (trace digest and event
counters included) and of `flows.csv` in the two air-access modes and in
`phy_relay` mode. A change that is only about performance must leave all of
these bytes unchanged. A change to the model re-pins them here, in its own
commit, and says in CHANGES.md which numbers moved.

`MODEL_PINS` holds the sha256 of `summary.json` without `digest` and the
`events_*` counters, and of `flows.csv`, in all four modes. A change to how
events are scheduled, which moves the digest and the event counts but not
what the model computes, leaves these unchanged.

`golden` and `ofdma_uplink_burst` have no `phy_relay` pin: in that mode
their relayed bursts are longer than the room between two OMCI windows,
and the run ends with `SimError` (see `tests/test_cli.py`).
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
        "26f1a22a53d1bdb49222046985625d26f2ffce9a4b9324f89724f2b49602fdbc",
        "0699922d1256e434c7c1815ccb7c17fdeb17128b88d05371616e5f12a2cf56d3"),
    ("conflict_pair", "distributed"): (
        "8874ec706137a089aef5f8a3c149f1b9e2aa35b5aac1841f8e8cbad0f98da51c",
        "b38216e277d3ef8fc6ace04855064fa14a064dfe9c90644999b52ebdc67e286a"),
    ("conflict_pair", "phy_relay"): (
        "0731aad8a58bffda442e002dbd1b637bbb6940dda6a013342e531862f8ce8385",
        "eaa3a2f19b839d4ba70e498fe0ad577bb3742c7ace18d910fc48077279ead461"),
    ("four_room_household", "centralized"): (
        "b6ebe4e9c9297c333ca6ba665c39390ffdceb99c18d2cb6caab4446214a79661",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("four_room_household", "distributed"): (
        "6e87af1cb81d301b8f46a0bb0699e4dcfca831333c34210be4a31b1a3562469c",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("four_room_household", "phy_relay"): (
        "6f543fe321ebb42e8e31ef7d59f7aa6d855e82d84eae954fdbfbcb6e80ca25b8",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("golden", "centralized"): (
        "6376637076cff9370c0efa16fabf6431ba3c3d911c0484a343cd78071e2aa82b",
        "537d351de7b375ff49adc9cd35c8a47a43d92bf491e8ec29d32ffe893de87999"),
    ("golden", "distributed"): (
        "8200a69fc206f7689fc95f3209ac2b9e9c333ff18295f7fdc9830744e747687d",
        "4122b453971055f25395ac0f32ca9d81103e7fd9db57d9b295879055ee26c092"),
    ("idle_night", "centralized"): (
        "fbda267a63f2ad9d712faf239522d5a63d078311a1a872428df72bf60356ff18",
        "afe8f3408ee7411b4c7f06512f66ff4e5c6d63ffdb4f09cdd8262eecef454abc"),
    ("idle_night", "distributed"): (
        "b238196fccd29d351eeab5cdcc2c8364444641fe10b267e0cc785bb1b177bebc",
        "a705d415ba98a671fbb54cfa1391ccd169be0abacfcde807cf2c11d19ec8a768"),
    ("idle_night", "phy_relay"): (
        "f19f0d95f9a8c27814c25b47bd5615c587ade09fdbef197856909987275b987d",
        "28545f526021417db646596bf472fb87e1691869aea735f41c1cc6df9fecc23d"),
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
    ("phy_relay_burst", "phy_relay"): (
        "4773c9ecf72c3c55a7550c40f9ba3b9093e71bd24fb29c5c04c23d359be1ea07",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "centralized"): (
        "9802e84f774adb9e58ac9af14ab96bc4f00f7bf8c8b0eb2a279eb832970c499e",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "distributed"): (
        "f2f5ff1653fe9fe548f6b90dbff5102bae179023461ff5aed2f2bf11b9f68197",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "phy_relay"): (
        "939a505f94ccc3651c49187a11c8f7e5221b51030d25eacd6b160aa6d81eedf6",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("staged_kill", "centralized"): (
        "159b74122f4086f06c6ecb2ebf75656b6ab0ed1aa0a66c8da73d78a6c2143128",
        "f338d9dbba59d249f3230511c18adf506eddd66319d5c543c92cfc79e3a59a6c"),
    ("staged_kill", "distributed"): (
        "a36db93712e3aa3b2ccb3a6871255a0db06555276ad5d367d0a0e75e207830cd",
        "400061c7dce4fd9c72b4ee7bae471447ea60399d805c2657b1ba6acdda6452ec"),
    ("staged_kill", "phy_relay"): (
        "24f74fdc66b58cd0e635e9f6d9f278fe38ce9689b05f6d2475d96f691363dc52",
        "95211e17a5817c20edce0d81e47b2cf493b4aa7b0bb68125cc30b710e435ca5d"),
}

# (scenario, mode) -> (sha256 of summary.json without the digest and the
# events_* counters, sha256 of flows.csv)
MODEL_PINS = {
    ("conflict_pair", "centralized"): (
        "02ce8aefb9d472d9fb0efce033238b579c1e1ac2001f283c501e4e3d734ca413",
        "0699922d1256e434c7c1815ccb7c17fdeb17128b88d05371616e5f12a2cf56d3"),
    ("conflict_pair", "distributed"): (
        "99b13bc43549492a792a855728347efb6e9f8560900aa8840940b27a32a7995e",
        "b38216e277d3ef8fc6ace04855064fa14a064dfe9c90644999b52ebdc67e286a"),
    ("conflict_pair", "mac_integrated"): (
        "57b92718e2b6f16015a14b480ab32a96423041080c056a79b33a6906afb61de8",
        "80c74b0063138ae2e6c1b7067b385844fc9432a8a01626775d2ef585d0bbab9c"),
    ("conflict_pair", "phy_relay"): (
        "ab5717511332b69a9be8b6e883e23c36b07b90774fe9b8690f5263710e62788c",
        "eaa3a2f19b839d4ba70e498fe0ad577bb3742c7ace18d910fc48077279ead461"),
    ("four_room_household", "centralized"): (
        "7e75f8be2b1551a5aa1223e99ed2d0d1977a22438aaeb2500716f82c6d3bce5a",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("four_room_household", "distributed"): (
        "f2c04f55c5c60c6baa581deedcfc104a3e65e54805d7f8b11944c5292309d4b4",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("four_room_household", "mac_integrated"): (
        "b60b2f93faabff89094833fadbc33c1e52b04e0ccc841506f50f268815e51607",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("four_room_household", "phy_relay"): (
        "04a60e2384d8e589e8a1f964b924ecba2864d4a88abe5988feb953fa55281b15",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("golden", "centralized"): (
        "963c87563d57fa21fb68791c39ad58ec57d962bc5f70910b4fd8f70844699fdf",
        "537d351de7b375ff49adc9cd35c8a47a43d92bf491e8ec29d32ffe893de87999"),
    ("golden", "distributed"): (
        "041c7cb333deb7dbecba1a76c9fb4b0d34d0502b324b55dd701671ff373fcacc",
        "4122b453971055f25395ac0f32ca9d81103e7fd9db57d9b295879055ee26c092"),
    ("golden", "mac_integrated"): (
        "b50d8d1b5e4d5fad989427e715ff7f88b6e18bf57aad33144c056e382d9fdb32",
        "a28660b69337e4da6a4b2454578f2914ece50e78f51356c6025d4945e6e3310d"),
    ("idle_night", "centralized"): (
        "9ab16f6baace198baae06a4a72377237f4d96d67b7b57c2c3ad31bdcf4815260",
        "afe8f3408ee7411b4c7f06512f66ff4e5c6d63ffdb4f09cdd8262eecef454abc"),
    ("idle_night", "distributed"): (
        "046cd520eddd14b02658a3b4dc603d72e56800a91821aa11bbce20558a697e67",
        "a705d415ba98a671fbb54cfa1391ccd169be0abacfcde807cf2c11d19ec8a768"),
    ("idle_night", "mac_integrated"): (
        "62ac20c9739e7b8aa5a08b7058517ce1442952f5f69e1a381a06de56232a881b",
        "873c0f5f8ba7672b0281b01cdc87c0dd948119b0cd56b653c3a8f0be693dbede"),
    ("idle_night", "phy_relay"): (
        "dc6df2765d4c62886e6f20001a0f2826bcd904838c337638d2ddc3dd5f6914d5",
        "28545f526021417db646596bf472fb87e1691869aea735f41c1cc6df9fecc23d"),
    ("ofdma_uplink_burst", "centralized"): (
        "afc126041d57da67665e54179aa4bb19bbb9c3a492a678598ac8e5a0ac0f7aa9",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("ofdma_uplink_burst", "distributed"): (
        "393da255f3841f70bf4f784b69782cbfd205e8863db22081e2a9eae4c0ee3788",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("ofdma_uplink_burst", "mac_integrated"): (
        "c2a86c9fd5888e5562c5c6f090b25fe432f8a981a06c2dd1d7ef7b189da0b63d",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("phy_relay_burst", "centralized"): (
        "7f5ea92e32fe74700e3c6aeae4f86af423a5d2c4e4bf74d9c51be484f994f700",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("phy_relay_burst", "distributed"): (
        "45a843a09e6cae6ddb3f0448a3490bef2cc7e89df6d3334f65fea69118022d37",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("phy_relay_burst", "mac_integrated"): (
        "a15d3186fc33cd10b3c5f560b88586babb542bc02073ca3c836d19e4eddf6bdd",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("phy_relay_burst", "phy_relay"): (
        "d2fad6653a2c4f18044b5dfb574869548890be4aa29fa90ecfd21a0bc7991ea8",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "centralized"): (
        "1eec46c52ccc55b833f2816c18a84231561c3509397d3496a3ad15924d5eb583",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "distributed"): (
        "a3b61187bb71e807627ddbe9edac6dbd441e2577074d866e991d803b3ca6ca27",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "mac_integrated"): (
        "633abb0bfb583ee43d92fc855c415efc8a3c62fa5e0dc420bd134d5b67db7c52",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "phy_relay"): (
        "89b3d75e997d2063993db6bec11deb7924f47b589d3eb3275d11a3359ef97bce",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("staged_kill", "centralized"): (
        "abf2173a2f6f2c0a73e30c9ef1a2402e34b47cc1a9a6dbbe4784f50326bf06be",
        "f338d9dbba59d249f3230511c18adf506eddd66319d5c543c92cfc79e3a59a6c"),
    ("staged_kill", "distributed"): (
        "b0353b185e8dc4614348b1e79558784de4b07294ad4d1a1eacdfceac186eaf46",
        "400061c7dce4fd9c72b4ee7bae471447ea60399d805c2657b1ba6acdda6452ec"),
    ("staged_kill", "mac_integrated"): (
        "e29e48f50ef03a74ae9f0b6a62251b5d1d6da1c38f37dc1cf93098803cfb00a2",
        "3056e3f80b867112aeaf83e2c638bb2ac8f0ef760c1b48806a827c0f534e07f2"),
    ("staged_kill", "phy_relay"): (
        "569547d6eba7de1783cfc2b975dbb3f047faa670d7183e3b0732d938e3700368",
        "95211e17a5817c20edce0d81e47b2cf493b4aa7b0bb68125cc30b710e435ca5d"),
}


def _summary(name: str, mode: str) -> dict:
    cfg = load_scenario(SCENARIOS / f"{name}.yaml", {"mode": mode})
    return build_summary(run_scenario_config(cfg))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_pins_cover_every_shipped_scenario():
    shipped = {p.stem for p in SCENARIOS.glob("*.yaml")}
    assert {name for name, _ in PINS} == shipped
    assert {name for name, _ in MODEL_PINS} == shipped


@pytest.mark.parametrize("name,mode", sorted(PINS))
def test_outputs_match_pin(name, mode):
    summary = _summary(name, mode)
    got = (_sha(summary_bytes(summary)), _sha(flow_table_bytes(summary)))
    assert got == PINS[name, mode]


@pytest.mark.parametrize("name,mode", sorted(MODEL_PINS))
def test_model_outputs_match_pin(name, mode):
    summary = _summary(name, mode)
    flows_csv = flow_table_bytes(summary)
    del summary["digest"]
    summary["counters"] = {k: v for k, v in summary["counters"].items()
                           if not k.startswith("events_")}
    assert (_sha(summary_bytes(summary)), _sha(flows_csv)) == MODEL_PINS[name, mode]
