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

`RUN_PINS` holds, for small scenario dicts that reach what no shipped
scenario does (a rejected transition, a wake from deep sleep, an
Unresponsive alarm, a storm over several rooms, bursts with and without
forwarding delay), the sha256 of `summary.json`, `flows.csv`,
`schedule.log`, and of what no file holds: the MFU's sleep and wake
commands (`res.events`) with every node's ledger records, which fix the
time of each power transition. A third dict takes an IoT-resident room to
RF_OFF and back to ACTIVE by traffic, and overflows a sleep buffer.

`golden` and `ofdma_uplink_burst` have no `phy_relay` pin: in that mode
their relayed bursts are longer than the room between two OMCI windows,
and the run ends with `SimError` (see `tests/test_cli.py`).
"""

import hashlib
from pathlib import Path

import pytest

from fttrsim.energy import PowerState
from fttrsim.metrics import (build_summary, flow_table_bytes,
                             schedule_dump_bytes, summary_bytes)
from fttrsim.scenario import load_scenario, parse_scenario
from fttrsim.simulation import run_scenario_config

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# (scenario, mode) -> (sha256 of summary.json, sha256 of flows.csv)
PINS = {
    ("conflict_pair", "centralized"): (
        "f5b949881d55c1390bd21a7f8931b2af656cff9544cd62f07ec384aa89307546",
        "0699922d1256e434c7c1815ccb7c17fdeb17128b88d05371616e5f12a2cf56d3"),
    ("conflict_pair", "distributed"): (
        "bc3503aa1439fce883fe025613ad5cba21ad166252600ba2fa06eae6dc07d5b9",
        "b38216e277d3ef8fc6ace04855064fa14a064dfe9c90644999b52ebdc67e286a"),
    ("conflict_pair", "phy_relay"): (
        "aa09e9cc4e80b04be8d0826bb845dbf4223ac1cb4d2906f2921cc9b9a3f20ea3",
        "eaa3a2f19b839d4ba70e498fe0ad577bb3742c7ace18d910fc48077279ead461"),
    ("four_room_household", "centralized"): (
        "474f76adfb6b4b7e4871e4d3c57a65cedf2aeb5a9acb3931692179d05ff8b5b6",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("four_room_household", "distributed"): (
        "a291e8208f1eac3235ab843a739ac52a0cf61a92570ed3d28a739c3acf1a8020",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("four_room_household", "phy_relay"): (
        "acf1524912095bf2093d8378f1683e16292872dc3c2976bfc91d9f7b2a9d2bdc",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("golden", "centralized"): (
        "1b242e2a4839298b3430befc95d701f9eea4303b28e318ce8d0b4bf320ad6c54",
        "537d351de7b375ff49adc9cd35c8a47a43d92bf491e8ec29d32ffe893de87999"),
    ("golden", "distributed"): (
        "1ed24bb5fecf45892b7ff0bb679a06611edfabf3e9a9e16798d6c1c0fb93c064",
        "4122b453971055f25395ac0f32ca9d81103e7fd9db57d9b295879055ee26c092"),
    ("idle_night", "centralized"): (
        "a4abe157dbee83164afcc5710e00a166852efbb4fb2264ecacef24a21988f53d",
        "afe8f3408ee7411b4c7f06512f66ff4e5c6d63ffdb4f09cdd8262eecef454abc"),
    ("idle_night", "distributed"): (
        "4e962ac88b2c05f1913d42ba008ee4cd7383537f83fd47ea6600db6e87d206ec",
        "a705d415ba98a671fbb54cfa1391ccd169be0abacfcde807cf2c11d19ec8a768"),
    ("idle_night", "phy_relay"): (
        "944fd11daa3a95a64123c545b290c0a1fec48c300ff698b4919e82635f30d2d0",
        "28545f526021417db646596bf472fb87e1691869aea735f41c1cc6df9fecc23d"),
    ("ofdma_uplink_burst", "centralized"): (
        "c02f1834691d3c4c10dafce1818d89c6f1903420bc2b374c91ff10c16e37cccc",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("ofdma_uplink_burst", "distributed"): (
        "edee36512ffc59971ec8346cc8b4cd682cac57a9c3c1189f4372fc6438089dfa",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("phy_relay_burst", "centralized"): (
        "e6755abe54d53c6a191718241c3773170ac32514d0cc23b95f7bb9190618e8ae",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("phy_relay_burst", "distributed"): (
        "e82071132501949fa7b488eb59cd13f58607a59bfa486e7cbbfa2b05ebc3d844",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("phy_relay_burst", "phy_relay"): (
        "621e15f821407338d689bc82a544fa4029cf4dd7e801cf1d8fb97e1b43a54631",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "centralized"): (
        "76cc7f6e44c641f28436f4fba100090d7853a119a5c038d33b61e48b820f65fb",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "distributed"): (
        "b3966e5cc51929c0857993ee2872fe0cc5c0ad387f4748fa7ee507d6d4dc4ff6",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "phy_relay"): (
        "320fb928a4027a6227d3f141ab7a125fa998aee0569738cb6f5f93e867521e4c",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("staged_kill", "centralized"): (
        "c28ec19abdda2ab3cb993a7cd5c2862717d2f4daede83cdd76c76c3579ea5b59",
        "f338d9dbba59d249f3230511c18adf506eddd66319d5c543c92cfc79e3a59a6c"),
    ("staged_kill", "distributed"): (
        "9b9c246df8d52137fd7d6056cac95d0744676083543dd58f0d42edbb2c96016f",
        "400061c7dce4fd9c72b4ee7bae471447ea60399d805c2657b1ba6acdda6452ec"),
    ("staged_kill", "phy_relay"): (
        "e5ebbd890a0cedd96669e733334440d34c2981f020af649f2580bc582d3136d3",
        "95211e17a5817c20edce0d81e47b2cf493b4aa7b0bb68125cc30b710e435ca5d"),
}

# (scenario, mode) -> (sha256 of summary.json without the digest and the
# events_* counters, sha256 of flows.csv)
MODEL_PINS = {
    ("conflict_pair", "centralized"): (
        "9d40d9d190039ce07165caab5a609ad4e9b0fad8afcc5534e780c169ed3b7933",
        "0699922d1256e434c7c1815ccb7c17fdeb17128b88d05371616e5f12a2cf56d3"),
    ("conflict_pair", "distributed"): (
        "7cf0a2272920f6fd6cdd6b3c9e14eacc9facebed4e0825c7d2debada46f57ab4",
        "b38216e277d3ef8fc6ace04855064fa14a064dfe9c90644999b52ebdc67e286a"),
    ("conflict_pair", "mac_integrated"): (
        "0e1b5f53378a410fcec57d5848b84881c231b6dbde30f6cb6e1268ced16bd514",
        "80c74b0063138ae2e6c1b7067b385844fc9432a8a01626775d2ef585d0bbab9c"),
    ("conflict_pair", "phy_relay"): (
        "15e25bfdbd0c710a254ab90782e383ec9fa268b62155de8185969071e7930719",
        "eaa3a2f19b839d4ba70e498fe0ad577bb3742c7ace18d910fc48077279ead461"),
    ("four_room_household", "centralized"): (
        "95e52e021698798b021f5d78fe4aa6a6c9936452e0e953a4482d72c20c210859",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("four_room_household", "distributed"): (
        "80399ba7bb3268c9cded05a1289742573716ec87141ba680d94b9a5a66ccdb66",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("four_room_household", "mac_integrated"): (
        "83f17ad85b939cb1d11101d64bb9eeaee87718b1768aa883459ab9da675e14c2",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("four_room_household", "phy_relay"): (
        "c1f242015a846c9fdba535189aacbdf944808f2dccd2fe1a21a4ea928dd2539d",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("golden", "centralized"): (
        "f3be3eaf861f51ab1629e617b7a3386444ea2f03ac2ea9d2f72d428d9e1c73c3",
        "537d351de7b375ff49adc9cd35c8a47a43d92bf491e8ec29d32ffe893de87999"),
    ("golden", "distributed"): (
        "95e074fdfa0125e52cbf47d885200ed1401edce12fca0cf4cf9ed8a1fcf1a14a",
        "4122b453971055f25395ac0f32ca9d81103e7fd9db57d9b295879055ee26c092"),
    ("golden", "mac_integrated"): (
        "f331c568b8fb277442e19ce9864fcccdd74cba728158f7b836211f2c8ce8c0d1",
        "a28660b69337e4da6a4b2454578f2914ece50e78f51356c6025d4945e6e3310d"),
    ("idle_night", "centralized"): (
        "f41f18f0c9a4c3ceaab9646750a4928ea0f8b1da72dd7c5d74230ad8f5056468",
        "afe8f3408ee7411b4c7f06512f66ff4e5c6d63ffdb4f09cdd8262eecef454abc"),
    ("idle_night", "distributed"): (
        "1e030c1ef35f581f41232f2e1d23dc7c5a4b758f74359c850154218ac2cd2ebe",
        "a705d415ba98a671fbb54cfa1391ccd169be0abacfcde807cf2c11d19ec8a768"),
    ("idle_night", "mac_integrated"): (
        "5228767d4f1764ece212ead2ff1023a8523203cb1a0a2f3d82aad3c5ea199e77",
        "873c0f5f8ba7672b0281b01cdc87c0dd948119b0cd56b653c3a8f0be693dbede"),
    ("idle_night", "phy_relay"): (
        "f930b6cc4c88e886eb1e6058e1aabb53f365f66cae9f11a9bc0b5ae5c1a96d84",
        "28545f526021417db646596bf472fb87e1691869aea735f41c1cc6df9fecc23d"),
    ("ofdma_uplink_burst", "centralized"): (
        "5127c75b0d77c7344cc579cf8f5168ea90dbad387deb9bb535861801b18fe7c6",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("ofdma_uplink_burst", "distributed"): (
        "7b215de276a0154041737347af8418b4051e0ccf5022dd0d63f31f81aacb9175",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("ofdma_uplink_burst", "mac_integrated"): (
        "e08f734f28eb5100dfb6b2dad9fe8ae122d1ee736f22e3d9f9a94d3d3fa86102",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("phy_relay_burst", "centralized"): (
        "80c7e1b659b1f601ad0e1b3a79a273d77429dd30280c63dc98b5444cc55c21dc",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("phy_relay_burst", "distributed"): (
        "5a8f83bdda363a47d6e15efe0250508c33070279b039513dfbe7f0724e59637d",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("phy_relay_burst", "mac_integrated"): (
        "95070401b9e8cb9a0111812918eb30c46f57ef4c6adebdcd70689fe440eb17bc",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("phy_relay_burst", "phy_relay"): (
        "40e1ae11aac8fe87052b142708c55a79502c3c1086cc192299b35c4462f1ba3f",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "centralized"): (
        "378f84dc154a2d7d4799f853c26617f00777c42da751a8ed79c54c3b29570d18",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "distributed"): (
        "45af01257194e2eb5987624cc85d3b8399ca972a5aa5c2538f1eadc2263eb601",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "mac_integrated"): (
        "00ba6b7f16294abf4291dca4e3b30441c554b273dd9b6ef83c288cb2cf7bf34d",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "phy_relay"): (
        "94d704f3f275c0f29ba4f40d5ac1f7c760ece19d5345964157be23d5b6b10d17",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("staged_kill", "centralized"): (
        "bf7d90e42e65a79678553d3745123d77b2d35da97e30d9872b30ae433cd6dcc7",
        "f338d9dbba59d249f3230511c18adf506eddd66319d5c543c92cfc79e3a59a6c"),
    ("staged_kill", "distributed"): (
        "b63971eb682a0136bdfe2af8688c367982c69fdaf64151d3fd1fcef040ccf0bd",
        "400061c7dce4fd9c72b4ee7bae471447ea60399d805c2657b1ba6acdda6452ec"),
    ("staged_kill", "mac_integrated"): (
        "09080c50d4d88370e4f33dc2ce354c3e79139c75f31f92d36fb886ea7cbe9770",
        "3056e3f80b867112aeaf83e2c638bb2ac8f0ef760c1b48806a827c0f534e07f2"),
    ("staged_kill", "phy_relay"): (
        "3d7a7d9f78c674ee79a2f7c7593e7ee19ab4245b99dac1bc490032233790212e",
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
    # nothing is cancelled: every scheduled event either fired or is still
    # queued past the horizon
    counters = summary["counters"]
    assert counters["events_scheduled"] == (counters["events_dispatched"]
                                            + counters["events_beyond_horizon"])


@pytest.mark.parametrize("name,mode", sorted(MODEL_PINS))
def test_model_outputs_match_pin(name, mode):
    summary = _summary(name, mode)
    flows_csv = flow_table_bytes(summary)
    del summary["digest"]
    summary["counters"] = {k: v for k, v in summary["counters"].items()
                           if not k.startswith("events_")}
    assert (_sha(summary_bytes(summary)), _sha(flows_csv)) == MODEL_PINS[name, mode]


# Four rooms, one IoT-resident, with sleep timers of a few ms: all three
# others go to light sleep and get the deep-sleep command at 4.0 ms; `poke`
# wakes `a` before the command reaches it (a rejected transition), `late`
# wakes `b` from deep sleep. `c` is killed while it sleeps: `tick`'s frame
# at 49 ms sends it a wake command it cannot complete, so it sleeps to the
# horizon and, no longer counted as asleep, raises Unresponsive at 52 ms.
SLEEP_RUN = {
    "name": "sleep_deep_wake", "seed": 3, "horizon_ms": 60,
    "topology": {"sfus": ["a", "b", "c", {"name": "s", "iot_resident": True}]},
    "control": {"control_delay_us": 400, "status_cycle_us": 500},
    "flows": [
        {"name": "early", "dst": "a", "size_bytes": 1500, "model": "batch",
         "count": 5, "interval_us": 200},
        {"name": "late", "dst": "b", "size_bytes": 1000, "model": "batch",
         "count": 4, "interval_us": 300, "start_ms": 30},
        {"name": "poke", "dst": "a", "size_bytes": 800, "model": "batch",
         "count": 1, "start_ms": 4.2},
        {"name": "tick", "dst": "c", "size_bytes": 300, "rate_mbps": 0.05,
         "start_ms": 1},
    ],
    "management": {"poll_cycle_ms": 2, "kill": {"sfu": "c", "at_ms": 10}},
    "energy": {"savings_enabled": True, "t_act_idle_ms": 1,
               "t_idle_sleep_ms": 2,
               "sfu": {"wake_light_ms": 1, "wake_deep_ms": 3,
                       "t_listen_ms": 4}},
}

# A 200-message storm over three rooms, one of them killed from 5 to 25 ms,
# under downlink traffic and coordinated (zero delay) and uncoordinated
# (positive delay) uplink bursts.
STORM_RUN = {
    "name": "storm_kill_bursts", "seed": 4, "horizon_ms": 40,
    "topology": {"sfus": ["a", "b", "c"], "conflicts": [["a", "b"]]},
    "flows": [{"name": "f", "dst": "a", "size_bytes": 1200, "rate_mbps": 20}],
    "uplink_bursts": [
        {"sfu": "a", "period_us": 700, "air_duration_us": 30,
         "rus": [{"bytes": 3000}, {"bytes": 1000}]},
        {"sfu": "b", "period_us": 900, "air_duration_us": 45, "start_ms": 0.3,
         "coordinated": False, "rus": [{"bytes": 2000}]},
    ],
    "management": {"poll_cycle_ms": 2,
                   "storm": {"count": 200, "targets": ["a", "b", "c"],
                             "content_bytes": 12},
                   "kill": {"sfu": "c", "at_ms": 5, "recover_ms": 25}},
    "energy": {"savings_enabled": False},
}

# An IoT-resident room and a plain one, one flow each. `i` goes RF_OFF at
# 3 ms and its sparse flow returns it to ACTIVE; `a` sleeps from 3 ms, and
# six frames reach it while it wakes, so its two-frame sleep buffer drops
# the four oldest.
IOT_RUN = {
    "name": "iot_rf_off_overflow", "seed": 5, "horizon_ms": 40,
    "topology": {"sfus": ["a", {"name": "i", "iot_resident": True}]},
    "control": {"control_delay_us": 300, "status_cycle_us": 500},
    "flows": [
        {"name": "burst", "dst": "a", "size_bytes": 1200, "model": "batch",
         "count": 6, "interval_us": 100, "start_ms": 10},
        {"name": "sensor", "dst": "i", "size_bytes": 200, "rate_mbps": 0.1,
         "start_ms": 8},
    ],
    "energy": {"savings_enabled": True, "t_act_idle_ms": 1,
               "t_idle_sleep_ms": 2, "sleep_buffer_frames": 2,
               "sfu": {"wake_light_ms": 1, "wake_deep_ms": 2,
                       "t_listen_ms": 3}},
}

RUNS = {"sleep_deep_wake": SLEEP_RUN, "storm_kill_bursts": STORM_RUN,
        "iot_rf_off_overflow": IOT_RUN}

# (run, mode) -> sha256 of (summary.json, flows.csv, schedule.log,
# repr of the command log and the ledgers' records)
RUN_PINS = {
    ("sleep_deep_wake", "centralized"): (
        "a48165ce01637efe8f0075f23a4cdcf7d789918d13523397a35a42be76d227e8",
        "27aecd51dd70386d137bfec2c892ec1dd632f87f6158fb4c2ce9fe6674369350",
        "e1486fa41656d4e09fba885285609606874e4cce8d09895c6c0470a3c21ad2a1",
        "184d15bedc298104adc7dfe0552ee0f74b93ced665038344b30e000f0b3bcf02"),
    ("sleep_deep_wake", "distributed"): (
        "509781dc9860fc1d39d107eb82d49eacdcc4a374153182ad1cea0e74c6f37578",
        "b167da573fddcff0ad3b23c7c580314be325799ca8cb4ca5ad3165e7d56dc025",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "184d15bedc298104adc7dfe0552ee0f74b93ced665038344b30e000f0b3bcf02"),
    ("storm_kill_bursts", "centralized"): (
        "25175bbc6fcab057886a5996736b19e38042b2450986017eb981f794c57085d9",
        "bafe1e01724777eeb67776754f779c4a1344c72e29e6721eb274fac85bc9518e",
        "5761fcedb63998499758c0638bf064596e1a6507b9959195560775f9473b466e",
        "09c46aa5f863a0e7343495657018f6f16d6b9af475fe38dab8d448c8d6c9526d"),
    ("storm_kill_bursts", "phy_relay"): (
        "a23738c5c2cda294c4013b1cbeec2e8fc834273428caec267f05124a2ce5b682",
        "c9a49b2224e9ff53cbbbbace35a10d593285152029794a1e968cc12f87e90b5f",
        "1937ddc9fa8ff4d030b36c166e1dbeef4b8207ad74425f54277cfe852103e399",
        "09c46aa5f863a0e7343495657018f6f16d6b9af475fe38dab8d448c8d6c9526d"),
    ("iot_rf_off_overflow", "centralized"): (
        "8d1fb8556b4e98a47b6f573958fa9aa6285cb407e37dc24007daa1b72ae15911",
        "d4eae6b6d98aff5f1e3d3053620229f5e6ff1bccbf5fa4500bb9bd415021938f",
        "477baee3dc1b56b0a72ae54057e7e72b3faa76d9524c58ddd8a114940eda43ae",
        "4005ae09378888a9ee28496de50616378d6d89c4cb65d24887242142764cd711"),
    ("iot_rf_off_overflow", "distributed"): (
        "95ac3ec18c71d7a9c0ee4363921fe6e2211831bb308567760b7c924d79d840ea",
        "4869d77470a26af6aaeee703d57eeced96322dfe7e3993de74e2c4b20beb41ce",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4005ae09378888a9ee28496de50616378d6d89c4cb65d24887242142764cd711"),
}


def _run(name: str, mode: str):
    return run_scenario_config(parse_scenario(RUNS[name], {"mode": mode}))


@pytest.mark.parametrize("name,mode", sorted(RUN_PINS))
def test_run_outputs_match_pin(name, mode):
    res = _run(name, mode)
    summary = build_summary(res)
    got = (_sha(summary_bytes(summary)), _sha(flow_table_bytes(summary)),
           _sha(schedule_dump_bytes(res)), _sha(repr((res.events, {
               node: ledger.records for node, ledger in res.ledgers.items()
           })).encode()))
    assert got == RUN_PINS[name, mode]


def test_run_pins_reach_what_the_shipped_pins_miss():
    for name, mode in RUN_PINS:
        assert RUNS[name]["name"] == name
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
    assert len(set(STORM_RUN["management"]["storm"]["targets"])) >= 2
    assert 0 in storm.bursts and max(storm.bursts) > 0
    iot = _run("iot_rf_off_overflow", "centralized")
    # traffic returns the IoT room from RF_OFF straight to ACTIVE
    states = [state for state, _, _ in iot.ledgers["i"].records]
    assert any(a == PowerState.RF_OFF and b == PowerState.ACTIVE
               for a, b in zip(states, states[1:]))
    assert iot.sleep_drops > 0
    # one flow per room, so an overflow drop is charged to the flow whose
    # frame it was whichever frame is dropped
    assert len({f["dst"] for f in IOT_RUN["flows"]}) == len(IOT_RUN["flows"])
