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
`schedule.log` and `repr(res.events)`, the sleep/wake/alarm log that no
file holds. A third dict takes an IoT-resident room to RF_OFF and back to
ACTIVE by traffic, and overflows a sleep buffer.

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
        "53aa6635e8427d809b2bb7a93e24bd38c06b3fa9f505ddd0c0a11e56f014451a",
        "0699922d1256e434c7c1815ccb7c17fdeb17128b88d05371616e5f12a2cf56d3"),
    ("conflict_pair", "distributed"): (
        "6b46c304c3993b617f7e75c145f3c05008d17ffe277171c94f0e48e465bcd155",
        "b38216e277d3ef8fc6ace04855064fa14a064dfe9c90644999b52ebdc67e286a"),
    ("conflict_pair", "phy_relay"): (
        "e8c2cf1d652ddd68ea75bbd3689d80e40403df5eece1b43e4696d5c960003d66",
        "eaa3a2f19b839d4ba70e498fe0ad577bb3742c7ace18d910fc48077279ead461"),
    ("four_room_household", "centralized"): (
        "eeb9c97ac78f36207eb09316f6083956d354c7277578f8725a64053565fa9f89",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("four_room_household", "distributed"): (
        "03366040fbe9028831bf1512c2d5f982614eaaa22113c6c006b59360cb945707",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("four_room_household", "phy_relay"): (
        "3368a34fb54d11e9cf224574afca9fdd7a2b64ee005e1e7c4e615a1d776b7d54",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("golden", "centralized"): (
        "1f6666ae804d480986f454b1fbee059f0f0f3cdaca22c115ea53af0e0fea3319",
        "537d351de7b375ff49adc9cd35c8a47a43d92bf491e8ec29d32ffe893de87999"),
    ("golden", "distributed"): (
        "2e47e566dcf61e793c0e13e7b947f75058b162c4c99a310b458b5feb6a0268a3",
        "4122b453971055f25395ac0f32ca9d81103e7fd9db57d9b295879055ee26c092"),
    ("idle_night", "centralized"): (
        "d45f6629cb82983a65d08f78748a35fb66ebedcd0655e00c644082bb38d40f94",
        "afe8f3408ee7411b4c7f06512f66ff4e5c6d63ffdb4f09cdd8262eecef454abc"),
    ("idle_night", "distributed"): (
        "a96d5b1baba45bf5594e27db899b43a23618fa8a245372b0fc4b403cc03e773c",
        "a705d415ba98a671fbb54cfa1391ccd169be0abacfcde807cf2c11d19ec8a768"),
    ("idle_night", "phy_relay"): (
        "cc827db2777802c7415a375a01fc1be38d6286f8272eb30103c48c88cd9c85bb",
        "28545f526021417db646596bf472fb87e1691869aea735f41c1cc6df9fecc23d"),
    ("ofdma_uplink_burst", "centralized"): (
        "d161c840359e6fe167697ba35d4024c1eda254177e75529d3215e1ec88f2c78d",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("ofdma_uplink_burst", "distributed"): (
        "2af64d4796b1d24bb1940d543945c137c1b5c028fa7ec6df21296e41321babcb",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("phy_relay_burst", "centralized"): (
        "fe1b11e1bd2ca86fd9d4b1f4ee8a268e74a3186b0a1709757cc8e61ed736a1eb",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("phy_relay_burst", "distributed"): (
        "d1e037dc486fee597780b9cfb1f7a07868e2d8d5c1dfc12b71fc7e0698656b83",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("phy_relay_burst", "phy_relay"): (
        "d52f65bae087f6cd6dbd1f638eced168a4827a13d339999f7bf71cedc074a6cd",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "centralized"): (
        "274a14d83012b9475a84e50349febaa728ac9857462c70e19a2793df93788909",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "distributed"): (
        "ed44a31dbc28c20b4c440d6aec439619b81193330bd8d6f6595ea08a2dc87dc7",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "phy_relay"): (
        "ef9d8c7f063508598829cd0ab95d287e28dfb4c2d6e28309d058074d519d3d5c",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("staged_kill", "centralized"): (
        "b8eb57768b13b67fc8e01ac86ab0fecee973c189ea17ed6050925472cb213b94",
        "f338d9dbba59d249f3230511c18adf506eddd66319d5c543c92cfc79e3a59a6c"),
    ("staged_kill", "distributed"): (
        "e3c58f45d942e8d629d40596834c785f396eb179da8d504cbeceadc48d287f86",
        "400061c7dce4fd9c72b4ee7bae471447ea60399d805c2657b1ba6acdda6452ec"),
    ("staged_kill", "phy_relay"): (
        "0b24306eceb3b463579da4fea4910ede0fe14610a60948c1abe924f4eeda0e89",
        "95211e17a5817c20edce0d81e47b2cf493b4aa7b0bb68125cc30b710e435ca5d"),
}

# (scenario, mode) -> (sha256 of summary.json without the digest and the
# events_* counters, sha256 of flows.csv)
MODEL_PINS = {
    ("conflict_pair", "centralized"): (
        "c220f57a950b93a1436a03d5591aa28d70ac37afe902b9005121432451e4aeab",
        "0699922d1256e434c7c1815ccb7c17fdeb17128b88d05371616e5f12a2cf56d3"),
    ("conflict_pair", "distributed"): (
        "1bfef9a5b1c50b1b8fa41704549f1dec5eb38489c73b6d86ba4806a75801b1f4",
        "b38216e277d3ef8fc6ace04855064fa14a064dfe9c90644999b52ebdc67e286a"),
    ("conflict_pair", "mac_integrated"): (
        "f2e9a61bd99e498c25546001ad2845225351285d1ccd47d22418f7afd65ff4a8",
        "80c74b0063138ae2e6c1b7067b385844fc9432a8a01626775d2ef585d0bbab9c"),
    ("conflict_pair", "phy_relay"): (
        "a3ddc7ec2b069cf57279c6e80c9d71888deaac89413886647b7a910664237f79",
        "eaa3a2f19b839d4ba70e498fe0ad577bb3742c7ace18d910fc48077279ead461"),
    ("four_room_household", "centralized"): (
        "2572a4e5b7438a810ce94bafdb4fa6c567bb39d04002edb19afed9a0f70e0a9c",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("four_room_household", "distributed"): (
        "48a566e95672fedb98a27b9de7650ad0f995321cd02ae39fa3189fdf21167d32",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("four_room_household", "mac_integrated"): (
        "d1db02b02b240ab668e361dc854f0c7c06abe05423e20991693915f1b7ef62e6",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("four_room_household", "phy_relay"): (
        "c99eb7e883a8d8911fc27bb97aee4723ac0d6c697dc2d0dda8bed073ed2f8376",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("golden", "centralized"): (
        "11c35d7c1e0d86397b550d7fd6c1b41dd7d6ab7eb6958b7302dad9ac210adadb",
        "537d351de7b375ff49adc9cd35c8a47a43d92bf491e8ec29d32ffe893de87999"),
    ("golden", "distributed"): (
        "1d2d6c9dfcbb34fd701c048030fb8906bf39ec8afe7e1ab7c915d11c9ed51f4c",
        "4122b453971055f25395ac0f32ca9d81103e7fd9db57d9b295879055ee26c092"),
    ("golden", "mac_integrated"): (
        "241b94f785a9190476d9c723039c5c2acaa43d378fc15e80f340e7d8885608ad",
        "a28660b69337e4da6a4b2454578f2914ece50e78f51356c6025d4945e6e3310d"),
    ("idle_night", "centralized"): (
        "4c81d3122bcb5bd4e607829abedc857a7929a47de158a847b4711e23c4d8b571",
        "afe8f3408ee7411b4c7f06512f66ff4e5c6d63ffdb4f09cdd8262eecef454abc"),
    ("idle_night", "distributed"): (
        "a931f8d541ae71845dcced68cfaa7be4328134252ca6746c500ba67573408a96",
        "a705d415ba98a671fbb54cfa1391ccd169be0abacfcde807cf2c11d19ec8a768"),
    ("idle_night", "mac_integrated"): (
        "092ec086564d897a72c9ecfde4f3ec31f9334535377428cef8178d6525af5933",
        "873c0f5f8ba7672b0281b01cdc87c0dd948119b0cd56b653c3a8f0be693dbede"),
    ("idle_night", "phy_relay"): (
        "7d5387acc58f9c69c912c4386b00f202209bec2d4c998e5a47851d7fb56af78c",
        "28545f526021417db646596bf472fb87e1691869aea735f41c1cc6df9fecc23d"),
    ("ofdma_uplink_burst", "centralized"): (
        "2079edff26e49f6b4651136bb9d289ec289e38a379f0a1fe7cd6834dba36b073",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("ofdma_uplink_burst", "distributed"): (
        "cbbd1a784240edeeaca05fd8e7f0914cbf97545a5250f136239cb04b7879baec",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("ofdma_uplink_burst", "mac_integrated"): (
        "bce13b3519993eaffda5e062bca24d7c517a7c71b1106c3814c142c0b6e37680",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("phy_relay_burst", "centralized"): (
        "a4d4840585c4afd9f40a7c4719eb28e3e1f4427708efcb7a7c47159e66804501",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("phy_relay_burst", "distributed"): (
        "5b4a5a646c756bd0f77203a5c7f6e655e86e26dc5521a7d2baf6e25dbc88a8f2",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("phy_relay_burst", "mac_integrated"): (
        "6c056bfd360d3ea7927923f5e30fc85fb8913f0dc74f7e79ec910902768b7ed2",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("phy_relay_burst", "phy_relay"): (
        "c95ec80cd3e2490002a23285c3cbb7013003f1e3680410b850cf197f9f59ca73",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "centralized"): (
        "7e896fced4f73a6e73290036999d74ad57d87394c9014a2f3e961a25b3ce7912",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "distributed"): (
        "c866addce4094f62a2a5ddb2e2e10599c040cf25d909a401b02bfe20b1ab564a",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "mac_integrated"): (
        "faa64f4cea9b68b1d67f87c7bf38a8763482131e2d9193d483b5f386f0d23719",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("provisioning_storm", "phy_relay"): (
        "97cb6d66ae1e80d29c7429a10ac5b5a76da80e6dc16a88f5b4261dbe39ce958a",
        "a803843046f5313cb18c01edda13b2485b53abf860215ba0f79189522e611d9e"),
    ("staged_kill", "centralized"): (
        "cdd35ece7de1a57cd8ed4dc2af535687cd78511698e311428c0209240659c9ce",
        "f338d9dbba59d249f3230511c18adf506eddd66319d5c543c92cfc79e3a59a6c"),
    ("staged_kill", "distributed"): (
        "562e58e24f7904ee405d884a174cae4930b7e80d9526d0e0768d4149a544bd6b",
        "400061c7dce4fd9c72b4ee7bae471447ea60399d805c2657b1ba6acdda6452ec"),
    ("staged_kill", "mac_integrated"): (
        "2489460bb5da9c0533a55ac627b1aedd926e2d2e2ded76e0aa2d5d84c91b5dd9",
        "3056e3f80b867112aeaf83e2c638bb2ac8f0ef760c1b48806a827c0f534e07f2"),
    ("staged_kill", "phy_relay"): (
        "29834e8d2822588de51ae95ece3dc6c8eaf9063af4952432f84627516c5b3a2f",
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
# repr(res.events))
RUN_PINS = {
    ("sleep_deep_wake", "centralized"): (
        "beee432a392963efcc1e50b8e0cd935df4b4fc6ce68227fdafd7f467cd850fa0",
        "27aecd51dd70386d137bfec2c892ec1dd632f87f6158fb4c2ce9fe6674369350",
        "892c821164400eb8e3d2658fe6aa441a47114021391f6a0adfbcd64b9896ae15",
        "09dc764fe476ebd02f919c8e126bb7894d101ba0a43020d59ef5cd1a604b2447"),
    ("sleep_deep_wake", "distributed"): (
        "954d9687b9bb68bef29e8f5e8990e5c279eccf4a00286375913933eda881ccd7",
        "b167da573fddcff0ad3b23c7c580314be325799ca8cb4ca5ad3165e7d56dc025",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "09dc764fe476ebd02f919c8e126bb7894d101ba0a43020d59ef5cd1a604b2447"),
    ("storm_kill_bursts", "centralized"): (
        "221df843b905afd97f0ad4b8ebbc9d30130a115fda434baa51da57043da09aae",
        "bafe1e01724777eeb67776754f779c4a1344c72e29e6721eb274fac85bc9518e",
        "735bba9af8be25dcb6c973b12f656cbe71b2b767fb2382a2def8930418390845",
        "807d1a52a71632bc5e71f35debe371ee29c4206362cc27ee95fb7f6e4c1ba615"),
    ("storm_kill_bursts", "phy_relay"): (
        "7f543c6ae86d2572d8015e1cde58536cbaaa36a365c19aa0b6665a49c739ae38",
        "c9a49b2224e9ff53cbbbbace35a10d593285152029794a1e968cc12f87e90b5f",
        "a5950ef314d3bf66537237158b2727f89885a9b229021a216a4cddffdeebccde",
        "807d1a52a71632bc5e71f35debe371ee29c4206362cc27ee95fb7f6e4c1ba615"),
    ("iot_rf_off_overflow", "centralized"): (
        "d79a973fe6e5d9959636849c668b4c0eed2f3450f712e6b2aa02b7a5049b0157",
        "d4eae6b6d98aff5f1e3d3053620229f5e6ff1bccbf5fa4500bb9bd415021938f",
        "5394af2530423c04f22588f6be62e7aa22c126586ce1d269d7cfebfa1d9d76a4",
        "eda1d957f9eea5d3ed3e8854aeb1d6e4340980dc64c0043a806c8bbed54b3127"),
    ("iot_rf_off_overflow", "distributed"): (
        "b1d186da7d45bbdf0fab5da879bfba0fc42295670d57f1eea6de75cff2652f10",
        "4869d77470a26af6aaeee703d57eeced96322dfe7e3993de74e2c4b20beb41ce",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "eda1d957f9eea5d3ed3e8854aeb1d6e4340980dc64c0043a806c8bbed54b3127"),
}


def _run(name: str, mode: str):
    return run_scenario_config(parse_scenario(RUNS[name], {"mode": mode}))


@pytest.mark.parametrize("name,mode", sorted(RUN_PINS))
def test_run_outputs_match_pin(name, mode):
    res = _run(name, mode)
    summary = build_summary(res)
    got = (_sha(summary_bytes(summary)), _sha(flow_table_bytes(summary)),
           _sha(schedule_dump_bytes(res)), _sha(repr(res.events).encode()))
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
