import os
import subprocess
import sys
from pathlib import Path

import pytest

from fttrsim.energy import PowerProfile
from fttrsim.frames import Tamap
from fttrsim.links import WifiOverhead
from fttrsim.scenario import load_scenario, parse_scenario, ConfigError
from fttrsim.scheduling import SchedulerMode

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def minimal(**extra):
    raw = {"horizon_ms": 10, "topology": {"sfus": ["a", "b"]}}
    raw.update(extra)
    return raw


def test_shipped_scenarios_all_parse():
    files = sorted(SCENARIO_DIR.glob("*.yaml"))
    assert len(files) >= 6
    for f in files:
        cfg = load_scenario(f)
        assert cfg.horizon_ns > 0 and cfg.sfus


def test_defaults_fill_in():
    cfg = parse_scenario(minimal())
    assert cfg.mode is SchedulerMode.CENTRALIZED_COORDINATED
    assert cfg.alloc_cycle_ns == 250_000
    assert cfg.downstream_bps == 1_000_000_000
    assert cfg.poll_cycle_ns == 1_000_000_000
    assert cfg.savings_enabled is True
    assert cfg.proc_sfu_ns == 20_000 and cfg.proc_mfu_ns == 0


def test_times_round_to_whole_ns_and_rates_truncate_to_whole_bits():
    # flow, burst and kill times as well: 1.001 ms is 1,000,999.99... ns
    # as a float
    cfg = parse_scenario(minimal(
        horizon_ms=2.0000006, wifi={"air_rate_mbps": 1.0000009},
        flows=[{**FLOW, "rate_mbps": 1.0000009, "start_ms": 1.001,
                "interval_us": 1.001}],
        uplink_bursts=[{**BURST, "period_us": 1.001, "start_ms": 1.001}],
        management={"kill": {"sfu": "a", "at_ms": 1.001}}))
    assert cfg.horizon_ns == 2_000_001
    assert cfg.air_rate_bps == 1_000_000
    flow, burst = cfg.flows[0], cfg.uplink_bursts[0]
    assert flow.rate_bps == 1_000_000
    assert flow.start_ns == 1_001_000 and flow.interval_ns == 1_001
    assert burst.start_ns == 1_001_000 and burst.period_ns == 1_001
    assert cfg.kill.at_ns == 1_001_000


def test_processing_defaults_follow_mode():
    cfg = parse_scenario(minimal(mode="centralized"))
    assert cfg.proc_mfu_ns == 0 and cfg.proc_sfu_ns == 20_000
    cfg = parse_scenario(minimal(mode="phy_relay"))
    assert cfg.proc_mfu_ns == 30_000


def test_missing_horizon_reports_path():
    with pytest.raises(ConfigError) as exc:
        parse_scenario({"topology": {"sfus": ["a"]}})
    assert "horizon_ms" in str(exc.value)


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError):
        parse_scenario(minimal(mode="quantum"))


def test_duplicate_sfu_names_rejected():
    with pytest.raises(ConfigError):
        parse_scenario({"horizon_ms": 1, "topology": {"sfus": ["a", "a"]}})


def test_at_most_255_rooms():
    rooms = [f"r{i:03d}" for i in range(256)]
    with pytest.raises(ConfigError) as exc:
        parse_scenario({"horizon_ms": 1, "topology": {"sfus": rooms}})
    assert exc.value.path == "topology.sfus"
    cfg = parse_scenario({"horizon_ms": 1, "topology": {"sfus": rooms[:255]}})
    assert len(cfg.sfus) == 255


def test_duplicate_flow_names_rejected():
    flows = [{"name": "f", "dst": "a", "size_bytes": 1500, "rate_mbps": 10},
             {"name": "f", "dst": "b", "size_bytes": 500, "rate_mbps": 1}]
    with pytest.raises(ConfigError, match=r"flows\[1\]\.name"):
        parse_scenario(minimal(flows=flows))
    # an explicit name may not take the default name of another flow
    flows = [{"dst": "a", "size_bytes": 1500, "rate_mbps": 10},
             {"name": "flow0", "dst": "b", "size_bytes": 500, "rate_mbps": 1}]
    with pytest.raises(ConfigError):
        parse_scenario(minimal(flows=flows))


def test_conflict_validation():
    with pytest.raises(ConfigError):
        parse_scenario(minimal(topology={"sfus": ["a", "b"],
                                         "conflicts": [["a", "a"]]}))
    with pytest.raises(ConfigError):
        parse_scenario(minimal(topology={"sfus": ["a", "b"],
                                         "conflicts": [["a", "zz"]]}))


def test_flow_destination_must_exist():
    with pytest.raises(ConfigError) as exc:
        parse_scenario(minimal(flows=[{"dst": "attic", "size_bytes": 100}]))
    assert "flows[0].dst" in str(exc.value)


def test_flow_field_validation():
    with pytest.raises(ConfigError):
        parse_scenario(minimal(flows=[{"dst": "a", "size_bytes": 100,
                                       "priority": 9}]))
    with pytest.raises(ConfigError):  # constant_rate needs a rate
        parse_scenario(minimal(flows=[{"dst": "a", "size_bytes": 100}]))
    with pytest.raises(ConfigError):
        parse_scenario(minimal(flows=[{"dst": "a", "size_bytes": 100,
                                       "model": "batch"}]))
    with pytest.raises(ConfigError):
        parse_scenario(minimal(flows=[{"dst": "a", "size_bytes": 100,
                                       "service_class": "telepathy",
                                       "rate_mbps": 1}]))


def test_on_off_flow_without_rate_rejected():
    # used to raise ZeroDivisionError at the second arrival
    with pytest.raises(ConfigError) as exc:
        parse_scenario(minimal(flows=[{"dst": "a", "size_bytes": 100,
                                       "model": "on_off", "rate_mbps": 0,
                                       "on_ms": 5, "off_ms": 5}]))
    assert "flows[0].rate_mbps" in str(exc.value)
    # a rate below 1 bit/s truncates to a zero rate as well
    with pytest.raises(ConfigError):
        parse_scenario(minimal(flows=[{"dst": "a", "size_bytes": 100,
                                       "rate_mbps": 1e-7}]))


def test_on_off_flow_without_on_period_rejected():
    # on_ms = off_ms = 0 used to fire arrivals at one timestamp forever
    with pytest.raises(ConfigError) as exc:
        parse_scenario(minimal(flows=[{"dst": "a", "size_bytes": 100,
                                       "model": "on_off", "rate_mbps": 1,
                                       "on_ms": 0, "off_ms": 0}]))
    assert "flows[0].on_ms" in str(exc.value)


def test_wifi_parameters_validated():
    with pytest.raises(ConfigError):
        parse_scenario(minimal(wifi={"cw_min": 14}))
    with pytest.raises(ConfigError):
        parse_scenario(minimal(wifi={"air_rate_mbps": -1}))


def test_kill_and_storm_target_validation():
    with pytest.raises(ConfigError):
        parse_scenario(minimal(management={"kill": {"sfu": "x", "at_ms": 1}}))
    with pytest.raises(ConfigError):
        parse_scenario(minimal(management={"storm": {"count": 5,
                                                     "targets": ["x"]}}))


def test_energy_profile_override_and_validation():
    cfg = parse_scenario(minimal(energy={"sfu": {"watts": {"active": 6.0}}}))
    from fttrsim.energy import PowerState
    assert cfg.sfu_profile.watts[PowerState.ACTIVE] == 6.0
    for node in ("sfu", "mfu"):
        for state in ("warp", "reduced_tx"):  # unknown power states
            with pytest.raises(ConfigError,
                               match=f"energy.{node}.watts: unknown state"):
                parse_scenario(minimal(energy={node: {"watts": {state: 1}}}))
    with pytest.raises(ConfigError):  # ordering violated
        parse_scenario(minimal(energy={"sfu": {"watts": {"active": 0.1}}}))


def test_iot_marker_parsed():
    cfg = parse_scenario({"horizon_ms": 1, "topology": {
        "sfus": ["a", {"name": "b", "iot_resident": True}]}})
    assert cfg.iot_sfus == {"b"}


def test_overrides_take_precedence():
    raw = minimal(seed=3, mode="centralized")
    cfg = parse_scenario(raw, {"seed": 42, "mode": "distributed",
                               "duration_ms": 5})
    assert cfg.seed == 42
    assert cfg.mode is SchedulerMode.DISTRIBUTED_BASELINE
    assert cfg.horizon_ns == 5_000_000


NAN = float("nan")
FLOW = {"dst": "a", "size_bytes": 100, "rate_mbps": 1}
BURST = {"sfu": "a", "period_us": 1000, "air_duration_us": 10,
         "rus": [{"sta": "s", "bytes": 100}]}


@pytest.mark.parametrize("extra,path", [
    ({"flows": [{**FLOW, "stop_ms": "soon"}]}, "flows[0].stop_ms"),
    ({"seed": "x"}, "seed"),
    ({"management": {"kill": {"sfu": "a", "at_ms": 1, "recover_ms": "later"}}},
     "management.kill.recover_ms"),
    ({"management": {"kill": {"sfu": "a", "at_ms": 3, "recover_ms": 1}}},
     "management.kill.recover_ms"),
    ({"flows": [{**FLOW, "size_bytes": 65521}]}, "flows[0].size_bytes"),
    ({"management": {"storm": {"count": 2, "entity_class": 65536}}},
     "management.storm.entity_class"),
    ({"management": {"storm": {"count": 2, "entity_class": -1}}},
     "management.storm.entity_class"),
    ({"management": {"storm": {"count": 2, "content_bytes": -1}}},
     "management.storm.content_bytes"),
    ({"management": {"storm": {"count": 2, "targets": []}}},
     "management.storm.targets"),
    ({"uplink_bursts": [{**BURST, "coordinated": "no"}]},
     "uplink_bursts[0].coordinated"),
    ({"energy": {"savings_enabled": "no"}}, "energy.savings_enabled"),
    ({"topology": {"sfus": ["a", {"name": "b", "iot_resident": "yes"}]}},
     "topology.sfus[1].iot_resident"),
    ({"dump_schedule": 1}, "dump_schedule"),
    ({"wifi": 5}, "wifi"),
    ({"flows": ["x"]}, "flows[0]"),
    ({"uplink_bursts": [5]}, "uplink_bursts[0]"),
    ({"topology": {"sfus": ["a", "b"], "conflicts": ["ab"]}},
     "topology.conflicts[0]"),
    ({"wifi": {"difs_us": "x"}}, "wifi.difs_us"),
    ({"wifi": {"cw_min": "x"}}, "wifi.cw_min"),
    ({"energy": {"sfu": {"wake_light_ms": "x"}}}, "energy.sfu.wake_light_ms"),
    ({"energy": {"sfu": {"t_listen_ms": 0}}}, "energy.sfu"),
    ({"processing": {"mfu_us": "x"}}, "processing.mfu_us"),
    # not lists
    ({"flows": 5}, "flows"),
    ({"flows": "ab"}, "flows"),
    ({"uplink_bursts": 5}, "uplink_bursts"),
    ({"topology": {"sfus": 5}}, "topology.sfus"),
    ({"topology": {"sfus": "ab"}}, "topology.sfus"),
    ({"topology": {"sfus": {"a": 1}}}, "topology.sfus"),
    ({"topology": {"sfus": ["a", "b"], "conflicts": 5}}, "topology.conflicts"),
    ({"uplink_bursts": [{**BURST, "rus": 5}]}, "uplink_bursts[0].rus"),
    ({"management": {"storm": {"count": 2, "targets": "ab"}}},
     "management.storm.targets"),
    # not finite
    ({"horizon_ms": NAN}, "horizon_ms"),
    ({"flows": [{**FLOW, "rate_mbps": float("inf")}]}, "flows[0].rate_mbps"),
    ({"flows": [{**FLOW, "stop_ms": NAN}]}, "flows[0].stop_ms"),
    ({"management": {"kill": {"sfu": "a", "at_ms": NAN}}},
     "management.kill.at_ms"),
    ({"control": {"alloc_cycle_us": NAN}}, "control.alloc_cycle_us"),
    ({"energy": {"sfu": {"watts": {"active": NAN}}}},
     "energy.sfu.watts.active"),
    # names that are not strings
    ({"topology": {"sfus": [{"name": ["x"]}]}}, "topology.sfus[0].name"),
    ({"flows": [{**FLOW, "name": ["x"]}]}, "flows[0].name"),
    # within bounds only before truncation to whole units
    ({"management": {"k_miss": 0.5}}, "management.k_miss"),
    ({"flows": [{**FLOW, "size_bytes": 0.5}]}, "flows[0].size_bytes"),
    ({"horizon_ms": 1e-7}, "horizon_ms"),
    # keys the schema does not know
    ({"energy": {"savings_enabeld": False}}, "energy.savings_enabeld"),
    ({"horizon": 5}, "horizon"),
    ({"wifi": {"difs": 30}}, "wifi.difs"),
    ({"flows": [{**FLOW, "rate": 1}]}, "flows[0].rate"),
    ({"topology": {"sfus": ["a", {"name": "b", "iot": True}]}},
     "topology.sfus[1].iot"),
    ({"uplink_bursts": [{**BURST, "rus": [{"bytes": 1, "mcs": 7}]}]},
     "uplink_bursts[0].rus[0].mcs"),
    ({"management": {"storm": {"count": 2, "target": ["a"]}}},
     "management.storm.target"),
    ({"energy": {"mfu": {"wake_light": 5}}}, "energy.mfu.wake_light"),
    # a flow that would stop before it starts
    ({"flows": [{**FLOW, "start_ms": 5, "stop_ms": 2}]}, "flows[0].stop_ms"),
    # the names of the MFU and the OLT, whose RNG substreams and event
    # targets a room would share
    ({"topology": {"sfus": ["a", "olt"]}}, "topology.sfus[1]"),
    ({"topology": {"sfus": [{"name": "mfu"}, "a"]}}, "topology.sfus[0]"),
    # within bounds only before rounding to whole ns: each used to run
    # forever on a 0 ns burst period or on_off on period
    ({"uplink_bursts": [{**BURST, "period_us": 0.0001}]},
     "uplink_bursts[0].period_us"),
    ({"flows": [{**FLOW, "model": "on_off", "on_ms": 1e-7}]}, "flows[0].on_ms"),
])
def test_malformed_fields_rejected_with_path(extra, path):
    # each used to raise a raw exception while parsing or running, or was
    # accepted and misread or ignored
    with pytest.raises(ConfigError) as exc:
        parse_scenario(minimal(**extra))
    assert exc.value.path == path


def test_largest_frame_and_equal_kill_times_accepted():
    cfg = parse_scenario(minimal(
        flows=[{**FLOW, "size_bytes": 65520}],
        management={"kill": {"sfu": "a", "at_ms": 3, "recover_ms": 3},
                    "storm": {"count": 1, "entity_class": 65535,
                              "content_bytes": 0}}))
    assert cfg.flows[0].size_bytes == 65520
    assert cfg.kill.recover_ns == cfg.kill.at_ns == 3_000_000
    assert cfg.storm.entity_class == 65535


def key_rows() -> list[tuple]:
    """A row per scenario key: (field, key, prefix, leaf, default, check,
    convert, bounds)."""
    from fttrsim import scenario as sc
    tables = [sc._SCENARIO_TABLE, sc._SFU_TABLE, sc._RU_TABLE,
              sc._PROFILE_TABLE] + [
        sc._table(cls._keys) for cls in (sc.FlowSpec, sc.UplinkBurstSpec,
                                         sc.StormSpec, sc.KillSpec)]
    return [row for rows, _ in tables for row in rows]


def test_every_scenario_key_is_documented():
    doc = (SCENARIO_DIR.parent / "docs" / "FORMATS.md").read_text()
    doc = doc[doc.index("## Scenario file"):doc.index("## summary.json")]
    for row in key_rows():
        assert f"| `{row[1]}` |" in doc, row[1]


def test_every_time_and_rate_key_converts_as_it_is_read():
    # a run gets whole ns and bit/s from the parser, so it converts no unit
    # itself
    from fttrsim import scenario as sc
    by_unit = {"_ms": sc._ms, "_us": sc._us, "_mbps": sc._mega,
               "_msps": sc._mega, "_gbps": sc._giga}
    for row in key_rows():
        key, convert = row[1], row[6]
        units = [u for u in by_unit if key.endswith(u)]
        if units:
            assert convert is by_unit[units[0]], key
        else:
            assert convert not in by_unit.values(), key


@pytest.mark.parametrize("module", ["yaml", "dataclasses", "inspect"])
def test_run_path_does_not_import(module):
    # only load_scenario parses YAML, so a run built from a dict does not
    # pay for importing it; and no record is a dataclass: that module and
    # the inspect it pulls in cost about as much to import as the
    # simulator's own modules
    code = ("import sys, fttrsim.scenario, fttrsim.simulation, "
            f"fttrsim.metrics; print({module!r} in sys.modules)")
    src = str(SCENARIO_DIR.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_records_take_exactly_their_fields_and_compare_by_them():
    from fttrsim.scenario import _Record

    class Pair(_Record):
        a: int
        b: str

    assert Pair(a=1, b="x") == Pair(b="x", a=1)
    assert Pair(a=1, b="x") != Pair(a=2, b="x")
    assert Pair(a=1, b="x") != (1, "x")
    assert Pair.__hash__ is None
    for fields in ({"a": 1}, {"a": 1, "b": "x", "c": 0}, {}):
        with pytest.raises(TypeError):
            Pair(**fields)
    with pytest.raises(TypeError):
        Pair(1, "x")
    cfg = parse_scenario(minimal())
    assert cfg == parse_scenario(minimal())
    assert cfg != parse_scenario(minimal(seed=2))


def test_scenario_key_table_keeps_declaration_order():
    from fttrsim import scenario as sc
    keyed = list(sc.ScenarioConfig._keys)
    assert keyed[:5] == ["name", "seed", "horizon_ns", "mode", "sfus"]
    assert keyed == [f for f in sc.ScenarioConfig.__annotations__
                     if f not in ("iot_sfus", "wifi_overhead")]
    # no class attribute shadows a field: CPython 3.11 reads a shadowed
    # one about three times as slowly
    for cls in (sc.FlowSpec, sc.UplinkBurstSpec, sc.KillSpec, sc.StormSpec,
                sc.ScenarioConfig):
        assert not any(hasattr(cls, f) for f in cls.__annotations__), cls


@pytest.mark.parametrize("record,field", [
    (WifiOverhead(), "cw_min"), (PowerProfile({}), "wake_light_ns"),
    (Tamap(0), "cycle_start")], ids=["WifiOverhead", "PowerProfile", "Tamap"])
def test_immutable_records_refuse_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
