"""Scenario configuration: YAML schema, defaults and validation.

A scenario file is the unit of reproducibility: topology, link parameters,
scheduler mode, traffic flows, power profiles and the seed. CLI flags may
override scalar fields. Validation errors carry the config-path of the
offending field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .energy import PowerProfile, PowerState
from .links import WifiOverhead
from .scheduling import SchedulerMode


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


SERVICE_CLASSES = ("control", "video", "gaming", "background", "iot")
ARRIVAL_MODELS = ("constant_rate", "on_off", "batch")


@dataclass
class FlowSpec:
    name: str
    dst: str                      # target SFU
    service_class: str
    priority: int
    size_bytes: int
    model: str
    rate_mbps: float = 0.0
    on_ms: float = 0.0
    off_ms: float = 0.0
    count: int = 0
    interval_us: float = 0.0
    start_ms: float = 0.0
    stop_ms: float | None = None


@dataclass
class UplinkBurstSpec:
    sfu: str
    period_us: float
    air_duration_us: float
    rus: list[tuple[str, int]]
    start_ms: float = 0.0
    coordinated: bool = True


@dataclass
class KillSpec:
    sfu: str
    at_ms: float
    recover_ms: float | None = None


@dataclass
class StormSpec:
    count: int
    targets: list[str]
    entity_class: int = 100
    content_bytes: int = 8


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    horizon_ns: int
    mode: SchedulerMode
    sfus: list[str]
    iot_sfus: set[str]
    conflicts: list[tuple[str, str]]
    downstream_bps: int
    upstream_bps: int
    prop_delay_ns: int
    air_rate_bps: int
    wifi_overhead: WifiOverhead
    txop_max_ns: int
    status_cycle_ns: int
    control_delay_ns: int
    alloc_cycle_ns: int
    guard_ns: int
    omci_slot_ns: int
    min_slot_ns: int
    flows: list[FlowSpec]
    uplink_bursts: list[UplinkBurstSpec]
    poll_cycle_ns: int
    k_miss: int
    storm: StormSpec | None
    kill: KillSpec | None
    olt_pipe_ns: int
    savings_enabled: bool
    t_act_idle_ns: int
    t_idle_sleep_ns: int
    sfu_profile: PowerProfile
    mfu_profile: PowerProfile
    ftth_active_w: float
    ftth_idle_w: float
    sleep_buffer_frames: int
    proc_mfu_ns: int
    proc_sfu_ns: int
    sample_rate_sps: int
    bit_width: int
    relay_buffer_bytes: int
    per_sta_overhead: int
    dump_schedule: bool = False


_DEFAULT_SFU_WATTS = {
    PowerState.ACTIVE: 4.5,
    PowerState.IDLE: 3.0,
    PowerState.REDUCED_TX: 2.5,
    PowerState.RF_OFF: 2.0,
    PowerState.LIGHT_SLEEP: 1.0,
    PowerState.DEEP_SLEEP: 0.3,
}
_DEFAULT_MFU_WATTS = {
    PowerState.ACTIVE: 8.0,
    PowerState.IDLE: 6.0,
}


def _req(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}", "required field missing")
    return d[key]


def _num(value, path: str, positive=False, nonneg=False):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(path, f"expected number, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(path, f"must be > 0, got {value}")
    if nonneg and value < 0:
        raise ConfigError(path, f"must be >= 0, got {value}")
    return value


def _ns_from_ms(v: float) -> int:
    return int(round(v * 1_000_000))


def _ns_from_us(v: float) -> int:
    return int(round(v * 1_000))


def load_scenario(path: str | Path, overrides: dict | None = None) -> ScenarioConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "scenario file must be a mapping")
    return parse_scenario(raw, overrides or {})


def parse_scenario(raw: dict, overrides: dict | None = None) -> ScenarioConfig:
    overrides = overrides or {}
    name = raw.get("name", "scenario")
    seed = int(overrides.get("seed", raw.get("seed", 1)))
    horizon_ms = _num(overrides.get("duration_ms",
                                    _req(raw, "horizon_ms", "<root>")),
                      "horizon_ms", positive=True)
    mode_str = str(overrides.get("mode", raw.get("mode", "centralized")))
    try:
        mode = SchedulerMode(mode_str)
    except ValueError:
        raise ConfigError("mode", f"unknown scheduler mode {mode_str!r}")

    topo = _req(raw, "topology", "<root>")
    sfu_items = _req(topo, "sfus", "topology")
    if not sfu_items:
        raise ConfigError("topology.sfus", "at least one SFU required")
    sfus, iot_sfus = [], set()
    for i, item in enumerate(sfu_items):
        if isinstance(item, str):
            sfus.append(item)
        elif isinstance(item, dict):
            sfus.append(_req(item, "name", f"topology.sfus[{i}]"))
            if item.get("iot_resident"):
                iot_sfus.add(item["name"])
        else:
            raise ConfigError(f"topology.sfus[{i}]", "expected name or mapping")
    if len(set(sfus)) != len(sfus):
        raise ConfigError("topology.sfus", "duplicate SFU names")
    conflicts = []
    for i, pair in enumerate(topo.get("conflicts", [])):
        if len(pair) != 2:
            raise ConfigError(f"topology.conflicts[{i}]", "expected a pair")
        a, b = pair
        for n in (a, b):
            if n not in sfus:
                raise ConfigError(f"topology.conflicts[{i}]",
                                  f"unknown SFU {n!r}")
        if a == b:
            raise ConfigError(f"topology.conflicts[{i}]", "self-conflict")
        conflicts.append((a, b))

    optical = raw.get("optical", {})
    downstream_bps = int(_num(optical.get("downstream_gbps", 1.0),
                              "optical.downstream_gbps", positive=True) * 1e9)
    upstream_bps = int(_num(optical.get("upstream_gbps", 1.0),
                            "optical.upstream_gbps", positive=True) * 1e9)
    prop_delay_ns = int(_num(optical.get("prop_delay_ns", 50),
                             "optical.prop_delay_ns", nonneg=True))

    wifi = raw.get("wifi", {})
    air_rate_bps = int(_num(wifi.get("air_rate_mbps", 1200.0),
                            "wifi.air_rate_mbps", positive=True) * 1e6)
    overhead = WifiOverhead(
        difs_ns=_ns_from_us(wifi.get("difs_us", 34)),
        sifs_ns=_ns_from_us(wifi.get("sifs_us", 16)),
        slot_ns=_ns_from_us(wifi.get("slot_us", 9)),
        cw_min=int(wifi.get("cw_min", 15)),
        cw_max=int(wifi.get("cw_max", 1023)),
        preamble_ns=_ns_from_us(wifi.get("preamble_us", 40)),
        ack_ns=_ns_from_us(wifi.get("ack_us", 28)),
    )
    try:
        overhead.validate()
    except ValueError as exc:
        raise ConfigError("wifi", str(exc))
    txop_max_ns = _ns_from_us(_num(wifi.get("txop_max_us", 2400),
                                   "wifi.txop_max_us", positive=True))

    control = raw.get("control", {})
    status_cycle_ns = _ns_from_us(_num(control.get("status_cycle_us", 5000),
                                       "control.status_cycle_us", positive=True))
    control_delay_ns = _ns_from_us(_num(control.get("control_delay_us", 5),
                                        "control.control_delay_us", nonneg=True))
    alloc_cycle_ns = _ns_from_us(_num(control.get("alloc_cycle_us", 250),
                                      "control.alloc_cycle_us", positive=True))
    guard_ns = int(_num(control.get("guard_ns", 100), "control.guard_ns",
                        nonneg=True))
    omci_slot_ns = _ns_from_us(_num(control.get("omci_slot_us", 10),
                                    "control.omci_slot_us", positive=True))
    min_slot_ns = _ns_from_us(_num(control.get("min_slot_us", 5),
                                   "control.min_slot_us", positive=True))

    flows = []
    for i, f in enumerate(raw.get("flows", [])):
        p = f"flows[{i}]"
        dst = _req(f, "dst", p)
        if dst not in sfus:
            raise ConfigError(f"{p}.dst", f"unknown SFU {dst!r}")
        sc = f.get("service_class", "video")
        if sc not in SERVICE_CLASSES:
            raise ConfigError(f"{p}.service_class", f"unknown class {sc!r}")
        prio = int(_num(f.get("priority", 4), f"{p}.priority", nonneg=True))
        if prio > 7:
            raise ConfigError(f"{p}.priority", "priority must be 0..7")
        model = f.get("model", "constant_rate")
        if model not in ARRIVAL_MODELS:
            raise ConfigError(f"{p}.model", f"unknown model {model!r}")
        flows.append(FlowSpec(
            name=f.get("name", f"flow{i}"),
            dst=dst, service_class=sc, priority=prio,
            size_bytes=int(_num(_req(f, "size_bytes", p), f"{p}.size_bytes",
                                positive=True)),
            model=model,
            rate_mbps=_num(f.get("rate_mbps", 0.0), f"{p}.rate_mbps", nonneg=True),
            on_ms=_num(f.get("on_ms", 0.0), f"{p}.on_ms", nonneg=True),
            off_ms=_num(f.get("off_ms", 0.0), f"{p}.off_ms", nonneg=True),
            count=int(_num(f.get("count", 0), f"{p}.count", nonneg=True)),
            interval_us=_num(f.get("interval_us", 0.0), f"{p}.interval_us",
                             nonneg=True),
            start_ms=_num(f.get("start_ms", 0.0), f"{p}.start_ms", nonneg=True),
            stop_ms=f.get("stop_ms"),
        ))
        # the interarrival time divides by the rate in whole bit/s
        if model != "batch" and int(flows[-1].rate_mbps * 1e6) <= 0:
            raise ConfigError(f"{p}.rate_mbps",
                              f"{model} flow needs rate_mbps > 0 "
                              "(at least 1 bit/s)")
        if model == "on_off" and flows[-1].on_ms <= 0:
            raise ConfigError(f"{p}.on_ms", "on_off flow needs on_ms > 0")
        if model == "batch" and flows[-1].count <= 0:
            raise ConfigError(f"{p}.count", "batch flow needs count > 0")
        # flows are keyed by name in the run and in flows.csv
        if any(prev.name == flows[-1].name for prev in flows[:-1]):
            raise ConfigError(f"{p}.name",
                              f"duplicate flow name {flows[-1].name!r}")

    bursts = []
    for i, b in enumerate(raw.get("uplink_bursts", [])):
        p = f"uplink_bursts[{i}]"
        sfu = _req(b, "sfu", p)
        if sfu not in sfus:
            raise ConfigError(f"{p}.sfu", f"unknown SFU {sfu!r}")
        rus = [(str(r.get("sta", f"sta{j}")), int(_num(_req(r, "bytes", f"{p}.rus[{j}]"),
                                                       f"{p}.rus[{j}].bytes", nonneg=True)))
               for j, r in enumerate(b.get("rus", []))]
        bursts.append(UplinkBurstSpec(
            sfu=sfu,
            period_us=_num(_req(b, "period_us", p), f"{p}.period_us", positive=True),
            air_duration_us=_num(_req(b, "air_duration_us", p),
                                 f"{p}.air_duration_us", positive=True),
            rus=rus,
            start_ms=_num(b.get("start_ms", 0.0), f"{p}.start_ms", nonneg=True),
            coordinated=bool(b.get("coordinated", True)),
        ))

    mgmt = raw.get("management", {})
    poll_cycle_ns = _ns_from_ms(_num(mgmt.get("poll_cycle_ms", 1000),
                                     "management.poll_cycle_ms", positive=True))
    k_miss = int(_num(mgmt.get("k_miss", 2), "management.k_miss", positive=True))
    storm = None
    if "storm" in mgmt:
        s = mgmt["storm"]
        targets = s.get("targets", sfus)
        for t in targets:
            if t not in sfus:
                raise ConfigError("management.storm.targets", f"unknown SFU {t!r}")
        storm = StormSpec(count=int(_num(_req(s, "count", "management.storm"),
                                         "management.storm.count", positive=True)),
                          targets=list(targets),
                          entity_class=int(s.get("entity_class", 100)),
                          content_bytes=int(s.get("content_bytes", 8)))
    kill = None
    if "kill" in mgmt:
        k = mgmt["kill"]
        sfu = _req(k, "sfu", "management.kill")
        if sfu not in sfus:
            raise ConfigError("management.kill.sfu", f"unknown SFU {sfu!r}")
        kill = KillSpec(sfu=sfu,
                        at_ms=_num(_req(k, "at_ms", "management.kill"),
                                   "management.kill.at_ms", nonneg=True),
                        recover_ms=k.get("recover_ms"))
    olt_pipe_ns = _ns_from_us(_num(mgmt.get("olt_pipe_us", 20),
                                   "management.olt_pipe_us", nonneg=True))

    en = raw.get("energy", {})
    savings = bool(en.get("savings_enabled", True))
    t_act_idle_ns = _ns_from_ms(_num(en.get("t_act_idle_ms", 100),
                                     "energy.t_act_idle_ms", positive=True))
    t_idle_sleep_ns = _ns_from_ms(_num(en.get("t_idle_sleep_ms", 10_000),
                                       "energy.t_idle_sleep_ms", positive=True))

    def profile(key: str, defaults: dict) -> PowerProfile:
        section = en.get(key, {})
        watts = dict(defaults)
        for state_name, w in section.get("watts", {}).items():
            try:
                state = PowerState(state_name)
            except ValueError:
                raise ConfigError(f"energy.{key}.watts", f"unknown state {state_name!r}")
            watts[state] = _num(w, f"energy.{key}.watts.{state_name}", positive=True)
        prof = PowerProfile(
            watts=watts,
            wake_light_ns=_ns_from_ms(section.get("wake_light_ms", 10)),
            wake_deep_ns=_ns_from_ms(section.get("wake_deep_ms", 100)),
            t_listen_ns=_ns_from_ms(section.get("t_listen_ms", 1000)),
        )
        try:
            prof.validate()
        except ValueError as exc:
            raise ConfigError(f"energy.{key}", str(exc))
        return prof

    relay = raw.get("phy_relay", {})

    cfg = ScenarioConfig(
        name=name, seed=seed, horizon_ns=_ns_from_ms(horizon_ms), mode=mode,
        sfus=sfus, iot_sfus=iot_sfus, conflicts=conflicts,
        downstream_bps=downstream_bps, upstream_bps=upstream_bps,
        prop_delay_ns=prop_delay_ns, air_rate_bps=air_rate_bps,
        wifi_overhead=overhead, txop_max_ns=txop_max_ns,
        status_cycle_ns=status_cycle_ns, control_delay_ns=control_delay_ns,
        alloc_cycle_ns=alloc_cycle_ns, guard_ns=guard_ns,
        omci_slot_ns=omci_slot_ns, min_slot_ns=min_slot_ns,
        flows=flows, uplink_bursts=bursts,
        poll_cycle_ns=poll_cycle_ns, k_miss=k_miss, storm=storm, kill=kill,
        olt_pipe_ns=olt_pipe_ns,
        savings_enabled=savings, t_act_idle_ns=t_act_idle_ns,
        t_idle_sleep_ns=t_idle_sleep_ns,
        sfu_profile=profile("sfu", _DEFAULT_SFU_WATTS),
        mfu_profile=profile("mfu", _DEFAULT_MFU_WATTS),
        ftth_active_w=_num(en.get("ftth_active_w", 13.0), "energy.ftth_active_w",
                           positive=True),
        ftth_idle_w=_num(en.get("ftth_idle_w", 12.0), "energy.ftth_idle_w",
                         positive=True),
        sleep_buffer_frames=int(_num(en.get("sleep_buffer_frames", 4096),
                                     "energy.sleep_buffer_frames", positive=True)),
        proc_mfu_ns=_ns_from_us(raw.get("processing", {}).get(
            "mfu_us", {"distributed": 0, "centralized": 0,
                       "mac_integrated": 25, "phy_relay": 30}[mode.value])),
        proc_sfu_ns=_ns_from_us(raw.get("processing", {}).get(
            "sfu_us", {"distributed": 20, "centralized": 20,
                       "mac_integrated": 0, "phy_relay": 0}[mode.value])),
        sample_rate_sps=int(_num(relay.get("sample_rate_msps", 160),
                                 "phy_relay.sample_rate_msps", positive=True) * 1e6),
        bit_width=int(_num(relay.get("bit_width", 24), "phy_relay.bit_width",
                           positive=True)),
        relay_buffer_bytes=int(_num(relay.get("buffer_bytes", 10_000_000),
                                    "phy_relay.buffer_bytes", positive=True)),
        per_sta_overhead=int(_num(raw.get("per_sta_overhead", 0),
                                  "per_sta_overhead", nonneg=True)),
        dump_schedule=bool(overrides.get("dump_schedule",
                                         raw.get("dump_schedule", False))),
    )
    return cfg
