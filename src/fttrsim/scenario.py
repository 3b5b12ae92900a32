"""Scenario configuration: YAML schema, defaults and validation.

A scenario file is the unit of reproducibility: topology, link parameters,
scheduler mode, traffic flows, power profiles and the seed. CLI flags may
override scalar fields. Validation errors carry the config-path of the
offending field.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .energy import PowerProfile, PowerState
from .frames import APDU_OVERHEAD, FEM_MAX_PAYLOAD, SERVICE_CLASSES
from .links import WifiOverhead
from .scheduling import PROCESSING_NS, SchedulerMode


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


ARRIVAL_MODELS = ("constant_rate", "on_off", "batch")
# largest frame one FEM frame carries after its APDU header
MAX_FRAME_BYTES = FEM_MAX_PAYLOAD - APDU_OVERHEAD


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
    entity_class: int
    content_bytes: int


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


def _num(value, path: str, positive=False, nonneg=False, hi=None):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(path, f"expected number, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(path, f"must be > 0, got {value}")
    if nonneg and value < 0:
        raise ConfigError(path, f"must be >= 0, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(path, f"must be <= {hi}, got {value}")
    return value


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true or false, got {value!r}")
    return value


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected a mapping, got {value!r}")
    return value


def _ns_from_ms(v: float) -> int:
    return int(round(v * 1_000_000))


def _ns_from_us(v: float) -> int:
    return int(round(v * 1_000))


def _given(section: dict, path: str, fields: dict) -> dict:
    """Keyword arguments for the `fields` set in `section`, where `fields`
    maps a scenario key to (argument name, unit conversion). Each value is
    checked by `_num`; a field not set keeps the constructor's default."""
    return {name: convert(_num(section[key], f"{path}.{key}"))
            for key, (name, convert) in fields.items() if key in section}


_WIFI_FIELDS = {
    "difs_us": ("difs_ns", _ns_from_us), "sifs_us": ("sifs_ns", _ns_from_us),
    "slot_us": ("slot_ns", _ns_from_us), "cw_min": ("cw_min", int),
    "cw_max": ("cw_max", int), "preamble_us": ("preamble_ns", _ns_from_us),
    "ack_us": ("ack_ns", _ns_from_us)}
_PROFILE_FIELDS = {
    "wake_light_ms": ("wake_light_ns", _ns_from_ms),
    "wake_deep_ms": ("wake_deep_ns", _ns_from_ms),
    "t_listen_ms": ("t_listen_ns", _ns_from_ms)}
_PROCESSING_FIELDS = {"mfu_us": ("mfu", _ns_from_us),
                      "sfu_us": ("sfu", _ns_from_us)}


def load_scenario(path: str | Path, overrides: dict | None = None) -> ScenarioConfig:
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError("<root>", f"malformed YAML: {exc}") from None
    return parse_scenario(_mapping(raw, "<root>"), overrides)


def parse_scenario(raw: dict, overrides: dict | None = None) -> ScenarioConfig:
    overrides = overrides or {}
    name = raw.get("name", "scenario")
    seed = int(_num(overrides.get("seed", raw.get("seed", 1)), "seed"))
    horizon_ms = _num(overrides.get("duration_ms",
                                    _req(raw, "horizon_ms", "<root>")),
                      "horizon_ms", positive=True)
    mode_str = str(overrides.get("mode", raw.get("mode", "centralized")))
    try:
        mode = SchedulerMode(mode_str)
    except ValueError:
        raise ConfigError("mode", f"unknown scheduler mode {mode_str!r}")

    topo = _mapping(_req(raw, "topology", "<root>"), "topology")
    sfu_items = _req(topo, "sfus", "topology")
    if not sfu_items:
        raise ConfigError("topology.sfus", "at least one SFU required")
    sfus, iot_sfus = [], set()
    for i, item in enumerate(sfu_items):
        if isinstance(item, str):
            sfus.append(item)
        elif isinstance(item, dict):
            sfus.append(_req(item, "name", f"topology.sfus[{i}]"))
            if _bool(item.get("iot_resident", False),
                     f"topology.sfus[{i}].iot_resident"):
                iot_sfus.add(item["name"])
        else:
            raise ConfigError(f"topology.sfus[{i}]", "expected name or mapping")
    if len(set(sfus)) != len(sfus):
        raise ConfigError("topology.sfus", "duplicate SFU names")
    conflicts = []
    for i, pair in enumerate(topo.get("conflicts", [])):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"topology.conflicts[{i}]", "expected a pair")
        a, b = pair
        for n in (a, b):
            if n not in sfus:
                raise ConfigError(f"topology.conflicts[{i}]",
                                  f"unknown SFU {n!r}")
        if a == b:
            raise ConfigError(f"topology.conflicts[{i}]", "self-conflict")
        conflicts.append((a, b))

    optical = _mapping(raw.get("optical", {}), "optical")
    downstream_bps = int(_num(optical.get("downstream_gbps", 1.0),
                              "optical.downstream_gbps", positive=True) * 1e9)
    upstream_bps = int(_num(optical.get("upstream_gbps", 1.0),
                            "optical.upstream_gbps", positive=True) * 1e9)
    prop_delay_ns = int(_num(optical.get("prop_delay_ns", 50),
                             "optical.prop_delay_ns", nonneg=True))

    wifi = _mapping(raw.get("wifi", {}), "wifi")
    air_rate_bps = int(_num(wifi.get("air_rate_mbps", 1200.0),
                            "wifi.air_rate_mbps", positive=True) * 1e6)
    overhead = WifiOverhead(**_given(wifi, "wifi", _WIFI_FIELDS))
    try:
        overhead.validate()
    except ValueError as exc:
        raise ConfigError("wifi", str(exc))
    txop_max_ns = _ns_from_us(_num(wifi.get("txop_max_us", 2400),
                                   "wifi.txop_max_us", positive=True))

    control = _mapping(raw.get("control", {}), "control")
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
        _mapping(f, p)
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
                                positive=True, hi=MAX_FRAME_BYTES)),
            model=model,
            rate_mbps=_num(f.get("rate_mbps", 0.0), f"{p}.rate_mbps", nonneg=True),
            on_ms=_num(f.get("on_ms", 0.0), f"{p}.on_ms", nonneg=True),
            off_ms=_num(f.get("off_ms", 0.0), f"{p}.off_ms", nonneg=True),
            count=int(_num(f.get("count", 0), f"{p}.count", nonneg=True)),
            interval_us=_num(f.get("interval_us", 0.0), f"{p}.interval_us",
                             nonneg=True),
            start_ms=_num(f.get("start_ms", 0.0), f"{p}.start_ms", nonneg=True),
            stop_ms=(None if f.get("stop_ms") is None else
                     _num(f["stop_ms"], f"{p}.stop_ms", nonneg=True)),
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
        _mapping(b, p)
        sfu = _req(b, "sfu", p)
        if sfu not in sfus:
            raise ConfigError(f"{p}.sfu", f"unknown SFU {sfu!r}")
        rus = [(str(_mapping(r, f"{p}.rus[{j}]").get("sta", f"sta{j}")),
                int(_num(_req(r, "bytes", f"{p}.rus[{j}]"),
                         f"{p}.rus[{j}].bytes", nonneg=True)))
               for j, r in enumerate(b.get("rus", []))]
        bursts.append(UplinkBurstSpec(
            sfu=sfu,
            period_us=_num(_req(b, "period_us", p), f"{p}.period_us", positive=True),
            air_duration_us=_num(_req(b, "air_duration_us", p),
                                 f"{p}.air_duration_us", positive=True),
            rus=rus,
            start_ms=_num(b.get("start_ms", 0.0), f"{p}.start_ms", nonneg=True),
            coordinated=_bool(b.get("coordinated", True), f"{p}.coordinated"),
        ))

    mgmt = _mapping(raw.get("management", {}), "management")
    poll_cycle_ns = _ns_from_ms(_num(mgmt.get("poll_cycle_ms", 1000),
                                     "management.poll_cycle_ms", positive=True))
    k_miss = int(_num(mgmt.get("k_miss", 2), "management.k_miss", positive=True))
    storm = None
    if "storm" in mgmt:
        s = _mapping(mgmt["storm"], "management.storm")
        targets = s.get("targets", sfus)
        if not targets:
            raise ConfigError("management.storm.targets", "no target SFU")
        for t in targets:
            if t not in sfus:
                raise ConfigError("management.storm.targets", f"unknown SFU {t!r}")
        p = "management.storm"
        # 16-bit OMCI fields; the content length also counts the two
        # routing bytes
        storm = StormSpec(
            count=int(_num(_req(s, "count", p), f"{p}.count", positive=True)),
            targets=list(targets),
            entity_class=int(_num(s.get("entity_class", 100),
                                  f"{p}.entity_class", nonneg=True, hi=0xFFFF)),
            content_bytes=int(_num(s.get("content_bytes", 8),
                                   f"{p}.content_bytes", nonneg=True,
                                   hi=0xFFFF - 2)))
    kill = None
    if "kill" in mgmt:
        k = _mapping(mgmt["kill"], "management.kill")
        sfu = _req(k, "sfu", "management.kill")
        if sfu not in sfus:
            raise ConfigError("management.kill.sfu", f"unknown SFU {sfu!r}")
        at_ms = _num(_req(k, "at_ms", "management.kill"),
                     "management.kill.at_ms", nonneg=True)
        recover_ms = k.get("recover_ms")
        if (recover_ms is not None
                and _num(recover_ms, "management.kill.recover_ms") < at_ms):
            raise ConfigError("management.kill.recover_ms",
                              f"{recover_ms} is earlier than at_ms {at_ms}")
        kill = KillSpec(sfu, at_ms, recover_ms)
    olt_pipe_ns = _ns_from_us(_num(mgmt.get("olt_pipe_us", 20),
                                   "management.olt_pipe_us", nonneg=True))

    en = _mapping(raw.get("energy", {}), "energy")
    savings = _bool(en.get("savings_enabled", True), "energy.savings_enabled")
    t_act_idle_ns = _ns_from_ms(_num(en.get("t_act_idle_ms", 100),
                                     "energy.t_act_idle_ms", positive=True))
    t_idle_sleep_ns = _ns_from_ms(_num(en.get("t_idle_sleep_ms", 10_000),
                                       "energy.t_idle_sleep_ms", positive=True))

    def profile(key: str, defaults: dict) -> PowerProfile:
        section = _mapping(en.get(key, {}), f"energy.{key}")
        watts = dict(defaults)
        for state_name, w in _mapping(section.get("watts", {}),
                                      f"energy.{key}.watts").items():
            try:
                state = PowerState(state_name)
            except ValueError:
                raise ConfigError(f"energy.{key}.watts", f"unknown state {state_name!r}")
            watts[state] = _num(w, f"energy.{key}.watts.{state_name}", positive=True)
        prof = PowerProfile(watts=watts, **_given(section, f"energy.{key}",
                                                   _PROFILE_FIELDS))
        try:
            prof.validate()
        except ValueError as exc:
            raise ConfigError(f"energy.{key}", str(exc))
        return prof

    relay = _mapping(raw.get("phy_relay", {}), "phy_relay")
    processing = _mapping(raw.get("processing", {}), "processing")
    proc_ns = {**PROCESSING_NS[mode],
               **_given(processing, "processing", _PROCESSING_FIELDS)}

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
        proc_mfu_ns=proc_ns["mfu"], proc_sfu_ns=proc_ns["sfu"],
        sample_rate_sps=int(_num(relay.get("sample_rate_msps", 160),
                                 "phy_relay.sample_rate_msps", positive=True) * 1e6),
        bit_width=int(_num(relay.get("bit_width", 24), "phy_relay.bit_width",
                           positive=True)),
        relay_buffer_bytes=int(_num(relay.get("buffer_bytes", 10_000_000),
                                    "phy_relay.buffer_bytes", positive=True)),
        per_sta_overhead=int(_num(raw.get("per_sta_overhead", 0),
                                  "per_sta_overhead", nonneg=True)),
        dump_schedule=_bool(overrides.get("dump_schedule",
                                          raw.get("dump_schedule", False)),
                            "dump_schedule"),
    )
    return cfg
