"""Scenario configuration: YAML schema, defaults and validation.

A scenario file is the unit of reproducibility: topology, link parameters,
scheduler mode, traffic flows, power profiles and the seed. CLI flags may
override scalar fields. Validation errors carry the config-path of the
offending field. Each field's key, default, bounds and unit conversion are
declared once, by `_key`; checks that span fields are in `parse_scenario`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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

_DEFAULT_SFU_WATTS = {
    PowerState.ACTIVE: 4.5, PowerState.IDLE: 3.0, PowerState.REDUCED_TX: 2.5,
    PowerState.RF_OFF: 2.0, PowerState.LIGHT_SLEEP: 1.0,
    PowerState.DEEP_SLEEP: 0.3}
_DEFAULT_MFU_WATTS = {PowerState.ACTIVE: 8.0, PowerState.IDLE: 6.0}


def _num(value, path: str):
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not math.isfinite(value)):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return value


def _bound(value, path: str, gt=None, ge=None, le=None):
    if gt is not None and value <= gt:
        raise ConfigError(path, f"must be > {gt}, got {value}")
    if ge is not None and value < ge:
        raise ConfigError(path, f"must be >= {ge}, got {value}")
    if le is not None and value > le:
        raise ConfigError(path, f"must be <= {le}, got {value}")
    return value


def _is(kind, what: str):
    """Check that a value is an instance of `kind`, described as `what`."""
    def check(value, path: str):
        if not isinstance(value, kind):
            raise ConfigError(path, f"expected {what}, got {value!r}")
        return value
    return check


_bool = _is(bool, "true or false")
_str = _is(str, "a string")
_list = _is((list, tuple), "a list")
_mapping = _is(dict, "a mapping")


def _one_of(choices: tuple):
    def check(value, path: str):
        if value not in choices:
            raise ConfigError(path, f"expected one of {', '.join(choices)}, "
                                    f"got {value!r}")
        return value
    return check


def _items(check, nonempty=False):
    """Check for a list whose entries each pass `check`."""
    def items(value, path: str) -> list:
        if not _list(value, path) and nonempty:
            raise ConfigError(path, "expected at least one entry")
        return [check(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return items


def _pair(value, path: str) -> tuple:
    if len(_list(value, path)) != 2:
        raise ConfigError(path, "expected a pair")
    return tuple(value)


def _per(factor, rounding=int):
    """Conversion to whole units, `factor` of them per unit given."""
    return lambda v: int(rounding(v * factor))


_ms, _us = _per(1_000_000, round), _per(1_000, round)   # to nanoseconds
_giga, _mega = _per(1e9), _per(1e6)


_KEY = "scenario key"
_REQUIRED = object()   # the key must be given
_OMIT = object()       # when the key is absent the constructor's default holds


def _key(key: str, default=_REQUIRED, convert=None, check=_num, **bounds):
    """A field read from scenario `key`, dotted below the section it is read
    from. `default` is in the key's unit; `check(value, path)` accepts the
    value, `convert` turns it into the field's value, and that value must
    lie within `bounds` (see `_bound`). A None default is kept as is, and
    so is a None value where it is the default."""
    return field(metadata={_KEY: (key, default, check, convert, bounds)})


def _table(specs: dict) -> tuple:
    """(rows, known) for `specs`, which maps argument names to `_key`
    fields: a row per field and, for each mapping a key passes through (by
    key prefix, parents first), the keys known in it."""
    rows, known = [], {(): set()}
    for name, spec in specs.items():
        key, *rest = spec.metadata[_KEY]
        parts = key.split(".")
        for i, part in enumerate(parts):
            known.setdefault(tuple(parts[:i]), set()).add(part)
        rows.append((name, key, tuple(parts[:-1]), parts[-1], *rest))
    return rows, known


def _keyed(cls) -> dict:
    return {f.name: f for f in fields(cls) if _KEY in f.metadata}


def _read(section, path: str, table: tuple) -> dict:
    """Arguments for `table` read from the mapping `section` found at
    `path`: unknown and missing keys are rejected, each value is checked,
    converted to its field's unit and held to its bounds."""
    rows, known = table
    nodes = {}
    for prefix, keys in known.items():
        where = ".".join((path, *prefix) if path else prefix)
        node = nodes[prefix[:-1]].get(prefix[-1], {}) if prefix else section
        nodes[prefix] = node = _mapping(node, where or "<root>")
        for k in node:
            if k not in keys:
                raise ConfigError(f"{where}.{k}" if where else str(k),
                                  "unknown key")
    args = {}
    for name, key, prefix, leaf, default, check, convert, bounds in rows:
        value = nodes[prefix].get(leaf, default)
        if value is _OMIT:
            continue
        if value is not None or default is not None:
            where = f"{path}.{key}" if path else key
            if value is _REQUIRED:
                raise ConfigError(where, "required field missing")
            value = check(value, where)
            if convert is not None:
                value = convert(value)
            if bounds:
                _bound(value, where, **bounds)
        args[name] = value
    return args


def _spec(cls):
    """Check that reads a mapping into `cls` through its fields' keys."""
    table = _table(_keyed(cls))
    return lambda value, path: cls(**_read(value, path, table))


def _entry(table: tuple):
    """Check that reads a mapping, or a string as its first key's value,
    into the tuple of `table`'s values."""
    def entry(value, path: str) -> tuple:
        if isinstance(value, str):
            value = {table[0][0][1]: value}
        return tuple(_read(value, path, table).values())
    return entry


def _watts(value, path: str) -> dict:
    watts = {}
    for name, w in _mapping(value, path).items():
        try:
            state = PowerState(name)
        except ValueError:
            raise ConfigError(path, f"unknown state {name!r}") from None
        watts[state] = _bound(_num(w, p := f"{path}.{name}"), p, gt=0)
    return watts


def _profile(default_watts: dict):
    """Check that reads a node's power profile; given watts replace the
    node's defaults state by state."""
    def profile(value, path: str) -> PowerProfile:
        args = _read(value, path, _PROFILE_TABLE)
        prof = PowerProfile(watts={**default_watts, **args.pop("watts")},
                            **args)
        try:
            prof.validate()
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from None
        return prof
    return profile


_SFU_TABLE = _table({"name": _key("name", check=_str),
                     "iot_resident": _key("iot_resident", False, check=_bool)})
_RU_TABLE = _table({"sta": _key("sta", None, check=_str),
                    "bytes": _key("bytes", convert=int, ge=0)})
# unset timings keep the WifiOverhead and PowerProfile defaults
_WIFI_FIELDS = {
    "difs_ns": _key("wifi.difs_us", _OMIT, _us, ge=0),
    "sifs_ns": _key("wifi.sifs_us", _OMIT, _us, ge=0),
    "slot_ns": _key("wifi.slot_us", _OMIT, _us, ge=0),
    "cw_min": _key("wifi.cw_min", _OMIT, int),
    "cw_max": _key("wifi.cw_max", _OMIT, int),
    "preamble_ns": _key("wifi.preamble_us", _OMIT, _us, ge=0),
    "ack_ns": _key("wifi.ack_us", _OMIT, _us, ge=0)}
_PROFILE_TABLE = _table({
    "watts": _key("watts", {}, check=_watts),
    "wake_light_ns": _key("wake_light_ms", _OMIT, _ms),
    "wake_deep_ns": _key("wake_deep_ms", _OMIT, _ms),
    "t_listen_ns": _key("t_listen_ms", _OMIT, _ms)})


@dataclass
class FlowSpec:
    name: str = _key("name", None, check=_str)   # None until parsed: flow<i>
    dst: str = _key("dst", check=_str)           # target SFU
    service_class: str = _key("service_class", "video",
                              check=_one_of(SERVICE_CLASSES))
    priority: int = _key("priority", 4, int, ge=0, le=7)
    size_bytes: int = _key("size_bytes", convert=int, gt=0, le=MAX_FRAME_BYTES)
    model: str = _key("model", "constant_rate", check=_one_of(ARRIVAL_MODELS))
    rate_mbps: float = _key("rate_mbps", 0.0, ge=0)
    on_ms: float = _key("on_ms", 0.0, ge=0)
    off_ms: float = _key("off_ms", 0.0, ge=0)
    count: int = _key("count", 0, int, ge=0)
    interval_us: float = _key("interval_us", 0.0, ge=0)
    start_ms: float = _key("start_ms", 0.0, ge=0)
    stop_ms: float | None = _key("stop_ms", None, ge=0)


@dataclass
class UplinkBurstSpec:
    sfu: str = _key("sfu", check=_str)
    period_us: float = _key("period_us", gt=0)
    air_duration_us: float = _key("air_duration_us", gt=0)
    # (station, bytes); a station is None until parsed: sta<j>
    rus: list[tuple[str, int]] = _key("rus", [],
                                      check=_items(_entry(_RU_TABLE)))
    start_ms: float = _key("start_ms", 0.0, ge=0)
    coordinated: bool = _key("coordinated", True, check=_bool)


@dataclass
class KillSpec:
    sfu: str = _key("sfu", check=_str)
    at_ms: float = _key("at_ms", ge=0)
    recover_ms: float | None = _key("recover_ms", None)


@dataclass
class StormSpec:
    count: int = _key("count", convert=int, gt=0)
    # None until parsed: every SFU
    targets: list[str] = _key("targets", None,
                              check=_items(_str, nonempty=True))
    # 16-bit OMCI fields; the content length also counts the two routing
    # bytes
    entity_class: int = _key("entity_class", 100, int, ge=0, le=0xFFFF)
    content_bytes: int = _key("content_bytes", 8, int, ge=0, le=0xFFFF - 2)


@dataclass
class ScenarioConfig:
    name: str = _key("name", "scenario", check=_str)
    seed: int = _key("seed", 1, int)
    horizon_ns: int = _key("horizon_ms", convert=_ms, gt=0)
    mode: SchedulerMode = _key("mode", "centralized", SchedulerMode, _one_of(
        tuple(m.value for m in SchedulerMode)))
    # (name, IoT-resident) entries until parsed
    sfus: list[str] = _key("topology.sfus",
                           check=_items(_entry(_SFU_TABLE), nonempty=True))
    iot_sfus: set[str]
    conflicts: list[tuple[str, str]] = _key("topology.conflicts", [],
                                            check=_items(_pair))
    downstream_bps: int = _key("optical.downstream_gbps", 1.0, _giga, gt=0)
    upstream_bps: int = _key("optical.upstream_gbps", 1.0, _giga, gt=0)
    prop_delay_ns: int = _key("optical.prop_delay_ns", 50, int, ge=0)
    air_rate_bps: int = _key("wifi.air_rate_mbps", 1200.0, _mega, gt=0)
    wifi_overhead: WifiOverhead
    txop_max_ns: int = _key("wifi.txop_max_us", 2400, _us, gt=0)
    status_cycle_ns: int = _key("control.status_cycle_us", 5000, _us, gt=0)
    control_delay_ns: int = _key("control.control_delay_us", 5, _us, ge=0)
    alloc_cycle_ns: int = _key("control.alloc_cycle_us", 250, _us, gt=0)
    guard_ns: int = _key("control.guard_ns", 100, int, ge=0)
    omci_slot_ns: int = _key("control.omci_slot_us", 10, _us, gt=0)
    min_slot_ns: int = _key("control.min_slot_us", 5, _us, gt=0)
    flows: list[FlowSpec] = _key("flows", [], check=_items(_spec(FlowSpec)))
    uplink_bursts: list[UplinkBurstSpec] = _key(
        "uplink_bursts", [], check=_items(_spec(UplinkBurstSpec)))
    poll_cycle_ns: int = _key("management.poll_cycle_ms", 1000, _ms, gt=0)
    k_miss: int = _key("management.k_miss", 2, int, gt=0)
    storm: StormSpec | None = _key("management.storm", None,
                                   check=_spec(StormSpec))
    kill: KillSpec | None = _key("management.kill", None,
                                 check=_spec(KillSpec))
    olt_pipe_ns: int = _key("management.olt_pipe_us", 20, _us, ge=0)
    savings_enabled: bool = _key("energy.savings_enabled", True, check=_bool)
    t_act_idle_ns: int = _key("energy.t_act_idle_ms", 100, _ms, gt=0)
    t_idle_sleep_ns: int = _key("energy.t_idle_sleep_ms", 10_000, _ms, gt=0)
    sfu_profile: PowerProfile = _key("energy.sfu", {},
                                     check=_profile(_DEFAULT_SFU_WATTS))
    mfu_profile: PowerProfile = _key("energy.mfu", {},
                                     check=_profile(_DEFAULT_MFU_WATTS))
    ftth_active_w: float = _key("energy.ftth_active_w", 13.0, gt=0)
    ftth_idle_w: float = _key("energy.ftth_idle_w", 12.0, gt=0)
    sleep_buffer_frames: int = _key("energy.sleep_buffer_frames", 4096, int,
                                    gt=0)
    # absent: the mode's PROCESSING_NS
    proc_mfu_ns: int = _key("processing.mfu_us", _OMIT, _us, ge=0)
    proc_sfu_ns: int = _key("processing.sfu_us", _OMIT, _us, ge=0)
    sample_rate_sps: int = _key("phy_relay.sample_rate_msps", 160, _mega,
                                gt=0)
    bit_width: int = _key("phy_relay.bit_width", 24, int, gt=0)
    relay_buffer_bytes: int = _key("phy_relay.buffer_bytes", 10_000_000, int,
                                   gt=0)
    per_sta_overhead: int = _key("per_sta_overhead", 0, int, ge=0)
    dump_schedule: bool = _key("dump_schedule", False, check=_bool)


_SCENARIO_TABLE = _table({**_keyed(ScenarioConfig), **_WIFI_FIELDS})


def load_scenario(path: str | Path, overrides: dict | None = None) -> ScenarioConfig:
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except yaml.YAMLError as exc:
        raise ConfigError("<root>", f"malformed YAML: {exc}") from None
    return parse_scenario(raw, overrides)


def parse_scenario(raw: dict, overrides: dict | None = None) -> ScenarioConfig:
    """The checked config of the scenario mapping `raw`. `overrides` may
    replace `seed`, `mode`, `dump_schedule` and, as `duration_ms`,
    `horizon_ms`."""
    raw = {**_mapping(raw, "<root>"),
           **{"horizon_ms" if k == "duration_ms" else k: v
              for k, v in (overrides or {}).items()}}
    args = _read(raw, "", _SCENARIO_TABLE)
    overhead = WifiOverhead(**{k: args.pop(k) for k in _WIFI_FIELDS
                               if k in args})
    try:
        overhead.validate()
    except ValueError as exc:
        raise ConfigError("wifi", str(exc)) from None
    proc_ns = PROCESSING_NS[args["mode"]]
    args.setdefault("proc_mfu_ns", proc_ns["mfu"])
    args.setdefault("proc_sfu_ns", proc_ns["sfu"])

    entries = args.pop("sfus")
    sfus = [name for name, _ in entries]
    if len(set(sfus)) != len(sfus):
        raise ConfigError("topology.sfus", "duplicate SFU names")
    sfu = _one_of(tuple(sfus))
    for i, (a, b) in enumerate(args["conflicts"]):
        if sfu(a, p := f"topology.conflicts[{i}]") == sfu(b, p):
            raise ConfigError(p, "self-conflict")
    names = set()
    for i, f in enumerate(args["flows"]):
        p = f"flows[{i}]"
        sfu(f.dst, f"{p}.dst")
        # the interarrival time divides by the rate in whole bit/s
        if f.model != "batch" and int(f.rate_mbps * 1e6) <= 0:
            raise ConfigError(f"{p}.rate_mbps",
                              f"{f.model} flow needs at least 1 bit/s")
        if f.model == "on_off" and f.on_ms <= 0:
            raise ConfigError(f"{p}.on_ms", "on_off flow needs on_ms > 0")
        if f.model == "batch" and f.count <= 0:
            raise ConfigError(f"{p}.count", "batch flow needs count > 0")
        if f.stop_ms is not None and f.stop_ms < f.start_ms:
            raise ConfigError(f"{p}.stop_ms",
                              f"earlier than start_ms {f.start_ms}")
        if f.name is None:
            f.name = f"flow{i}"
        # flows are keyed by name in the run and in flows.csv
        if f.name in names:
            raise ConfigError(f"{p}.name", f"duplicate name {f.name!r}")
        names.add(f.name)
    for i, b in enumerate(args["uplink_bursts"]):
        sfu(b.sfu, f"uplink_bursts[{i}].sfu")
        b.rus = [(f"sta{j}" if sta is None else sta, nbytes)
                 for j, (sta, nbytes) in enumerate(b.rus)]
    if (storm := args["storm"]) is not None:
        if storm.targets is None:
            storm.targets = list(sfus)
        for t in storm.targets:
            sfu(t, "management.storm.targets")
    if (kill := args["kill"]) is not None:
        sfu(kill.sfu, "management.kill.sfu")
        if kill.recover_ms is not None and kill.recover_ms < kill.at_ms:
            raise ConfigError("management.kill.recover_ms",
                              f"earlier than at_ms {kill.at_ms}")
    return ScenarioConfig(**args, sfus=sfus, wifi_overhead=overhead,
                          iot_sfus={name for name, iot in entries if iot})
