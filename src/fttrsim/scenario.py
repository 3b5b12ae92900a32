"""Scenario configuration: YAML schema, defaults and validation.

A scenario file is the unit of reproducibility: topology, link parameters,
scheduler mode, traffic flows, power draw and the seed. CLI flags may
override scalar fields. Validation errors carry the config-path of the
offending field. Each field's key, default, bounds and unit conversion are
declared once, by `_key`; checks that span fields are in `parse_scenario`.
"""

from __future__ import annotations

import math
from pathlib import Path

from .energy import PowerState
from .frames import (APDU_OVERHEAD, FEM_MAX_PAYLOAD, OMCI_SFU_ID_MAX,
                     SERVICE_CLASSES)
from .scheduling import PROCESSING_NS, SchedulerMode


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


ARRIVAL_MODELS = ("constant_rate", "on_off", "batch")
# node names of the MFU and the OLT in a run: event targets and RNG
# substreams are keyed by them, so no room may take one
MFU = "mfu"
OLT = "olt"
# largest frame one FEM frame carries after its APDU header
MAX_FRAME_BYTES = FEM_MAX_PAYLOAD - APDU_OVERHEAD
# most frames of a batch flow: a run holds all of them at once, about 190 B
# each, when they arrive together before the stop
MAX_BATCH_COUNT = 1_000_000

_DEFAULT_SFU_WATTS = {
    PowerState.ACTIVE: 4.5, PowerState.IDLE: 3.0, PowerState.RF_OFF: 2.0,
    PowerState.LIGHT_SLEEP: 1.0, PowerState.DEEP_SLEEP: 0.3}
_DEFAULT_MFU_WATTS = {PowerState.ACTIVE: 8.0, PowerState.IDLE: 6.0}
# states whose watts may not rise down the list; RF_OFF is not ranked
_RANKED = (PowerState.ACTIVE, PowerState.IDLE, PowerState.LIGHT_SLEEP,
           PowerState.DEEP_SLEEP)


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


_REQUIRED = object()   # the key must be given


class _Key(tuple):
    """A field's (key, default, check, convert, bounds), made by `_key`."""


def _key(key: str, default=_REQUIRED, convert=None, check=_num, **bounds):
    """A field read from scenario `key`, dotted below the section it is read
    from. `default` is in the key's unit; `check(value, path)` accepts the
    value, `convert` turns it into the field's value, and that value must
    lie within `bounds` (see `_bound`). A None default is kept as is, and
    so is a None value where it is the default."""
    return _Key((key, default, check, convert, bounds))


def _table(specs: dict) -> tuple:
    """(rows, known) for `specs`, which maps argument names to `_Key`s: a
    row per field and, for each mapping a key passes through (by key
    prefix, parents first), the keys known in it."""
    rows, known = [], {(): set()}
    for name, (key, *rest) in specs.items():
        parts = key.split(".")
        for i, part in enumerate(parts):
            known.setdefault(tuple(parts[:i]), set()).add(part)
        rows.append((name, key, tuple(parts[:-1]), parts[-1], *rest))
    return rows, known


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
    table = _table(cls._keys)
    return lambda value, path: cls(**_read(value, path, table))


def _entry(table: tuple):
    """Check that reads a mapping, or a string as its first key's value,
    into the tuple of `table`'s values."""
    def entry(value, path: str) -> tuple:
        if isinstance(value, str):
            value = {table[0][0][1]: value}
        return tuple(_read(value, path, table).values())
    return entry


def _cw(value, path: str) -> int:
    """Check for a contention window, in whole slots: a power of two minus
    one."""
    cw = int(_num(value, path))
    if cw < 0 or (cw + 1) & cw:
        raise ConfigError(path, f"must be a power of two minus one, "
                                f"got {value}")
    return cw


def _watts(defaults: dict):
    """Check that reads a node's watts per power state: a given state
    replaces its default, and a state that `defaults` does not name is
    unknown."""
    states = {state.value: state for state in defaults}

    def watts(value, path: str) -> dict:
        out = dict(defaults)
        for name, w in _mapping(value, path).items():
            if name not in states:
                raise ConfigError(path, f"unknown state {name!r}")
            out[states[name]] = _bound(_num(w, p := f"{path}.{name}"), p,
                                       gt=0)
        ranked = [(s.value, out[s]) for s in _RANKED if s in out]
        for (a, wa), (b, wb) in zip(ranked, ranked[1:]):
            if wa < wb:
                raise ConfigError(path, f"power ordering violated: {a} < {b}")
        return out
    return watts


_SFU_TABLE = _table({"name": _key("name", check=_str),
                     "iot_resident": _key("iot_resident", False, check=_bool)})
_RU_TABLE = _table({"sta": _key("sta", None, check=_str),
                    "bytes": _key("bytes", convert=int, ge=0)})


class _Record:
    """A mutable record of the fields annotated in its class body, each
    given by keyword and compared by `==`. `_keys` maps the fields that
    the class body gives a `_Key` to it, in declaration order."""

    __hash__ = None

    def __init_subclass__(cls):
        # CPython 3.11 reads an instance attribute that a class attribute
        # shadows about three times as slowly, so the keys leave the class
        cls._keys = {name: k for name, k in vars(cls).items()
                     if isinstance(k, _Key)}
        for name in cls._keys:
            delattr(cls, name)

    def __init__(self, **fields):
        if fields.keys() != self.__annotations__.keys():
            raise TypeError(f"{type(self).__name__} takes exactly the "
                            f"fields {', '.join(self.__annotations__)}")
        # not one `__dict__` update, which makes every later read slower
        for name, value in fields.items():
            setattr(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__annotations__)


class FlowSpec(_Record):
    name: str = _key("name", None, check=_str)   # None until parsed: flow<i>
    dst: str = _key("dst", check=_str)           # target SFU
    service_class: str = _key("service_class", "video",
                              check=_one_of(SERVICE_CLASSES))
    priority: int = _key("priority", 4, int, ge=0, le=7)
    size_bytes: int = _key("size_bytes", convert=int, gt=0, le=MAX_FRAME_BYTES)
    model: str = _key("model", "constant_rate", check=_one_of(ARRIVAL_MODELS))
    rate_bps: int = _key("rate_mbps", 0.0, _mega, ge=0)
    on_ns: int = _key("on_ms", 0.0, _ms, ge=0)
    off_ns: int = _key("off_ms", 0.0, _ms, ge=0)
    count: int = _key("count", 0, int, ge=0, le=MAX_BATCH_COUNT)
    interval_ns: int = _key("interval_us", 0.0, _us, ge=0)
    start_ns: int = _key("start_ms", 0.0, _ms, ge=0)
    stop_ns: int | None = _key("stop_ms", None, _ms, ge=0)


class UplinkBurstSpec(_Record):
    sfu: str = _key("sfu", check=_str)
    period_ns: int = _key("period_us", convert=_us, gt=0)
    air_duration_ns: int = _key("air_duration_us", convert=_us, gt=0)
    # (station or None, bytes); no run reads the station
    rus: list[tuple[str | None, int]] = _key("rus", [],
                                             check=_items(_entry(_RU_TABLE)))
    start_ns: int = _key("start_ms", 0.0, _ms, ge=0)
    coordinated: bool = _key("coordinated", True, check=_bool)


class KillSpec(_Record):
    sfu: str = _key("sfu", check=_str)
    at_ns: int = _key("at_ms", convert=_ms, ge=0)
    recover_ns: int | None = _key("recover_ms", None, _ms)


class StormSpec(_Record):
    count: int = _key("count", convert=int, gt=0)
    # None until parsed: every SFU
    targets: list[str] = _key("targets", None,
                              check=_items(_str, nonempty=True))
    # 16-bit OMCI fields; the content length also counts the two routing
    # bytes
    entity_class: int = _key("entity_class", 100, int, ge=0, le=0xFFFF)
    content_bytes: int = _key("content_bytes", 8, int, ge=0, le=0xFFFF - 2)


class ScenarioConfig(_Record):
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
    difs_ns: int = _key("wifi.difs_us", 34, _us, ge=0)
    sifs_ns: int = _key("wifi.sifs_us", 16, _us, ge=0)
    slot_ns: int = _key("wifi.slot_us", 9, _us, ge=0)
    cw_min: int = _key("wifi.cw_min", 15, check=_cw)
    cw_max: int = _key("wifi.cw_max", 1023, check=_cw)
    preamble_ns: int = _key("wifi.preamble_us", 40, _us, ge=0)
    ack_ns: int = _key("wifi.ack_us", 28, _us, ge=0)
    txop_max_ns: int = _key("wifi.txop_max_us", 2400, _us, gt=0)
    status_cycle_ns: int = _key("control.status_cycle_us", 5000, _us, gt=0)
    control_delay_ns: int = _key("control.control_delay_us", 5, _us, ge=0)
    alloc_cycle_ns: int = _key("control.alloc_cycle_us", 250, _us, gt=0)
    guard_ns: int = _key("control.guard_ns", 100, int, ge=0)
    omci_slot_ns: int = _key("control.omci_slot_us", 10, _us, gt=0)
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
    sfu_watts: dict[PowerState, float] = _key(
        "energy.sfu.watts", {}, check=_watts(_DEFAULT_SFU_WATTS))
    wake_light_ns: int = _key("energy.sfu.wake_light_ms", 10, _ms, gt=0)
    wake_deep_ns: int = _key("energy.sfu.wake_deep_ms", 100, _ms, gt=0)
    # deep-sleep listen interval
    t_listen_ns: int = _key("energy.sfu.t_listen_ms", 1000, _ms, gt=0)
    mfu_watts: dict[PowerState, float] = _key(
        "energy.mfu.watts", {}, check=_watts(_DEFAULT_MFU_WATTS))
    ftth_active_w: float = _key("energy.ftth_active_w", 13.0, gt=0)
    ftth_idle_w: float = _key("energy.ftth_idle_w", 12.0, gt=0)
    sleep_buffer_frames: int = _key("energy.sleep_buffer_frames", 4096, int,
                                    gt=0)
    # per-frame processing delay; None until parsed: the mode's
    # PROCESSING_NS
    processing_ns: int = _key("processing_us", None, _us, ge=0)
    sample_rate_sps: int = _key("phy_relay.sample_rate_msps", 160, _mega,
                                gt=0)
    bit_width: int = _key("phy_relay.bit_width", 24, int, gt=0)
    relay_buffer_bytes: int = _key("phy_relay.buffer_bytes", 10_000_000, int,
                                   gt=0)
    per_sta_overhead: int = _key("per_sta_overhead", 0, int, ge=0)


_SCENARIO_TABLE = _table(ScenarioConfig._keys)


def load_scenario(path: str | Path, overrides: dict | None = None) -> ScenarioConfig:
    # imported here, so that a run built from a dict by parse_scenario does
    # not pay for importing yaml
    import yaml

    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("<root>",
                          f"unreadable scenario file: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError("<root>", f"malformed YAML: {exc}") from None
    return parse_scenario(raw, overrides)


def parse_scenario(raw: dict, overrides: dict | None = None) -> ScenarioConfig:
    """The checked config of the scenario mapping `raw`. `overrides` may
    replace `seed`, `mode` and `horizon_ms`."""
    raw = {**_mapping(raw, "<root>"), **(overrides or {})}
    args = _read(raw, "", _SCENARIO_TABLE)
    if args["cw_min"] > args["cw_max"]:
        raise ConfigError("wifi.cw_min", f"{args['cw_min']} exceeds "
                                         f"wifi.cw_max ({args['cw_max']})")
    if args["processing_ns"] is None:
        args["processing_ns"] = PROCESSING_NS[args["mode"]]

    entries = args.pop("sfus")
    sfus = [name for name, _ in entries]
    if len(set(sfus)) != len(sfus):
        raise ConfigError("topology.sfus", "duplicate SFU names")
    if len(sfus) > OMCI_SFU_ID_MAX:
        raise ConfigError("topology.sfus",
                          f"{len(sfus)} SFUs; extended OMCI addresses at "
                          f"most {OMCI_SFU_ID_MAX} by its one-byte sfu_id")
    for i, name in enumerate(sfus):
        if name in (MFU, OLT):
            raise ConfigError(f"topology.sfus[{i}]",
                              f"{name!r} is reserved for the {name.upper()}")
    sfu = _one_of(tuple(sfus))
    for i, (a, b) in enumerate(args["conflicts"]):
        if sfu(a, p := f"topology.conflicts[{i}]") == sfu(b, p):
            raise ConfigError(p, "self-conflict")
    names = set()
    for i, f in enumerate(args["flows"]):
        p = f"flows[{i}]"
        sfu(f.dst, f"{p}.dst")
        # the interarrival time divides by the rate
        if f.model != "batch" and f.rate_bps <= 0:
            raise ConfigError(f"{p}.rate_mbps",
                              f"{f.model} flow needs at least 1 bit/s")
        if f.model == "on_off" and f.on_ns <= 0:
            raise ConfigError(f"{p}.on_ms",
                              "on_off flow needs on_ms of at least 1 ns")
        if f.model == "batch" and f.count <= 0:
            raise ConfigError(f"{p}.count", "batch flow needs count > 0")
        if f.stop_ns is not None and f.stop_ns < f.start_ns:
            raise ConfigError(f"{p}.stop_ms",
                              f"earlier than start_ms ({f.start_ns} ns)")
        if f.name is None:
            f.name = f"flow{i}"
        # flows are keyed by name in the run and in flows.csv
        if f.name in names:
            raise ConfigError(f"{p}.name", f"duplicate name {f.name!r}")
        names.add(f.name)
    for i, b in enumerate(args["uplink_bursts"]):
        sfu(b.sfu, f"uplink_bursts[{i}].sfu")
    if (storm := args["storm"]) is not None:
        if storm.targets is None:
            storm.targets = list(sfus)
        for t in storm.targets:
            sfu(t, "management.storm.targets")
    if (kill := args["kill"]) is not None:
        sfu(kill.sfu, "management.kill.sfu")
        if kill.recover_ns is not None and kill.recover_ns < kill.at_ns:
            raise ConfigError("management.kill.recover_ms",
                              f"earlier than at_ms ({kill.at_ns} ns)")
    return ScenarioConfig(**args, sfus=sfus,
                          iot_sfus={name for name, iot in entries if iot})
