"""tools/diffcheck.py on a few cases: HEAD against itself, a difference
planted in one result, and how far each run number moved on hand-built
records; that its mode list is the scheduler's; properties of the runs of
its random scenarios; and three metamorphic relations over them, which say
how two runs must relate (the relay-buffer one also over draws of its
own)."""

import copy
import importlib.util
import json
import random
import subprocess
from collections import Counter
from pathlib import Path

import pytest

from diffcheck import MODES
from fttrsim import simulation
from fttrsim.energy import PowerState
from fttrsim.engine import Simulator
from fttrsim.frames import OmciType, decode_omci_stream
from fttrsim.metrics import build_summary
from fttrsim.scenario import ConfigError, parse_scenario
from fttrsim.scheduling import SchedulerMode
from fttrsim.simulation import (Simulation, SimResults,
                                run_scenario_config)

ROOT = Path(__file__).resolve().parent.parent
CASES = ("conflict_pair/centralized/seed1", "golden/phy_relay/seed1",
         "storm_kill_bursts/phy_relay")


def diffcheck():
    spec = importlib.util.spec_from_file_location(
        "diffcheck", ROOT / "tools" / "diffcheck.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def head_twice(tmp_path_factory):
    try:
        subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                        "HEAD"], check=True, capture_output=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    tool = diffcheck()
    tmp = tmp_path_factory.mktemp("diffcheck")
    cases = [c for c in tool.case_list(2) if c["id"] in CASES
             or c["id"].startswith("random")]
    assert len(cases) == 5
    trees = [tool.export("HEAD", tmp / name) for name in ("a", "b")]
    return tool, tool.run_trees(trees, cases)


def test_head_against_itself_reports_no_difference(head_twice):
    tool, (a, b) = head_twice
    assert tool.compare(a, b) == {"model": [], "events": []}
    # the phy_relay golden run ends with exit 3: its message is compared
    assert set(a["golden/phy_relay/seed1"]) == {"exit"}
    assert "ledgers" in a["storm_kill_bursts/phy_relay"]


def test_the_summary_line_sums_the_dispatched_events(head_twice):
    tool, (a, b) = head_twice
    total = sum(json.loads(r["events"])["events_dispatched"]
                for r in a.values() if "events" in r)
    assert total > 0
    assert tool.summary_line("HEAD", "working tree", a, b) == (
        "diffcheck HEAD -> working tree: 5 cases (1 end with exit 2/3), "
        "0 differ in model fields, digest/events_* moved in 0, "
        f"events_dispatched {total} -> {total}")


def test_a_planted_difference_is_reported(head_twice):
    tool, (a, _) = head_twice
    b = copy.deepcopy(a)
    b["storm_kill_bursts/phy_relay"]["bursts"] = "0" * 64
    b["conflict_pair/centralized/seed1"]["digest"] = "0" * 64
    assert tool.compare(a, b) == {
        "model": [("storm_kill_bursts/phy_relay", "bursts")],
        "events": ["conflict_pair/centralized/seed1"]}
    b["storm_kill_bursts/phy_relay"]["ledgers"] = "0" * 64
    b["random0"]["ledgers"] = "0" * 64
    assert tool.fields_line(tool.compare(a, b)["model"]) == (
        "fields: ledgers 2, bursts 1")


def hand_built_records() -> tuple[dict, dict]:
    """Base and head records of three cases: two whose numbers move, one
    that ends with an exit."""
    def numbers(p50: int, joules: float, drops: int) -> dict:
        return {"summary": "0" * 64, "numbers": {
            "flow.latency_p50_ns": {"f0": p50, "f1": 100},
            "node.joules": {"a": joules, "mfu": 1.0},
            "relay_overflow_drops": {"": drops}}}

    base = {"c1": numbers(1000, 2.0, 0), "c2": numbers(1000, 2.0, 0),
            "c3": {"exit": "0" * 64}}
    head = {"c1": numbers(1100, 2.0, 0), "c2": numbers(700, 1.0, 3),
            "c3": {"exit": "0" * 64}}
    return base, head


EXPLAIN_LINES = [
    "flow.latency_p50_ns: 2 cases moved, median 20%, largest -30% in "
    "c2 f0 (1000 -> 700)",
    "node.joules: 1 cases moved, median 50%, largest -50% in c2 a "
    "(2.0 -> 1.0)",
    "relay_overflow_drops: 1 cases moved, median inf%, largest +inf% in "
    "c2 (0 -> 3)"]


def test_explain_reports_how_far_each_metric_moved(head_twice):
    tool, (a, b) = head_twice
    report = tool.explain(a, b)
    assert list(report) == list(a["storm_kill_bursts/phy_relay"]["numbers"])
    assert all(entry == {"cases_moved": 0} for entry in report.values())

    base, head = hand_built_records()
    # the numbers are not compared as hashes
    assert tool.compare(base, head) == {"model": [], "events": []}
    report = tool.explain(base, head)
    assert report["node.joules"] == {
        "cases_moved": 1, "median_change": 0.5, "largest_change": -0.5,
        "case": "c2", "item": "a", "base": 2.0, "head": 1.0}
    assert tool.explain_lines(report) == EXPLAIN_LINES


def test_main_prints_the_explain_lines_before_the_summary_line(
        monkeypatch, tmp_path, capsys):
    tool = diffcheck()
    base, head = hand_built_records()
    monkeypatch.setattr(tool, "case_list", lambda n_random: [])
    monkeypatch.setattr(tool, "export", lambda rev, dest: ROOT)
    monkeypatch.setattr(tool, "run_trees", lambda trees, cases: [base, head])
    path = tmp_path / "explain.json"
    assert tool.main(["HEAD", "--json", str(path)]) == 0
    n = tool.source_lines(ROOT)
    assert capsys.readouterr().out.splitlines() == EXPLAIN_LINES + [
        "diffcheck HEAD -> working tree: 3 cases (1 end with exit 2/3), "
        "0 differ in model fields, digest/events_* moved in 0, "
        "events_dispatched 0 -> 0",
        f"src/fttrsim lines: {n} -> {n}"]
    # a change from 0 is written as Infinity
    assert json.loads(path.read_text()) == tool.explain(base, head)


def test_the_case_list_runs_every_scheduler_mode():
    # MODES is a literal, so that the case list does not depend on the tree
    # compared; it must still name every mode, and no other
    assert sorted(MODES) == sorted(m.value for m in SchedulerMode)


def test_source_lines_are_the_lines_of_the_package_modules():
    modules = list((ROOT / "src" / "fttrsim").glob("*.py"))
    assert {"engine.py", "frames.py", "simulation.py"} <= {
        m.name for m in modules}
    assert diffcheck().source_lines(ROOT) == sum(
        len(m.read_text(encoding="utf-8").splitlines()) for m in modules)


def test_no_random_run_has_a_zero_length_active_or_idle_record():
    # at one instant an activity beats the idle timer, so no unit goes IDLE
    # and ACTIVE again at one instant before the horizon
    draw = diffcheck().random_scenario
    rng = random.Random(0)
    for i in range(300):
        raw = draw(rng)
        try:
            res = run_scenario_config(parse_scenario(raw))
        except (ConfigError, RuntimeError):  # exit 2 or 3
            continue
        horizon = res.config.horizon_ns
        for node, ledger in res.ledgers.items():
            zero = [r for r in ledger.records
                    if r[0] in (PowerState.ACTIVE, PowerState.IDLE)
                    and r[1] == r[2] < horizon]
            assert zero == [], f"random scenario {i}, {node}"


def test_no_random_run_has_a_response_from_a_room_dead_at_its_receive():
    # request j reaches its room at j·A + control_delay; a room that is
    # dead then drops it, so no response but the adapter's error response
    # comes from it, and every response that reaches the OLT is counted
    draw = diffcheck().random_scenario
    rng = random.Random(0)
    storms = killed = responses = 0
    for i in range(400):
        try:
            cfg = parse_scenario(draw(rng))
            sim = Simulation(cfg)
            res = sim.run()
        except (ConfigError, RuntimeError):  # exit 2 or 3
            continue
        received = decode_omci_stream(res.olt_received)
        assert res.omci_delivered == len(received), i
        if cfg.storm is None:
            continue
        storms += 1
        room_of = {sim.adapter.route_of(r)[1]: r for r in cfg.sfus}
        kill = cfg.kill
        if kill is not None:
            killed += 1
            dead_from = kill.at_ns
            dead_to = (cfg.horizon_ns + 1 if kill.recover_ns is None
                       else kill.recover_ns)
        for msg in received:
            if msg.msg_type == OmciType.ERROR_RESPONSE:
                continue
            responses += 1
            rx = msg.transaction_id * cfg.alloc_cycle_ns + cfg.control_delay_ns
            assert not (kill is not None and room_of[msg.sfu_id] == kill.sfu
                        and dead_from <= rx < dead_to), (
                f"random scenario {i}: response {msg.transaction_id} "
                f"from {kill.sfu}, dead at {rx} ns")
    # 176 storm runs, 87 of them with a kill, and 7,668 responses
    assert storms >= 100 and killed >= 40 and responses > 5000


def test_every_awake_room_has_one_sleep_check_chain(monkeypatch):
    # with savings on, a room has one sleep check pending from its prime
    # until it reports light sleep, and again from its wake: never two, and
    # at the horizon one (beyond it) unless the room is asleep
    pending = Counter()
    # `schedule` pushes through `schedule_at`, so this spy sees every push
    schedule_at = Simulator.schedule_at
    check = Simulation._sleep_check

    def spy_schedule_at(sim, fire_time, seq, target, kind):
        if kind == "sleep_check":
            pending[target] += 1
            assert pending[target] == 1, f"two checks pending for {target}"
        return schedule_at(sim, fire_time, seq, target, kind)

    def spy_check(sim, sfu, ev):
        pending[sfu.target] -= 1
        return check(sim, sfu, ev)

    monkeypatch.setattr(Simulator, "schedule_at", spy_schedule_at)
    monkeypatch.setattr(Simulation, "_sleep_check", spy_check)
    draw = diffcheck().random_scenario
    rng = random.Random(0)
    checked = rf_off = 0
    for i in range(300):
        pending.clear()
        try:
            cfg = parse_scenario(draw(rng))
            sim = Simulation(cfg)
            sim.run()
        except (ConfigError, RuntimeError):  # exit 2 or 3
            continue
        for sfu in sim.sfus.values():
            want = int(cfg.savings_enabled and not sfu.asleep)
            assert pending[sfu.target] == want, (
                f"random scenario {i}, {sfu.name}")
            checked += want
            rf_off += sfu.power.state == PowerState.RF_OFF
    # 193 rooms with a check pending at the horizon, 93 of them RF_OFF
    assert checked > 150 and rf_off > 60


def test_asleep_is_the_ledgers_sleep_state_after_every_event(monkeypatch):
    # `asleep` is set at the light-sleep report and cleared at the wake, the
    # only places a room enters or leaves LIGHT_SLEEP or DEEP_SLEEP: after
    # every dispatched event it says what every room's ledger says. A wake
    # is sent only to an asleep room, and its end clears both flags, so a
    # pending wake implies `asleep`
    sleeping = (PowerState.LIGHT_SLEEP, PowerState.DEEP_SLEEP)
    register = Simulator.register
    running = []
    seen = Counter()

    def checked_register(engine, target, handler):
        def checked(ev):
            handler(ev)
            for sfu in running[0].sfus.values():
                asleep = sfu.power.state in sleeping
                assert sfu.asleep == asleep, (
                    f"{sfu.name} after {ev.kind} at {ev.fire_time} ns")
                assert not sfu.wake_pending or sfu.asleep, (
                    f"{sfu.name} after {ev.kind} at {ev.fire_time} ns")
                seen[asleep] += 1
        register(engine, target, checked)

    monkeypatch.setattr(Simulator, "register", checked_register)
    draw = diffcheck().random_scenario
    rng = random.Random(0)
    for i in range(300):
        raw = draw(rng)
        for mode in MODES:
            try:
                running[:] = [Simulation(parse_scenario({**raw,
                                                         "mode": mode}))]
                running[0].run()
            except (ConfigError, RuntimeError):  # exit 2 or 3
                continue
    # 28,809 room checks find the room asleep and 72,990 awake
    assert seen[True] > 20_000 and seen[False] > 50_000


def run_outputs(raw: dict) -> dict:
    """The outputs of one run of `raw`: its summary, without the digest and
    the `events_*` counters, its ledgers, command log, grants, upstream
    slots and MIBs; or the exit code and message of a run that ends with
    exit 2 or 3."""
    try:
        res = run_scenario_config(parse_scenario(raw))
    except ConfigError as exc:
        return {"exit": (2, str(exc))}
    except RuntimeError as exc:
        return {"exit": (3, str(exc))}
    summary = build_summary(res)
    del summary["digest"]
    summary["counters"] = {k: v for k, v in summary["counters"].items()
                           if not k.startswith("events_")}
    return {"summary": summary,
            "ledgers": {node: ledger.records
                        for node, ledger in res.ledgers.items()},
            "events": res.events,
            "grants": res.grants,
            "upstream_slots": sorted(res.upstream_slots),
            "mibs": {room: mib.snapshot() for room, mib in res.mibs.items()}}


def without_room(out: dict, room: str) -> dict:
    """`out` less every output of `room`, if it has one, and the energy
    totals, which sum every node's joules."""
    if "exit" in out:
        return out
    summary = copy.deepcopy(out["summary"])
    for part in ("cells", "nodes"):
        summary[part].pop(room, None)
    del summary["energy"]["total_joules"], summary["energy"]["fttr_ftth_ratio"]
    return {**out, "summary": summary,
            "ledgers": {n: r for n, r in out["ledgers"].items() if n != room},
            "mibs": {n: m for n, m in out["mibs"].items() if n != room}}


def test_an_idle_isolated_room_changes_no_other_output():
    # With savings off and the storm's targets fixed, a room that has no
    # traffic, bursts or conflicts shares nothing with the others: no
    # other room's, flow's or the MFU's output may move, in any mode
    draw = diffcheck().random_scenario
    rng = random.Random(0)
    ran = Counter()
    for i in range(300):
        raw = draw(rng)
        topology = raw["topology"]
        rooms = [s if isinstance(s, str) else s["name"]
                 for s in topology["sfus"]]
        management = copy.deepcopy(raw["management"])
        if "storm" in management:
            management["storm"]["targets"] = rooms
        raw = {**raw, "management": management,
               "energy": {**raw["energy"], "savings_enabled": False}}
        wider = {**raw, "topology": {**topology,
                                     "sfus": [*topology["sfus"], "idle"]}}
        for mode in MODES:
            a = without_room(run_outputs({**raw, "mode": mode}), "idle")
            b = without_room(run_outputs({**wider, "mode": mode}), "idle")
            assert a == b, f"random scenario {i} in {mode}"
            ran[mode] += "exit" not in a
    # all 300 draws run to the horizon in each mode but phy_relay, where
    # 107 end with exit 3: a relayed burst outgrows the room between two
    # OMCI windows
    assert min(ran[mode] for mode in MODES) > 150


def test_a_flow_that_starts_after_the_horizon_changes_no_other_output():
    # A flow whose first frame would arrive after the horizon offers
    # nothing: every output but its own row stays the same, the digest and
    # the `events_*` counters aside (its first arrival is scheduled beyond
    # the horizon, and it starts the status cycles of a run with no other
    # flow)
    draw = diffcheck().random_scenario
    rng = random.Random(0)
    ran = 0
    for i in range(300):
        raw = draw(rng)
        pick = random.Random(i)
        rooms = [s if isinstance(s, str) else s["name"]
                 for s in raw["topology"]["sfus"]]
        model = pick.choice(("batch", "constant_rate", "on_off"))
        late = {"name": "late", "dst": pick.choice(rooms),
                "size_bytes": 1500, "model": model,
                "start_ms": raw["horizon_ms"] + pick.choice((0.001, 1)),
                **({"count": 3, "interval_us": 100} if model == "batch"
                   else {"rate_mbps": 8, "on_ms": 1, "off_ms": 1})}
        a = run_outputs(raw)
        b = run_outputs({**raw, "flows": [*raw["flows"], late]})
        if "exit" not in b:
            row = b["summary"]["flows"].pop("late")
            assert row["offered"] == 0, f"random scenario {i}"
        assert a == b, f"random scenario {i}"
        ran += "exit" not in a
    # 265 of the 300 draws run to the horizon
    assert ran > 250


class RelayDropLog(SimResults):
    """`SimResults` that also lists the bursts the relay buffer drops, each
    numbered by the bursts sent before it: `_uplink_bursts` counts a
    burst's drop before it records the burst's forwarding delay."""

    @property
    def relay_overflow_drops(self) -> int:
        return len(self.dropped)

    @relay_overflow_drops.setter
    def relay_overflow_drops(self, n: int) -> None:
        if n == 0:
            self.dropped = []
        else:
            assert n == len(self.dropped) + 1
            self.dropped.append(len(self.bursts))


def relay_drops(raw: dict):
    """The bursts a run of `raw` drops at its relay buffer, numbered as in
    `RelayDropLog`, or the exit code and message of a run that ends with
    exit 2 or 3."""
    try:
        return run_scenario_config(parse_scenario(raw)).dropped
    except ConfigError as exc:
        return 2, str(exc)
    except RuntimeError as exc:
        return 3, str(exc)


def relay_draw(rng: random.Random) -> dict:
    """A phy_relay run with a 24,000-byte relay buffer and 2-4 burst specs
    of 14,400 to 28,800 relayed bytes each (30-60 us of samples), in one
    or two rooms, whose slots often overlap the next bursts."""
    rooms = ["a", "b"][:rng.randint(1, 2)]
    bursts = [{"sfu": rng.choice(rooms),
               "period_us": rng.choice((242, 250, 500, 1000)),
               "air_duration_us": rng.choice((30, 40, 45, 50, 55, 60)),
               "start_ms": rng.choice((0, 0.01, 0.05, 0.1, 0.25)),
               "coordinated": rng.random() < 0.5,
               "rus": [{"bytes": 500}]}
              for _ in range(rng.randint(2, 4))]
    return {"name": "relay", "seed": rng.randrange(1, 1000),
            "horizon_ms": rng.choice((2, 5)), "mode": "phy_relay",
            "topology": {"sfus": rooms}, "uplink_bursts": bursts,
            "phy_relay": {"buffer_bytes": 24_000}}


def test_a_larger_relay_buffer_never_drops_more_bursts(monkeypatch):
    # In phy_relay mode a relayed burst that does not fit the room's relay
    # buffer is dropped. The buffer's level under a larger buffer is never
    # more than that size difference above its level under a smaller one,
    # so a burst that overflows the larger buffer overflows the smaller
    # too. The relation compares which bursts are dropped: their counts
    # alone stay in order under a buffer that empties on overflow, which
    # drops fewer bursts only after it has dropped more
    monkeypatch.setattr(simulation, "SimResults", RelayDropLog)

    def nested(raw: dict, sizes: tuple[int, ...], case: str):
        runs = [relay_drops({**raw, "phy_relay": {"buffer_bytes": b}})
                for b in sizes]
        if isinstance(runs[0], tuple):
            # a run that ends with exit 2 or 3 ends so at every size
            assert all(r == runs[0] for r in runs), case
            return None
        for smaller, larger in zip(runs, runs[1:]):
            assert set(larger) <= set(smaller), case
        return runs

    draw = diffcheck().random_scenario
    rng = random.Random(0)
    ran = dropping = 0
    for i in range(300):
        raw = {**draw(rng), "mode": "phy_relay"}
        size = raw["phy_relay"]["buffer_bytes"]
        runs = nested(raw, (size // 8, size // 2, size, 2 * size),
                      f"random scenario {i}")
        if runs is not None:
            ran += 1
            dropping += bool(runs[0])
    # 193 draws run to the horizon, 108 of them dropping bursts at the
    # smallest size
    assert ran > 150 and dropping > 50
    # burst sizes near the buffer size, around it
    rng = random.Random(1)
    ran = kept = 0
    for i in range(200):
        runs = nested(relay_draw(rng), (12_000, 24_000, 36_000, 48_000),
                      f"relay draw {i}")
        if runs is not None:
            ran += 1
            # a larger buffer drops some, but not all, of the bursts the
            # smallest one drops
            kept += any(0 < len(r) < len(runs[0]) for r in runs[1:])
    # all 200 draws run to the horizon, and in each a larger buffer drops
    # a part of what the smallest one drops
    assert ran > 150 and kept > 150
