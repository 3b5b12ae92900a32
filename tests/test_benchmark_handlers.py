"""The benchmark's handler list names every event kind a run schedules.

`perfbench/run.py` reports calls and self time per `(target class, kind)`
from its `HANDLER_KINDS`; a kind missing there reads 0 without an error.
The benchmark is imported read-only.
"""

import importlib.util
import sys
from pathlib import Path

from diffcheck import RUNS, SCENARIOS, mode_cases, scenario_dicts
from fttrsim.engine import Simulator
from fttrsim.scenario import load_scenario, parse_scenario
from fttrsim.simulation import run_scenario_config

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def bench_run_module():
    # run.py imports its sibling modules by their plain names
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_lists_every_scheduled_handler(monkeypatch):
    seen = set()
    schedule = Simulator.schedule

    def spy(sim, fire_time, target, kind, *args, **kwargs):
        seen.add((target.split(":", 1)[0], kind))
        return schedule(sim, fire_time, target, kind, *args, **kwargs)

    monkeypatch.setattr(Simulator, "schedule", spy)
    for case in mode_cases(scenario_dicts(RUNS)):
        run_scenario_config(parse_scenario(case["raw"], case["overrides"]))
    for name in ("golden", "staged_kill"):
        run_scenario_config(load_scenario(SCENARIOS / f"{name}.yaml"))
    listed = {(target, kind) for target, kinds
              in bench_run_module().HANDLER_KINDS.items() for kind in kinds}
    assert seen <= listed, sorted(seen - listed)
    # the runs reach the rooms' sleep timer and every target class
    assert ("sfu", "sleep_check") in seen
    # uplink bursts are played before the event loop, every unit's idle
    # timer is folded from its activity times, an air grant is applied at
    # its place in the event order and a flow's arrivals are merged with
    # the queue by the engine: none schedules an event
    assert not {("sfu", "burst_start"), ("mfu", "upstream_burst_done"),
                ("mfu", "power_check"), ("sfu", "power_check"),
                ("sfu", "grant_start"), ("mfu", "flow_arrival")} & seen
    # the OMCI plane is played after the event loop: neither its alloc
    # cycles nor a receive at a room or at the OLT is an event
    assert {target for target, _ in seen} == {"mfu", "sfu", "domain"}
    assert ("sfu", "omci_rx") not in seen
    assert ("mfu", "alloc_cycle") not in seen
