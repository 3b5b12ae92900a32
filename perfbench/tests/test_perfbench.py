"""Tests of the benchmark harness itself.

Run from the repository root:
    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import copy
import json
import os
import sys
from types import SimpleNamespace

import pytest

import run
import worker
from tracing import LAYER_FUNCTIONS, MODULES, Tracer
from workloads import WORKLOADS, sweep

from fttrsim.links import InterferenceGraph
from fttrsim.scheduling import AirGrant

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def short(raw: dict, horizon_ms: int) -> dict:
    raw = copy.deepcopy(raw)
    raw["horizon_ms"] = horizon_ms
    return raw


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_scenarios(workload):
    assert sweep(workload, 7) == sweep(workload, 7)
    assert sweep(workload, 7) != sweep(workload, 8)
    assert json.loads(json.dumps(sweep(workload, 7))) == sweep(workload, 7)


def test_downlink_workloads_differ_only_in_mode():
    grants, csma = sweep("downlink_grants", 3), sweep("downlink_csma", 3)
    for a, b in zip(grants, csma):
        assert (a["mode"], b["mode"]) == ("centralized", "distributed")
        strip = {"mode", "name"}
        assert ({k: v for k, v in a.items() if k not in strip}
                == {k: v for k, v in b.items() if k not in strip})


@pytest.mark.parametrize("workload,horizon_ms", [
    ("downlink_grants", 60), ("downlink_csma", 60), ("control_plane", 1500)])
def test_traced_run_reproduces_untraced_outputs(workload, horizon_ms):
    raw = short(sweep(workload, 5)[0], horizon_ms)
    plain = worker.simulate(raw)
    tracer = Tracer()
    traced = worker.simulate(raw, tracer)
    assert traced["res"].digest == plain["res"].digest
    assert traced["summary_bytes"] == plain["summary_bytes"]
    assert traced["flows_bytes"] == plain["flows_bytes"]
    assert worker.check_outputs(traced) == []
    assert tracer.calls["engine.Simulator.run_until"] == 1
    handled = sum(n for name, n in tracer.calls.items()
                  if name in run.HANDLER_SPANS)
    assert handled == plain["summary"]["counters"]["events_dispatched"]


def _bindings() -> dict:
    """Every attribute of every fttrsim module and of the classes it
    defines, by identity."""
    out = {}
    for name in MODULES:
        mod = sys.modules[f"fttrsim.{name}"]
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(mod.__name__, attr, cattr)] = cvalue
    return out


def test_tracer_restores_every_wrapped_function():
    raw = short(sweep("control_plane", 2)[0], 300)
    before = _bindings()
    tracer = Tracer()
    with tracer:
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        worker.simulate(raw)
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    assert set(after) == set(before)
    # the wrappers were in place where callers look the names up
    assert ("fttrsim.simulation", "encode_omci") in changed
    assert ("fttrsim.frames", "encode_omci") in changed
    assert ("fttrsim.engine", "Simulator", "register") in changed
    wrapped = {name.split(".")[-1] for names in LAYER_FUNCTIONS.values()
               for name in names}
    assert {k[-1] for k in changed} == wrapped | {"register"}
    assert tracer.calls["frames.encode_omci"] > 0


def test_tracer_restores_after_a_failing_run():
    raw = short(sweep("downlink_grants", 2)[0], 20)
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            worker.simulate(raw)
            raise ZeroDivisionError
    assert all(_bindings()[k] is v for k, v in before.items())


def _fake_run(grants, slots, flows=None):
    return {
        "summary": {"flows": flows or {}},
        "res": SimpleNamespace(grants=grants, upstream_slots=slots),
        "sim": SimpleNamespace(graph=InterferenceGraph([("a", "b")])),
    }


def test_gate_flags_overlapping_grants_of_conflicting_cells():
    ok = [AirGrant("a", 0, 10), AirGrant("c", 5, 10), AirGrant("b", 10, 5)]
    assert worker.check_outputs(_fake_run(ok, [])) == []
    bad = ok + [AirGrant("b", 100, 10), AirGrant("c", 101, 3),
                AirGrant("a", 109, 4)]
    assert len(worker.check_outputs(_fake_run(bad, []))) == 1


def test_gate_flags_overlapping_upstream_slots_and_conservation():
    slots = [("x", 100, 10, 2), ("omci", 0, 10, 1), ("y", 110, 5, 2)]
    assert worker.check_outputs(_fake_run([], slots)) == []
    slots.append(("z", 114, 3, 2))
    assert len(worker.check_outputs(_fake_run([], slots))) == 1
    flows = {"f": {"offered": 3, "delivered": 2, "dropped": 2}}
    assert len(worker.check_outputs(_fake_run([], [], flows))) == 1


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    raws = [short(raw, 200) for raw in sweep("control_plane", 4)[:1]]
    setup = {"import_s": 0.3, "parse_s": 0.01, "build_s": 0.01,
             "setup_s": 0.32}
    for trace, key, build in ((False, "end_to_end", run.end_to_end),
                              (True, "per_layer", run.per_layer)):
        result = json.loads(json.dumps(worker.run_sweep(raws, 0, trace)))
        assert result["failed"] == 0
        assert result["attempted"] == worker.MIN_PASSES * (2 if trace else 1)
        metrics = build(result, setup)
        assert [(m["name"], m["unit"]) for m in spec[key]] == [
            (name, unit) for name, (_, unit) in metrics.items()]
        if trace:
            assert run.repeat_problems(result["traced_runs"]) == []
