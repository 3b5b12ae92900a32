"""Per-layer tracing applied from outside the simulator.

``Tracer`` wraps the public functions of each ``fttrsim`` module, and every
event handler passed to ``Simulator.register``, with a span that counts calls
and measures inclusive and self time. Self time is a span's duration minus
the time of the wrapped spans it called. Nothing under ``src/`` changes: the
wrappers are installed on entry and the original objects are put back on
exit.

A module-level function is wrapped under every name it is bound to in a
loaded ``fttrsim`` module, because ``simulation.py`` imports most of them by
name and looks them up in its own globals.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

MODULES = ("engine", "frames", "links", "scheduling", "management", "energy",
           "scenario", "simulation", "metrics")

# layer (module) -> public callables wrapped, as "name" or "Class.method".
LAYER_FUNCTIONS = {
    "engine": ("Simulator.run_until", "Simulator.schedule",
               "RngStreams.for_node"),
    "simulation": ("Simulation.run",),
    "scheduling": ("grant_downlink_airtime", "check_grant_overlap",
                   "ofdma_uplink_request", "generate_tamap"),
    "links": ("WifiCell.airtime_ns", "InterferenceGraph.conflicts",
              "InterferenceGraph.neighbors"),
    "frames": ("encode_omci", "decode_omci", "pma_wire_len",
               "classification_tag"),
    "management": ("apply_omci", "OmciAdapter.to_standard",
                   "OmciAdapter.to_extended", "LivenessMonitor.record_poll"),
    "energy": ("PowerMachine.request", "select_policy", "SleepBuffer.push",
               "EnergyLedger.check_tiling", "ftth_baseline_joules"),
    "metrics": ("build_summary", "percentile", "summary_bytes",
                "flow_table_bytes"),
}

SPANS = tuple(f"{layer}.{name}" for layer, names in LAYER_FUNCTIONS.items()
              for name in names)


def handler_span(target: str, kind: str) -> str:
    """Span name of one event kind: the target's class, not its instance."""
    return f"simulation.{target.split(':', 1)[0]}.{kind}"


class Tracer:
    """Context manager that installs the layer wrappers and removes them."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        # child-time accumulators of the open spans; the root never pops
        self._stack = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    def _record(self, name: str, elapsed: float, child: float) -> None:
        self._stack[-1] += elapsed
        self.calls[name] += 1
        self.total_s[name] += elapsed
        self.self_s[name] += elapsed - child

    def wrap(self, name: str, fn):
        stack, record, clock = self._stack, self._record, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                record(name, elapsed, stack.pop())
        return traced

    def wrap_handler(self, target: str, handler):
        """Wrap an event handler with one span per event kind."""
        by_kind: dict[str, object] = {}

        def traced(ev):
            wrapped = by_kind.get(ev.kind)
            if wrapped is None:
                wrapped = by_kind[ev.kind] = self.wrap(
                    handler_span(target, ev.kind), handler)
            return wrapped(ev)
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        mods = [importlib.import_module(f"fttrsim.{m}") for m in MODULES]
        try:
            for layer, names in LAYER_FUNCTIONS.items():
                home = sys.modules[f"fttrsim.{layer}"]
                for name in names:
                    span = f"{layer}.{name}"
                    if "." in name:
                        cls_name, meth = name.split(".")
                        cls = getattr(home, cls_name)
                        self._patch(cls, meth, self.wrap(span, cls.__dict__[meth]))
                        continue
                    fn = getattr(home, name)
                    traced = self.wrap(span, fn)
                    for mod in mods:
                        if mod.__dict__.get(name) is fn:
                            self._patch(mod, name, traced)
            simulator = sys.modules["fttrsim.engine"].Simulator
            register = simulator.__dict__["register"]
            wrap_handler = self.wrap_handler

            def traced_register(sim, target, handler):
                return register(sim, target, wrap_handler(target, handler))
            self._patch(simulator, "register", traced_register)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self.restore()
