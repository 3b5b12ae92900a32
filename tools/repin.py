"""Re-pin the outputs: rewrite tests/data/pins.json and
tests/data/golden_summary.json from the working tree, then print
tools/diffcheck.py's metric lines, summary line and source line count
against HEAD, for CHANGES.md.

A pin is `diffcheck.record` of one case without its `numbers`, plus
`config`, the sha256 of `canonical`'s dump of the parsed scenario. The cases
are every shipped scenario at its own seed and every scenario of
tests/data/runs/, each in every mode. tests/test_output_pins.py
compares `pins()` with the file field by field, and the file with
`dumps(pins())` byte for byte. golden_summary.json is the full
`summary.json` of `golden` at its own seed and mode.

Usage, from a git checkout; commit what it writes in a commit of its own:
    python3 tools/repin.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from diffcheck import (NUMBERS, ROOT, RUNS, SCENARIOS, main as diffcheck_main,
                       mode_cases, record, scenario_dicts)

PINS = ROOT / "tests" / "data" / "pins.json"
GOLDEN = ROOT / "tests" / "data" / "golden_summary.json"


def canonical(value):
    """A JSON-able dump of `value` that keeps every type name: record
    fields by name, sets and mappings sorted. It shows drift that no output
    does, such as in `wake_deep_ns` of a scenario where no room sleeps deep
    or in the station of a resource unit, and an int read as a float or the
    other way round."""
    from fttrsim.scenario import _Record
    kind = type(value).__name__
    # a scenario section by its annotated fields, a named tuple by _fields
    names = (type(value).__annotations__ if isinstance(value, _Record)
             else getattr(value, "_fields", None))
    if names is not None:
        return [kind, {name: canonical(getattr(value, name))
                       for name in names}]
    if isinstance(value, (set, frozenset)):
        return [kind, sorted(canonical(v) for v in value)]
    if isinstance(value, dict):
        return [kind, sorted([canonical(k), canonical(v)]
                             for k, v in value.items())]
    if isinstance(value, (list, tuple)):
        return [kind, [canonical(v) for v in value]]
    return [kind, repr(value)]


def config_hash(cfg) -> str:
    text = json.dumps(canonical(cfg), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def pins() -> dict[str, dict]:
    """Case id -> the case's pin."""
    from fttrsim.scenario import parse_scenario
    out = {}
    for case in mode_cases({**scenario_dicts(SCENARIOS),
                            **scenario_dicts(RUNS)}):
        pin = record(case)
        pin.pop(NUMBERS, None)
        pin["config"] = config_hash(parse_scenario(case["raw"],
                                                   case["overrides"]))
        out[case["id"]] = pin
    return out


def dumps(pins: dict[str, dict]) -> str:
    return json.dumps(pins, indent=1, sort_keys=True) + "\n"


def main() -> None:
    # pin this tree's package, not an installed one
    sys.path.insert(0, str(ROOT / "src"))
    from fttrsim.metrics import build_summary, summary_bytes
    from fttrsim.scenario import load_scenario
    from fttrsim.simulation import run_scenario_config
    PINS.write_text(dumps(pins()))
    golden = run_scenario_config(load_scenario(SCENARIOS / "golden.yaml"))
    GOLDEN.write_bytes(summary_bytes(build_summary(golden)))
    diffcheck_main(["HEAD"])


if __name__ == "__main__":
    main()
