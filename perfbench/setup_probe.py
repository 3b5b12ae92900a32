"""One set-up sample in a fresh interpreter.

Times ``import`` of the simulator's modules, ``parse_scenario`` and
``Simulation(cfg)`` for the scenario dict read as JSON on stdin, and prints
the three times and their sum as one JSON object, with the time of one
calibration kernel call made right after (see calibrate.py). Only
modules that the interpreter has already loaded at start-up are imported
before the clock starts, so work done at import time (such as the scrambler
keystream that ``fttrsim.frames`` builds) is counted.

Usage: python3 perfbench/setup_probe.py < scenario.json
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> int:
    t0 = time.perf_counter()
    import fttrsim.metrics
    import fttrsim.scenario
    import fttrsim.simulation
    t1 = time.perf_counter()
    import json
    raw = json.load(sys.stdin)
    t2 = time.perf_counter()
    cfg = fttrsim.scenario.parse_scenario(raw)
    t3 = time.perf_counter()
    fttrsim.simulation.Simulation(cfg)
    t4 = time.perf_counter()
    import calibrate  # from this script's directory
    print(json.dumps({"import_s": t1 - t0, "parse_s": t3 - t2,
                      "build_s": t4 - t3, "setup_s": (t1 - t0) + (t4 - t2),
                      "kernel_s": calibrate.kernel_s()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
