"""tools/diffcheck.py on a few cases: HEAD against itself, and a difference
planted in one result; and a property of the runs of its random
scenarios."""

import copy
import importlib.util
import random
import subprocess
from pathlib import Path

import pytest

from fttrsim.energy import PowerState
from fttrsim.scenario import ConfigError, parse_scenario
from fttrsim.simulation import run_scenario_config

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
