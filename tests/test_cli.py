import json
from pathlib import Path

from fttrsim.cli import main
from fttrsim.metrics import write_outputs
from fttrsim.scenario import load_scenario
from fttrsim.simulation import Simulation, run_scenario_config

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = str(ROOT / "scenarios" / "golden.yaml")


def test_validate_accepts_shipped_scenarios(capsys):
    for f in sorted((ROOT / "scenarios").glob("*.yaml")):
        assert main(["validate", str(f)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_rejects_bad_schema(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("horizon_ms: 10\ntopology:\n  sfus: []\n")
    assert main(["validate", str(bad)]) == 2
    assert "topology.sfus" in capsys.readouterr().err


MODE_ERROR = ("scenario error: mode: expected one of distributed, "
              "centralized, phy_relay, got 'mac_integrated'")


def test_run_rejects_an_unknown_mode_flag(tmp_path, capsys):
    # the scenario parser holds the only list of modes
    assert main(["run", GOLDEN, "--mode", "mac_integrated",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.strip() == MODE_ERROR


def test_validate_rejects_an_unknown_mode(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("horizon_ms: 10\nmode: mac_integrated\n"
                   "topology:\n  sfus: [a]\n")
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err.strip() == MODE_ERROR


def test_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", GOLDEN, "--out", str(out), "--dump-schedule"]) == 0
    assert (out / "summary.json").exists()
    assert (out / "flows.csv").exists()
    assert (out / "schedule.log").exists()
    stdout = capsys.readouterr().out
    assert "digest" in stdout
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "golden"
    header = (out / "flows.csv").read_text().splitlines()[0]
    assert header.startswith("flow,offered,delivered")


def test_alarms_log_holds_each_alarms_lines(tmp_path):
    storm = ROOT / "tests" / "data" / "runs" / "storm_kill_bursts.yaml"
    res = run_scenario_config(load_scenario(storm))
    write_outputs(res, tmp_path)
    lines = [line for alarm in res.alarms for line in alarm.log_lines()]
    assert lines and (tmp_path / "alarms.log").read_text().splitlines() == lines


def test_run_rejects_bad_scenario(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("topology:\n  sfus: [a]\n")
    assert main(["run", str(bad)]) == 2


def test_repeat_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", GOLDEN, "--out", str(a)]) == 0
    assert main(["run", GOLDEN, "--out", str(b)]) == 0
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    assert (a / "flows.csv").read_bytes() == (b / "flows.csv").read_bytes()


def test_seed_override_changes_contended_runs(tmp_path):
    pair = str(ROOT / "scenarios" / "conflict_pair.yaml")
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"s{seed}"
        assert main(["run", pair, "--mode", "distributed", "--seed", str(seed),
                     "--duration-ms", "500", "--out", str(out)]) == 0
        outs.append(json.loads((out / "summary.json").read_text()))
    assert outs[0]["digest"] != outs[1]["digest"]
    assert outs[0]["seed"] == 1 and outs[1]["seed"] == 2


def test_compare_reports_deltas(tmp_path, capsys):
    pair = str(ROOT / "scenarios" / "conflict_pair.yaml")
    for mode in ("centralized", "distributed"):
        assert main(["run", pair, "--mode", mode, "--duration-ms", "500",
                     "--out", str(tmp_path / mode)]) == 0
    report_file = tmp_path / "delta.json"
    assert main(["compare", str(tmp_path / "centralized" / "summary.json"),
                 str(tmp_path / "distributed" / "summary.json"),
                 "--out", str(report_file)]) == 0
    report = json.loads(report_file.read_text())
    assert report["a"]["mode"] == "centralized"
    assert set(report["flows"]) == {"stream_a", "stream_b"}
    assert report["delta_collisions"] >= 0


def test_compare_refuses_different_shapes(tmp_path, capsys):
    assert main(["run", GOLDEN, "--out", str(tmp_path / "g")]) == 0
    pair = str(ROOT / "scenarios" / "conflict_pair.yaml")
    assert main(["run", pair, "--duration-ms", "100",
                 "--out", str(tmp_path / "p")]) == 0
    assert main(["compare", str(tmp_path / "g" / "summary.json"),
                 str(tmp_path / "p" / "summary.json")]) == 2


def test_run_rejects_more_rooms_than_omci_can_address(tmp_path, capsys):
    # extended OMCI routes by one sfu_id byte: room 256 would alias room 0
    rooms = ", ".join(f"r{i:03d}" for i in range(256))
    bad = tmp_path / "bad.yaml"
    bad.write_text(f"horizon_ms: 1\ntopology:\n  sfus: [{rooms}]\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "topology.sfus" in capsys.readouterr().err


def test_run_rejects_on_off_flow_without_on_period(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("horizon_ms: 10\ntopology:\n  sfus: [a]\nflows:\n"
                   "  - {dst: a, size_bytes: 100, model: on_off,"
                   " rate_mbps: 1, on_ms: 0, off_ms: 0}\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2


def test_run_exits_3_when_relayed_burst_outgrows_the_cycle(tmp_path, capsys):
    # the relayed bursts (307200 ns and 384000 ns) are longer than the
    # 239900 ns between two OMCI windows of a 250 us alloc cycle
    for name in ("golden", "ofdma_uplink_burst"):
        scenario = str(ROOT / "scenarios" / f"{name}.yaml")
        assert main(["run", scenario, "--mode", "phy_relay",
                     "--out", str(tmp_path / name)]) == 3
        assert "does not fit" in capsys.readouterr().err


def test_run_exits_3_when_alloc_cycle_is_shorter_than_omci_slot(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("horizon_ms: 10\ntopology:\n  sfus: [a]\n"
                   "control: {alloc_cycle_us: 5, omci_slot_us: 10}\n"
                   "uplink_bursts:\n"
                   "  - {sfu: a, period_us: 1000, air_duration_us: 10,"
                   " rus: [{sta: s, bytes: 100}]}\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 3


def test_run_exits_3_when_omci_slots_overlap(tmp_path, capsys):
    # a 10 us OMCI slot every 5 us alloc cycle overlaps the next cycle's
    # slot; with a storm and no bursts this used to run to exit 0
    bad = tmp_path / "bad.yaml"
    bad.write_text("horizon_ms: 10\ntopology:\n  sfus: [a]\n"
                   "control: {alloc_cycle_us: 5, omci_slot_us: 10}\n"
                   "management:\n  storm: {count: 3}\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 3
    assert "OMCI slot" in capsys.readouterr().err


def test_malformed_yaml_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("horizon_ms: 10\ntopology: {sfus: [a\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert main(["validate", str(bad)]) == 2
    assert "malformed YAML" in capsys.readouterr().err


def test_validate_rejects_nan_horizon(tmp_path, capsys):
    # YAML reads .nan as a float; it used to raise a raw ValueError
    bad = tmp_path / "nan.yaml"
    bad.write_text("horizon_ms: .nan\ntopology: {sfus: [a]}\n")
    assert main(["validate", str(bad)]) == 2
    assert "horizon_ms" in capsys.readouterr().err


def test_unreadable_scenario_exits_2(tmp_path, capsys):
    # a missing path, a directory and non-UTF-8 bytes used to end in a
    # traceback (FileNotFoundError, IsADirectoryError, UnicodeDecodeError)
    latin1 = tmp_path / "latin1.yaml"
    latin1.write_bytes("name: caf\u00e9\n".encode("latin-1"))
    for path in (tmp_path / "missing.yaml", tmp_path, latin1):
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("scenario error: <root>: unreadable scenario file") == 2


def test_compare_refuses_unreadable_summaries(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "scenario": "s", "mode": "centralized", "seed": 1, "flows": {},
        "cells": {}, "energy": {"total_joules": 1.0}}))
    assert main(["compare", str(good), str(good)]) == 0
    capsys.readouterr()
    bad = {"missing.json": None, "invalid.json": "{", "list.json": "[]",
           "no_flows.json": json.dumps({"cells": {}, "energy": {}})}
    for name, text in bad.items():
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        for pair in ([str(path), str(good)], [str(good), str(path)]):
            assert main(["compare", *pair]) == 2, name
            assert "refusing to compare" in capsys.readouterr().err


def test_run_exits_3_when_a_flow_delivers_more_than_it_was_offered(
        tmp_path, monkeypatch, capsys):
    deliver = Simulation._deliver

    def deliver_twice(self, frame, t):
        deliver(self, frame, t)
        deliver(self, frame, t)
    monkeypatch.setattr(Simulation, "_deliver", deliver_twice)
    assert main(["run", GOLDEN, "--out", str(tmp_path / "out")]) == 3
    assert "offered" in capsys.readouterr().err


def test_run_exits_3_when_a_frame_vanishes_from_the_mfu_link(
        tmp_path, monkeypatch, capsys):
    send = Simulation._optical_downstream
    lost = []

    def send_and_lose_the_first(self, frame):
        send(self, frame)
        if not lost:
            lost.append(self.inbound.pop())
    monkeypatch.setattr(Simulation, "_optical_downstream",
                        send_and_lose_the_first)
    assert main(["run", GOLDEN, "--out", str(tmp_path / "out")]) == 3
    assert lost
    assert "holds" in capsys.readouterr().err
