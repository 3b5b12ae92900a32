import json
from pathlib import Path

from fttrsim.cli import main
from fttrsim.simulation import Simulation

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


def test_run_exits_3_when_a_flow_delivers_more_than_it_was_offered(
        tmp_path, monkeypatch, capsys):
    deliver = Simulation._deliver

    def deliver_twice(self, frame, t):
        deliver(self, frame, t)
        deliver(self, frame, t)
    monkeypatch.setattr(Simulation, "_deliver", deliver_twice)
    assert main(["run", GOLDEN, "--out", str(tmp_path / "out")]) == 3
    assert "offered" in capsys.readouterr().err
