import pytest

from fttrsim.metrics import build_summary
from fttrsim.scenario import parse_scenario
from fttrsim.simulation import run_scenario_config


def one_frame_run(mode: str, horizon_ms: float):
    # one 12000-byte frame created at 4 ms; at 100 Mb/s it holds the air for
    # 1044 us (960 us of payload plus the per-frame overheads). Centralized:
    # granted by the 5 ms status cycle, on the air from 5.005 to 6.049 ms.
    # Distributed: on the air from about 4.2 to 5.3 ms.
    res = run_scenario_config(parse_scenario({
        "horizon_ms": horizon_ms, "mode": mode,
        "topology": {"sfus": ["a"]},
        "wifi": {"air_rate_mbps": 100},
        "flows": [{"name": "f", "dst": "a", "size_bytes": 12000,
                   "model": "batch", "count": 1, "start_ms": 4}],
    }))
    return res, build_summary(res)["flows"]["f"]


@pytest.mark.parametrize("mode,cut_ms", [("centralized", 5.5),
                                         ("distributed", 4.5)])
def test_frame_on_the_air_at_the_horizon_is_lost(mode, cut_ms):
    res, row = one_frame_run(mode, cut_ms)
    # its airtime was scheduled before the horizon ...
    assert res.cell_stats["a"].airtime_ns == 1_044_000
    # ... but its delivery ends after it
    assert (row["offered"], row["delivered"], row["lost"]) == (1, 0, 1)
    assert len(res.flow_stats["f"].latencies) == 0
    assert res.activity_spans == []

    res, row = one_frame_run(mode, 8)
    assert (row["offered"], row["delivered"], row["lost"]) == (1, 1, 0)
    assert len(res.activity_spans) == 1


def offered_in(flow: dict) -> int:
    """Frames offered by one flow `flow` to room `a` in a 20 ms run."""
    res = run_scenario_config(parse_scenario({
        "horizon_ms": 20, "topology": {"sfus": ["a"]},
        "flows": [{"name": "f", "dst": "a", "size_bytes": 100, **flow}],
    }))
    return res.flow_stats["f"].offered


def test_stop_ms_bounds_arrivals():
    # batch arrivals at 0, 1, 2 and 3 ms; the six after stop_ms used to be
    # offered
    batch = {"model": "batch", "count": 10, "interval_us": 1000}
    assert offered_in({**batch, "stop_ms": 3}) == 4
    assert offered_in(batch) == 10
    # a flow may stop when it starts: it offers its first frame only
    assert offered_in({"rate_mbps": 1, "start_ms": 4, "stop_ms": 4}) == 1
