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
