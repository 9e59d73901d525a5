"""The BENCH record's medians and quartiles, on fake runs."""

import pytest

from benchpairs import record

BENCHMARK = {
    "command": ["python3", "perfbench/run.py"],
    "run_seconds": 15,
    "end_to_end": [{"name": "wall_s"}, {"name": "peak_rss_mb"}],
}


def fake_run(pair, side, wall_s, peak_rss_mb):
    metrics = {"wall_s": {"value": wall_s, "unit": "s"}, "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    return {"pair": pair, "side": side, "first": True, "exit": 0, "run": {"git_sha": None},
            "result": {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}}


def test_medians_and_quartiles_of_two_runs():
    runs = [fake_run(0, "parent", 2.0, 48.0), fake_run(0, "change", 1.0, 50.0),
            fake_run(1, "change", 3.0, 49.0), fake_run(1, "parent", 4.0, 48.0)]
    bench = record("abc123", BENCHMARK, {"paper-day": runs})
    assert (bench["parent_sha"], bench["seed"], bench["seconds"]) == ("abc123", 1, 15)
    day = bench["workloads"]["paper-day"]
    assert day["runs"] == runs
    # inclusive quartiles of two values lie a quarter of the way in from each end
    assert day["parent"] == {"wall_s": {"median": 3.0, "q1": 2.5, "q3": 3.5},
                             "peak_rss_mb": {"median": 48.0, "q1": 48.0, "q3": 48.0}}
    assert day["change"]["wall_s"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert day["change"]["peak_rss_mb"] == pytest.approx({"median": 49.5, "q1": 49.25, "q3": 49.75})
