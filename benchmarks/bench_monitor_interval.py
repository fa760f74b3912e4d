"""Benchmark §5.4: sensitivity to the availability-monitoring interval."""

from benchmarks.conftest import run_once
from repro.harness.experiments import ALL_SWEEPS


def test_monitor_interval(benchmark, scale):
    report = run_once(benchmark, ALL_SWEEPS["monitor"], scale)
    print()
    print(report)
    times = report.data["times"]
    # Paper shape: results "are not significantly changed" between 1 s
    # and 3 s; only very short intervals add monitoring overhead.
    assert abs(times[1.0] - times[3.0]) / times[3.0] < 0.10
    assert times[0.02] >= times[3.0] * 0.98  # never better than relaxed
    assert times[10.0] < 1.15 * times[3.0]
