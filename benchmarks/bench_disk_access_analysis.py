"""Benchmark §5.2: the paper's remote-memory vs disk access-time analysis."""

from benchmarks.conftest import run_once
from repro.harness.experiments import ALL_SWEEPS


def test_disk_access_analysis(benchmark, scale):
    report = run_once(benchmark, ALL_SWEEPS["disk"], scale)
    print()
    print(report)
    data = report.data
    remote = next(v for k, v in data.items() if k.startswith("remote"))
    barracuda = next(v for k, v in data.items() if "Barracuda" in k)
    hitachi = next(v for k, v in data.items() if "DK3E1T" in k)
    # Paper §5.2's exact claims.
    assert barracuda >= 13.0e-3
    assert hitachi >= 7.5e-3
    assert 2.0e-3 <= remote <= 2.5e-3
