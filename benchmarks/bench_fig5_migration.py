"""Benchmark F5: regenerate Figure 5 (dynamic memory migration)."""

from benchmarks.conftest import run_once
from repro.harness.experiments import ALL_SWEEPS
from repro.harness.scales import SCALES


def test_fig5_migration(benchmark, scale):
    report = run_once(benchmark, ALL_SWEEPS["fig5"], scale)
    print()
    print(report)
    s = SCALES[scale]
    series = report.data["series"]

    # Paper shape: "the execution time did not change significantly from
    # case to case ... the overhead of memory contents migration is
    # almost negligible".
    for mb in s.limits_mb:
        base = series["all memory nodes available"][mb]
        one = series["1 memory node unavailable"][mb]
        two = series["2 memory nodes unavailable"][mb]
        assert one < 1.35 * base, (mb, base, one)
        assert two < 1.5 * base, (mb, base, two)
    assert report.data["worst_overhead_ratio"] < 1.5
