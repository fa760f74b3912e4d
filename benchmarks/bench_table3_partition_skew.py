"""Benchmark T3: regenerate Table 3 (per-node candidate counts + skew)."""

from benchmarks.conftest import run_once
from repro.harness.experiments import ALL_SWEEPS


def test_table3_partition_skew(benchmark, scale):
    report = run_once(benchmark, ALL_SWEEPS["table3"], scale)
    print()
    print(report)
    counts = report.data["per_node"]
    # Paper shape: near-equal but not equal (skew exists).
    assert max(counts) != min(counts)
    assert report.data["max_over_mean"] < 1.25
