"""Baseline benchmark B1: NPA vs HPA under per-node memory limits —
quantifies §2.2's motivation for hash partitioning."""

from benchmarks.conftest import run_once
from repro.harness.experiments import ALL_SWEEPS


def test_npa_comparison(benchmark, scale):
    report = run_once(benchmark, ALL_SWEEPS["npa"], scale)
    print()
    print(report)
    data = report.data
    tight = "12MB"
    # At the tightest limit NPA has overflowed massively while HPA's
    # per-node share fits far better.
    assert data[tight]["npa_swaps"] > data[tight]["hpa_swaps"]
    assert data[tight]["npa_s"] > data[tight]["hpa_s"]
    # NPA degrades far more steeply from no-limit to the tight limit.
    npa_blowup = data[tight]["npa_s"] / data["no limit"]["npa_s"]
    hpa_blowup = data[tight]["hpa_s"] / data["no limit"]["hpa_s"]
    assert npa_blowup > hpa_blowup
