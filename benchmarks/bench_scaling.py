"""Scaling benchmark: HPA speedup with application nodes (paper §3.3)."""

from benchmarks.conftest import run_once
from repro.harness.experiments import ALL_SWEEPS


def test_scaling(benchmark, scale):
    report = run_once(benchmark, ALL_SWEEPS["scaling"], scale)
    print()
    print(report)
    speedup = report.data["speedup"]
    ns = sorted(speedup)
    # Speedup grows monotonically with nodes and stays super-half-linear.
    for a, b in zip(ns, ns[1:]):
        assert speedup[b] > speedup[a]
    top = ns[-1]
    assert speedup[top] > 0.4 * top
