"""Ablation A1: replacement policy (the paper mandates LRU, §4.3)."""

from benchmarks.conftest import run_once
from repro.harness.experiments import ALL_SWEEPS


def test_ablation_policy(benchmark, scale):
    report = run_once(benchmark, ALL_SWEEPS["policy"], scale)
    print()
    print(report)
    data = report.data
    # All policies terminate with faults in the same order of magnitude
    # (hash-line access is near-uniform), and LRU is never the worst.
    times = {p: d["time_s"] for p, d in data.items()}
    assert max(times.values()) < 3 * min(times.values())
    assert times["lru"] <= max(times["fifo"], times["random"])
