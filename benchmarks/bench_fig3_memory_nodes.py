"""Benchmark F3: regenerate Figure 3 (exec time vs memory-available nodes)."""

from benchmarks.conftest import run_once
from repro.harness.experiments import ALL_SWEEPS
from repro.harness.scales import SCALES


def test_fig3_memory_nodes(benchmark, scale):
    report = run_once(benchmark, ALL_SWEEPS["fig3"], scale)
    print()
    print(report)
    s = SCALES[scale]
    series = report.data["series"]
    n_min, n_max = min(s.memory_node_counts), max(s.memory_node_counts)

    # Paper shape 1: with few memory nodes the fault service bottlenecks;
    # the curve falls as nodes are added.  The knee's depth grows with
    # the number of application nodes hammering the single holder.
    min_ratio = {"tiny": 1.05, "small": 1.5, "full": 1.8}[scale]
    assert report.data["bottleneck_ratio"] > min_ratio
    for mb in s.limits_mb:
        curve = series[f"limit {mb:g}MB"]
        assert curve[n_min] > curve[n_max]

    # Paper shape 2: tighter limits sit strictly higher at every point.
    for n in s.memory_node_counts:
        column = [series[f"limit {mb:g}MB"][n] for mb in sorted(s.limits_mb)]
        assert column == sorted(column, reverse=True)
        # Paper shape 3: the no-limit curve is the flat floor.
        assert series["no limit"][n] < min(column)
