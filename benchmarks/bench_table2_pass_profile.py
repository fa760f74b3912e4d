"""Benchmark T2: regenerate the paper's Table 2 (per-pass itemset counts)."""

from benchmarks.conftest import run_once
from repro.harness.experiments import ALL_SWEEPS


def test_table2_pass_profile(benchmark, scale):
    report = run_once(benchmark, ALL_SWEEPS["table2"], scale)
    print()
    print(report)
    # Paper shape: the pass-2 candidate explosion dominates the run.
    assert report.data["c2_dominates"]
    assert report.data["c2"] > 10 * report.data["max_later_candidates"]
    # The iteration terminated on its own (last pass has few/no large sets).
    rows = report.data["rows"]
    assert rows[-1][2] <= rows[1][2]
