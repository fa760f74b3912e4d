"""Ablation A3: HPA-ELD frequent-candidate duplication (the skew-handling
method the paper cites in §5.1)."""

from benchmarks.conftest import run_once
from repro.harness.experiments import ALL_SWEEPS


def test_ablation_eld(benchmark, scale):
    report = run_once(benchmark, ALL_SWEEPS["eld"], scale)
    print()
    print(report)
    data = report.data
    # Duplication removes traffic superlinearly in the duplicated share:
    # the most frequent candidates carry the most counts.
    base_msgs = data[0.0]["count_messages"]
    assert data[0.1]["count_messages"] < 0.9 * base_msgs
    assert data[0.3]["count_messages"] < data[0.1]["count_messages"]
    assert data[0.0]["duplicated"] == 0
    assert data[0.3]["duplicated"] > data[0.02]["duplicated"]
