"""Ablation A2: message block size (the paper fixes 4 KB, §5.1)."""

from benchmarks.conftest import run_once
from repro.harness.experiments import ALL_SWEEPS


def test_ablation_blocksize(benchmark, scale):
    report = run_once(benchmark, ALL_SWEEPS["blocksize"], scale)
    print()
    print(report)
    simple = report.data["simple swapping"]
    update = report.data["remote update"]
    # Larger blocks inflate the per-fault transmission time for simple
    # swapping (every fault ships a full block).
    assert simple[16384] > simple[4096]
    # Remote update stays far below simple swapping at every size.
    for size in simple:
        assert update[size] < simple[size]
