"""Ablation A4: UBR segment loss / TCP retransmission sensitivity."""

from benchmarks.conftest import run_once
from repro.harness.experiments import ALL_SWEEPS


def test_ablation_loss(benchmark, scale):
    report = run_once(benchmark, ALL_SWEEPS["loss"], scale)
    print()
    print(report)
    data = report.data
    assert data[0.001] >= data[0.0]
    assert data[0.01] > data[0.001]
    # 1% loss already costs meaningfully more than lossless operation.
    assert data[0.01] > 1.1 * data[0.0]
