"""Benchmark harness: scaled workloads, per-table/figure experiments, CLI."""

from repro.harness.experiments import ALL_SWEEPS, ExperimentReport
from repro.harness.scales import SCALES, PreparedWorkload, Scale, prepare_workload

__all__ = [
    "ALL_SWEEPS",
    "ExperimentReport",
    "SCALES",
    "Scale",
    "PreparedWorkload",
    "prepare_workload",
]
