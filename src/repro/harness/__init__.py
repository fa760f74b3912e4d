"""Benchmark harness: scaled workloads, per-table/figure experiments, CLI."""

from repro.harness.experiments import ALL_SWEEPS
from repro.harness.scales import SCALES, PreparedWorkload, Scale, prepare_workload
from repro.harness.sweep import ExperimentReport

__all__ = [
    "ALL_SWEEPS",
    "ExperimentReport",
    "SCALES",
    "Scale",
    "PreparedWorkload",
    "prepare_workload",
]
