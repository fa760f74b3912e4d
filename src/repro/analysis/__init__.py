"""Cost model, pagefault/disk analytics, and report formatting."""

from repro.analysis.cost_model import PAPER_COSTS, CostModel
from repro.analysis.diskmath import DiskComparisonRow, disk_comparison
from repro.analysis.pagefault import PagefaultRow, pagefault_row, predicted_fault_time_s
from repro.analysis.reporting import render_kv, render_series, render_table

__all__ = [
    "CostModel",
    "PAPER_COSTS",
    "PagefaultRow",
    "pagefault_row",
    "predicted_fault_time_s",
    "DiskComparisonRow",
    "disk_comparison",
    "render_table",
    "render_series",
    "render_kv",
]
