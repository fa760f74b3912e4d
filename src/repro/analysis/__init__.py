"""Result-side analysis: Table 4 pagefault arithmetic, the §5.2 disk
comparison, and report formatting.  The cost model the simulation
charges lives in :mod:`repro.cluster.costs`."""

from repro.analysis.diskmath import DiskComparisonRow, disk_comparison
from repro.analysis.pagefault import PagefaultRow, pagefault_row
from repro.analysis.reporting import render_kv, render_series, render_table

__all__ = [
    "PagefaultRow",
    "pagefault_row",
    "DiskComparisonRow",
    "disk_comparison",
    "render_table",
    "render_series",
    "render_kv",
]
