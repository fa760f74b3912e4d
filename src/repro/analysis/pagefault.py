"""Pagefault-cost analysis (paper Table 4 and §5.2).

The paper derives the execution time of one pagefault by subtracting the
no-memory-limit execution time from a limited run's and dividing by the
maximum pagefault count over all nodes ("The total execution time is
decided by the busiest node that does the most swapping operations").
It then decomposes that time into round trip + transmission + memory-node
service, the model's :meth:`~repro.cluster.costs.CostModel.remote_fault_time_s`.
This module does the first on simulated runs, to print Table 4 verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError

__all__ = ["PagefaultRow", "pagefault_row"]


@dataclass(frozen=True)
class PagefaultRow:
    """One row of Table 4."""

    label: str
    exec_time_s: float
    diff_time_s: float
    max_faults: int
    per_fault_s: float


def pagefault_row(
    label: str,
    exec_time_s: float,
    baseline_time_s: float,
    max_faults: int,
) -> PagefaultRow:
    """Build a Table 4 row from a limited run and the no-limit baseline."""
    if max_faults <= 0:
        raise ReproError("pagefault analysis requires at least one fault")
    if exec_time_s < baseline_time_s:
        raise ReproError(
            f"limited run ({exec_time_s}) faster than baseline ({baseline_time_s})"
        )
    diff = exec_time_s - baseline_time_s
    return PagefaultRow(
        label=label,
        exec_time_s=exec_time_s,
        diff_time_s=diff,
        max_faults=max_faults,
        per_fault_s=diff / max_faults,
    )
