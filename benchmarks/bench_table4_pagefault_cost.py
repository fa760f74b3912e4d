"""Benchmark T4: regenerate Table 4 (per-pagefault execution time)."""

from benchmarks.conftest import run_once
from repro.harness.experiments import ALL_SWEEPS


def test_table4_pagefault_cost(benchmark, scale):
    report = run_once(benchmark, ALL_SWEEPS["table4"], scale)
    print()
    print(report)
    per_fault = report.data["per_fault_ms"]
    # Paper shape: ~2.2-2.4 ms per fault, close to the analytic
    # decomposition (RTT + 4 KB transmit + holder service), far below the
    # >=13 ms disk access.  Queueing pushes the measured value slightly
    # above the analytic one; a generous factor still separates it from
    # disk by a wide margin.
    predicted = report.data["predicted_ms"]
    for mb, pf_ms in per_fault.items():
        assert 0.8 * predicted <= pf_ms <= 2.0 * predicted, (mb, pf_ms)
        assert pf_ms < 7.0  # way below any disk's access time
