"""Tests for the Table 4 pagefault arithmetic and §5.2 disk comparison."""

import pytest

from repro.analysis import disk_comparison, pagefault_row
from repro.errors import ReproError


def test_row_computation_matches_paper_example():
    # Paper's 13 MB row: exec 4674.0, baseline 247.0, 1,896,226 faults
    # -> 2.33 ms per fault.
    row = pagefault_row("13MB", 4674.0, 247.0, 1_896_226)
    assert row.diff_time_s == pytest.approx(4427.0)
    assert row.per_fault_s == pytest.approx(2.33e-3, rel=0.01)


def test_all_paper_rows():
    # Exec, Max from Table 4 (baseline = 757.3 - 510.3 = 247.0 s).
    table = [
        ("12MB", 7183.1, 2_925_243, 2.37e-3),
        ("13MB", 4674.0, 1_896_226, 2.33e-3),
        ("14MB", 2489.7, 1_003_757, 2.22e-3),
        ("15MB", 757.3, 268_093, 1.90e-3),
    ]
    for label, exec_s, faults, expected in table:
        row = pagefault_row(label, exec_s, 247.0, faults)
        assert row.per_fault_s == pytest.approx(expected, rel=0.01), label


def test_zero_faults_rejected():
    with pytest.raises(ReproError):
        pagefault_row("x", 100.0, 50.0, 0)


def test_faster_than_baseline_rejected():
    with pytest.raises(ReproError):
        pagefault_row("x", 10.0, 50.0, 100)


def test_disk_comparison_rows():
    rows = disk_comparison()
    assert rows[0].device.startswith("remote memory")
    assert rows[0].ratio_vs_remote == 1.0
    by_name = {r.device: r for r in rows}
    barracuda = next(v for k, v in by_name.items() if "Barracuda" in k)
    hitachi = next(v for k, v in by_name.items() if "DK3E1T" in k)
    # §5.2's claims.
    assert barracuda.access_time_s >= 13.0e-3
    assert hitachi.access_time_s >= 7.5e-3
    assert barracuda.ratio_vs_remote > hitachi.ratio_vs_remote > 3.0
