"""Benchmark F4: regenerate Figure 4 (disk vs simple swapping vs remote
update)."""

from benchmarks.conftest import run_once
from repro.harness.experiments import ALL_SWEEPS
from repro.harness.scales import SCALES


def test_fig4_method_comparison(benchmark, scale):
    report = run_once(benchmark, ALL_SWEEPS["fig4"], scale)
    print()
    print(report)
    s = SCALES[scale]
    series = report.data["series"]

    # Paper shape: strict ordering disk >> simple >> update at every limit.
    for mb in s.limits_mb:
        disk = series["disk swapping"][mb]
        simple = series["simple swapping"][mb]
        update = series["remote update"][mb]
        assert disk > simple > update, (mb, disk, simple, update)

    # Rough factors: the paper's disk/simple gap follows the ~13ms vs
    # ~2.3ms access-time ratio; remote update wins by a larger margin at
    # tight limits.
    assert report.data["disk_over_simple"] > 3.0
    assert report.data["simple_over_update"] > 3.0

    # Remote update is nearly flat in the limit (its tight-limit time is
    # within a small factor of its loose-limit time, unlike the others).
    upd = series["remote update"]
    dsk = series["disk swapping"]
    tight, loose = min(upd), max(upd)
    assert upd[tight] / upd[loose] < 0.25 * (dsk[tight] / dsk[loose])
