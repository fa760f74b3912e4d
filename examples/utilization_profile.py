#!/usr/bin/env python
"""Per-phase cluster utilisation during an HPA run with remote memory.

The paper's companion work analyses CPU usage and network behaviour of
the cluster during HPA execution; this example shows the reproduction's
equivalent: enable telemetry with a periodic utilisation sampler on a
run, then print a timeline — pagefault rate per interval, network
throughput, and the busiest nodes' CPU utilisation — annotated with the
phase boundaries.

Run:  python examples/utilization_profile.py (add --fast for a tiny run)
"""

import sys

from repro import HPAConfig, apriori, generate
from repro.mining.hpa import HPARun


def bar(fraction: float, width: int = 30) -> str:
    """Tiny ASCII bar."""
    n = int(round(fraction * width))
    return "#" * n + "." * (width - n)


def main(fast: bool = False) -> None:
    if fast:
        workload, n_items, minsup, n_app, n_mem, lines = (
            "T8.I3.D300", 120, 0.02, 2, 2, 512
        )
    else:
        workload, n_items, minsup, n_app, n_mem, lines = (
            "T10.I4.D1K", 250, 0.01, 4, 8, 4096
        )
    db = generate(workload, n_items=n_items, seed=42)
    ref = apriori(db, minsup=minsup, max_k=2)
    limit = int((ref.passes[1].n_candidates / n_app) * 24 * 1.1 * 0.85)

    run = HPARun(
        db,
        HPAConfig(
            minsup=minsup, n_app_nodes=n_app, total_lines=lines, max_k=2,
            pager="remote", n_memory_nodes=n_mem, memory_limit_bytes=limit,
        ),
    )
    tel = run.enable_telemetry(sample_interval_s=0.1)
    res = run.run()
    sampler = run.sampler
    assert sampler is not None

    kinds = tel.counts_by_kind()
    print(f"run finished at t={res.total_time_s:.2f}s virtual; "
          f"{kinds.get('fault', 0)} faults, "
          f"{kinds.get('swap-out', 0)} swap-outs\n")

    print("phase boundaries:")
    for e in tel.events_of_kind("phase"):
        print(f"  t={e.time:7.3f}s  {e.detail}")

    print("\npagefault rate (faults per 0.25 s bucket):")
    series = tel.rate_series("fault", bucket_s=0.25)
    peak = max((c for _, c in series), default=1)
    for t, count in series:
        print(f"  t={t:6.2f}s  {bar(count / peak)}  {count}")

    print("\napp-node CPU utilisation (node 0) over time:")
    for t, u in run.sampler.cpu_series(0)[:: max(1, len(sampler.samples) // 12)]:
        print(f"  t={t:6.2f}s  {bar(u)}  {u:4.0%}")

    thr = sampler.throughput_series()
    if thr:
        peak_mbps = max(r for _, r in thr) * 8 / 1e6
        print(f"\npeak network throughput: {peak_mbps:.0f} Mbps "
              f"(link effective capacity ~120 Mbps per direction)")


if __name__ == "__main__":
    main(fast="--fast" in sys.argv)
