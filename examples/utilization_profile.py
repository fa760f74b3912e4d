#!/usr/bin/env python
"""Per-phase cluster utilisation during an HPA run with remote memory.

The paper's companion work analyses CPU usage and network behaviour of
the cluster during HPA execution; this example shows the reproduction's
equivalent: enable telemetry on a run, then print its phase boundaries,
a pagefault-rate timeline and a network-throughput timeline (both
bucketed from the event log), and each node's CPU share of the run.

Run:  python examples/utilization_profile.py (add --fast for a tiny run)
"""

import collections
import sys

from repro import HPAConfig, apriori, generate
from repro.mining.hpa import HPARun


#: Width of one timeline bucket, in simulated seconds.
BUCKET_S = 0.25


def bar(fraction: float, width: int = 30) -> str:
    """Tiny ASCII bar."""
    n = int(round(fraction * width))
    return "#" * n + "." * (width - n)


def meter_cpu(cluster) -> "collections.Counter[int]":
    """Wrap every node's ``compute`` to add up the CPU seconds it held;
    the returned counter fills in as the run goes."""
    busy: "collections.Counter[int]" = collections.Counter()

    def metered(node):
        compute = node.compute

        def compute_and_count(seconds):
            yield from compute(seconds)
            busy[node.node_id] += seconds / node.spec.cpu.speed_factor

        return compute_and_count

    for node in cluster:
        node.compute = metered(node)
    return busy


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
    tel = run.enable_telemetry()
    busy = meter_cpu(run.cluster)
    res = run.run()

    kinds = tel.counts_by_kind()
    print(f"run finished at t={res.total_time_s:.2f}s virtual; "
          f"{kinds.get('fault', 0)} faults, "
          f"{kinds.get('swap-out', 0)} swap-outs\n")

    print("phase boundaries:")
    for e in tel.events_of_kind("phase"):
        print(f"  t={e.time:7.3f}s  {e.detail}")

    print(f"\npagefault rate (faults per {BUCKET_S} s bucket):")
    series = tel.rate_series("fault", bucket_s=BUCKET_S)
    peak = max((c for _, c in series), default=1)
    for t, count in series:
        print(f"  t={t:6.2f}s  {bar(count / peak)}  {count}")

    # Network throughput: payload bytes of the delivered messages,
    # bucketed by delivery time.
    sent = collections.Counter()
    for e in tel.events_of_kind("net-msg"):
        sent[int(e.time // BUCKET_S)] += e.fields["size_bytes"]
    if sent:
        mbps = {b: n * 8 / BUCKET_S / 1e6 for b, n in sent.items()}
        peak_mbps = max(mbps.values())
        print(f"\nnetwork throughput (Mbps per {BUCKET_S} s bucket):")
        for b in range(min(mbps), max(mbps) + 1):
            rate = mbps.get(b, 0.0)
            print(f"  t={b * BUCKET_S:6.2f}s  {bar(rate / peak_mbps)}  {rate:5.1f}")
        print(f"peak network throughput: {peak_mbps:.0f} Mbps "
              f"(link effective capacity ~120 Mbps per direction)")

    print("\nCPU share of the run per node:")
    for node in run.cluster:
        share = busy[node.node_id] / res.total_time_s
        role = "app" if node.node_id in run.app_ids else "mem"
        print(f"  node {node.node_id:2d} ({role})  {bar(share)}  {share:4.0%}")


if __name__ == "__main__":
    main(fast="--fast" in sys.argv)
