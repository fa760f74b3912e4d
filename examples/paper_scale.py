#!/usr/bin/env python
"""Paper-scale pass 2: 100 application nodes mining the 1 M-transaction
T10.I4 workload with the remote pager at a 90 % memory-usage limit.

Prints the two host walls ROADMAP item 2 targets — workload prepare and
the simulated run — plus events/s, pagefaults and the result hash.  Too
long for ``benchmarks/perf`` (about 10 s prepare + 1.5 min run), so it
lives here as a plain script.

Run:  python examples/paper_scale.py          (add --fast for a tiny run)
"""

import sys
import time

import numpy as np

from repro import HPAConfig, HPARun, apriori
from repro.harness.hotpath import result_hash
from repro.harness.scales import PreparedWorkload, prepare_workload
from repro.mining.candidates import generate_candidates
from repro.mining.hash_table import LINE_HEADER_BYTES
from repro.mining.itemsets import ITEMSET_BYTES
from repro.mining.partition import HashPartitioner

LIMIT_FRACTION = 0.9  # inside the paper's 78-97 % residency regime (§5.1)


def busiest_resident_bytes(prep: PreparedWorkload) -> int:
    """Resident pass-2 footprint of the busiest node.

    Hash lines are created lazily, so a node pays a line header only for
    lines that hold a candidate.  At paper scale (102 400 lines for ~90 K
    candidates) ``prep.busiest_node_bytes``, which charges every line,
    overshoots so far that a 90 % limit would never page.
    """
    scale = prep.scale
    l1 = sorted(apriori(prep.db, minsup=scale.minsup, max_k=1).large_of_size(1))
    part = HashPartitioner(scale.total_lines, scale.n_app_nodes)
    held = np.unique(part.lines_of(np.array(generate_candidates(l1, 2))))
    # A line lives on one node, so the lines a node holds are the held
    # lines it owns.
    lines_held = np.bincount(held % scale.n_app_nodes, minlength=scale.n_app_nodes)
    candidates = np.array(prep.per_node_candidates)
    return int((candidates * ITEMSET_BYTES + lines_held * LINE_HEADER_BYTES).max())


def main(fast: bool = False) -> None:
    t0 = time.perf_counter()
    prep = prepare_workload("tiny" if fast else "paper")
    prepare_wall = time.perf_counter() - t0
    scale = prep.scale
    print(f"prepared {scale.workload}: {len(prep.db)} transactions, "
          f"{prep.n_candidates_2} candidate 2-itemsets in {prepare_wall:.1f}s")

    limit = max(1, int(busiest_resident_bytes(prep) * LIMIT_FRACTION))
    run = HPARun(prep.db, HPAConfig(
        minsup=scale.minsup,
        n_app_nodes=scale.n_app_nodes,
        n_memory_nodes=scale.max_memory_nodes,
        total_lines=scale.total_lines,
        memory_limit_bytes=limit,
        pager="remote",
        max_k=2,
        seed=scale.seed,
    ))
    t0 = time.perf_counter()
    res = run.run()
    run_wall = time.perf_counter() - t0
    events = run.env.events_processed
    print(f"pass 2 on {scale.n_app_nodes}+{scale.max_memory_nodes} nodes, "
          f"limit {limit} B: {run_wall:.1f}s wall for {events} events "
          f"({events / run_wall:,.0f} events/s), "
          f"{res.total_time_s:.2f}s simulated")
    print(f"pagefaults: {sum(res.pass_result(2).faults_per_node)}")
    print(f"result hash: {result_hash(res)}")


if __name__ == "__main__":
    main(fast="--fast" in sys.argv)
