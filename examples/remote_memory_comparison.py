#!/usr/bin/env python
"""The paper's headline experiment, end to end: mine under a memory-usage
limit with the three swapping mechanisms and compare (Figure 4's story).

A memory limit equal to the paper's "12 MB" point (78% of the busiest
node's candidate footprint) forces hash lines out of memory during
pass 2.  Where they go decides everything:

- local SCSI disk       -> ~13 ms per pagefault
- remote node's memory  -> ~2.3 ms per pagefault (simple swapping)
- remote + update ops   -> no pagefaults at all (the paper's winner)

The four configurations are the named scenarios of the runtime
catalogue (``repro-bench list``); this example just sweeps
the catalogue entries over the paper's memory-limit knob.

Run:  python examples/remote_memory_comparison.py   (--fast: tiny run)

Pass ``--store DIR`` to persist every run in the same content-addressed
result store the CLI and benchmarks use; a second invocation (or a
``repro-bench run EXPERIMENT --store DIR`` cell with the same scenario)
replays from disk instead of re-simulating.
"""

import sys
from contextlib import nullcontext
from dataclasses import replace

from repro.harness.scales import prepare_workload
from repro.runtime import get_scenario, paper_limited, run_scenario

PAPER_MB = 12.0  # the paper's tightest studied limit (Figures 3-5)


def main(fast: bool = False) -> None:
    scale = "tiny" if fast else "small"
    prep = prepare_workload(scale)
    limit = prep.limit_bytes(PAPER_MB)
    print(f"{prep.scale.workload}: {prep.n_candidates_2} candidate "
          f"2-itemsets; per-node limit {limit // 1024} KB "
          f"(the paper's {PAPER_MB:.0f} MB point)\n")

    baseline = run_scenario(replace(get_scenario("baseline"), scale=scale))
    print(f"{'no memory limit':24s} pass2 = "
          f"{baseline.pass_result(2).duration_s:8.2f} s (virtual)")

    for label, name in [
        ("swap to local disk", "disk-swap"),
        ("simple remote swapping", "remote-swap"),
        ("remote update ops", "remote-update"),
    ]:
        scenario = replace(
            paper_limited(get_scenario(name), PAPER_MB), scale=scale
        )
        res = run_scenario(scenario)
        p2 = res.pass_result(2)
        assert res.large_itemsets == baseline.large_itemsets  # always exact
        extra = ""
        if p2.max_faults:
            pf = (p2.duration_s - baseline.pass_result(2).duration_s) / p2.max_faults
            extra = f" ({p2.max_faults} faults @ {pf * 1e3:.2f} ms)"
        elif max(p2.update_msgs_per_node):
            extra = f" ({max(p2.update_msgs_per_node)} update msgs, 0 faults)"
        print(f"{label:24s} pass2 = {p2.duration_s:8.2f} s{extra}")

    print("\nAll four configurations mined the *same* itemsets — the "
          "mechanisms differ only in where overflowing hash lines live.")


if __name__ == "__main__":
    if "--store" in sys.argv:
        from repro.runtime import result_store_session

        store_dir = sys.argv[sys.argv.index("--store") + 1]
        session = result_store_session(store_dir)
    else:
        session = nullcontext()
    with session:
        main(fast="--fast" in sys.argv)
