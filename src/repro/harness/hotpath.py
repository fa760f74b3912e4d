"""The result-equivalence digest shared by the benchmark and the tests.

:func:`result_hash` covers everything a host-side optimisation must not
change — mined itemsets, support counts, per-pass simulated times and
message counts — so two runs that differ only in host wall-clock hash
identically.  ``benchmarks/perf`` checks it across reps and between
lean, telemetry-on and traced passes; the equivalence tests pin it.
"""

from __future__ import annotations

import hashlib
import json

from repro.mining.hpa import HPAResult

__all__ = ["result_hash"]


def result_hash(res: HPAResult) -> str:
    """Digest of every kernel-invariant quantity of a run.

    Covers the mined itemsets with exact support counts plus, per pass,
    the simulated phase times and message counts.  Two runs differing
    only in host wall-clock hash identically; any drift in results or
    simulated behaviour changes the digest.
    """
    payload = {
        "large": sorted(
            (list(itemset), count) for itemset, count in res.large_itemsets.items()
        ),
        "passes": [
            [
                p.k,
                p.n_candidates,
                p.n_large,
                p.duration_s,
                p.candgen_time_s,
                p.counting_time_s,
                p.determine_time_s,
                p.count_messages,
                p.faults_per_node,
                p.swap_outs_per_node,
                p.update_msgs_per_node,
                p.n_duplicated,
            ]
            for p in res.passes
        ],
        "total_time_s": res.total_time_s,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
