"""Kernel on vs off must be bit-identical in everything simulated.

The vectorized kernels are host-side only: mined itemsets, per-pass
simulated times, message counts, fault/swap statistics, and ELD
duplication decisions must not move by a single bit when switching
``kernel="vector"`` to ``kernel="naive"``.  These tests pin that for
HPA (every pager, plus ELD) and NPA, on a workload that reaches pass 5
so the k >= 3 prefix-index path is exercised too.
"""

import pytest

from repro.datagen import generate
from repro.mining.hpa import HPAConfig, HPARun
from repro.mining.npa import NPAConfig, NPARun

DB = generate("T8.I3.D600", n_items=100, seed=7)
# Busiest-node pass-2 footprint, for sizing paging limits (as test_hpa).
PER_NODE_BYTES = (3828 // 4) * 24 + (256 // 4) * 16
LIMIT = int(PER_NODE_BYTES * 0.45)

#: Every simulated per-pass quantity the kernels must not change.  The
#: *_wall_s fields are deliberately absent — host time is the only thing
#: allowed to differ.
PASS_FIELDS = (
    "k",
    "n_candidates",
    "n_large",
    "duration_s",
    "candgen_time_s",
    "counting_time_s",
    "determine_time_s",
    "count_messages",
    "faults_per_node",
    "swap_outs_per_node",
    "update_msgs_per_node",
    "n_duplicated",
    "per_node_candidates",
)


def _sim_view(run):
    """Everything simulated about a finished run, plus every node's
    swap-manager counters: the bulk folds must advance them exactly as
    the naive per-occurrence walk does, not just mine the same result."""
    res = run.result
    return {
        "large": res.large_itemsets,
        "total_time_s": res.total_time_s,
        "passes": [
            {f: getattr(p, f) for f in PASS_FIELDS} for p in res.passes
        ],
        "swap_stats": {
            a: (mgr.stats.counts, mgr.stats.fast_counts, mgr.stats.inserts)
            for a, mgr in run.managers.items()
        },
    }


def _hpa(kernel, **kw):
    base = dict(minsup=0.02, n_app_nodes=4, total_lines=256, seed=1, kernel=kernel)
    base.update(kw)
    run = HPARun(DB, HPAConfig(**base))
    run.run()
    return run


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"pager": "disk", "memory_limit_bytes": LIMIT},
        {"pager": "remote", "n_memory_nodes": 3, "memory_limit_bytes": LIMIT},
        {
            "pager": "remote-update",
            "n_memory_nodes": 3,
            "memory_limit_bytes": LIMIT,
        },
        {"eld_fraction": 0.1},
        {
            "eld_fraction": 0.1,
            "pager": "remote-update",
            "n_memory_nodes": 3,
            "memory_limit_bytes": LIMIT,
        },
    ],
    ids=["none", "disk", "remote", "remote-update", "eld", "eld-remote-update"],
)
def test_hpa_vector_naive_identical(overrides):
    naive = _hpa("naive", **overrides)
    vector = _hpa("vector", **overrides)
    assert _sim_view(vector) == _sim_view(naive)


def test_hpa_reaches_prefix_index_passes():
    """Guard the workload: pass 4+ must exist or the k >= 3 prefix-index
    path silently stops being covered above."""
    res = _hpa("vector").result
    assert max(p.k for p in res.passes) >= 4


@pytest.mark.parametrize(
    "overrides",
    [{}, {"pager": "disk", "memory_limit_bytes": int(3828 * 24 * 0.6), "max_k": 2}],
    ids=["none", "disk"],
)
def test_npa_vector_naive_identical(overrides):
    def run(kernel):
        base = dict(
            minsup=0.02, n_app_nodes=4, total_lines=256, seed=1, kernel=kernel
        )
        base.update(overrides)
        npa = NPARun(DB, NPAConfig(**base))
        npa.run()
        return npa

    assert _sim_view(run("vector")) == _sim_view(run("naive"))


def test_kernel_config_validated():
    from repro.errors import MiningError

    with pytest.raises(MiningError):
        HPAConfig(minsup=0.02, n_app_nodes=2, total_lines=64, kernel="simd")
    with pytest.raises(MiningError):
        NPAConfig(minsup=0.02, n_app_nodes=2, total_lines=64, kernel="simd")
