"""Integration tests for Hash-Partitioned Apriori on the simulated cluster.

The central invariant: whatever the pager, memory limit, or cluster
layout, HPA's mined itemsets and support counts equal sequential
Apriori's exactly — paging moves data, never changes results.
"""

import pytest

from repro.datagen import generate
from repro.errors import MiningError
from repro.mining import apriori
from repro.mining.hpa import HPAConfig, HPARun, run_hpa

DB = generate("T8.I3.D600", n_items=100, seed=7)
REF = apriori(DB, minsup=0.02)
# Footprint of the busiest node's pass-2 candidates, for limit sizing.
C2 = REF.passes[1].n_candidates
PER_NODE_BYTES = (C2 // 4) * 24 + (256 // 4) * 16


def cfg(**kw):
    base = dict(minsup=0.02, n_app_nodes=4, total_lines=256, seed=1)
    base.update(kw)
    return HPAConfig(**base)


def test_matches_sequential_no_limit():
    res = run_hpa(DB, cfg())
    assert res.large_itemsets == REF.large_itemsets


def test_pass_profile_matches_sequential():
    res = run_hpa(DB, cfg())
    assert res.table2_rows() == REF.table2_rows()


@pytest.mark.parametrize(
    "pager,n_mem",
    [("disk", 0), ("remote", 3), ("remote-update", 3)],
)
@pytest.mark.parametrize("frac", [0.45, 0.8])
def test_matches_sequential_under_paging(pager, n_mem, frac):
    res = run_hpa(
        DB,
        cfg(
            pager=pager,
            n_memory_nodes=n_mem,
            memory_limit_bytes=int(PER_NODE_BYTES * frac),
        ),
    )
    assert res.large_itemsets == REF.large_itemsets


def test_different_node_counts_same_result():
    for n in (1, 2, 5):
        res = run_hpa(DB, cfg(n_app_nodes=n, total_lines=260))
        assert res.large_itemsets == REF.large_itemsets


def test_per_node_candidates_sum_to_total():
    res = run_hpa(DB, cfg())
    p2 = res.pass_result(2)
    assert sum(p2.per_node_candidates) == p2.n_candidates
    # Hash partitioning spreads candidates roughly evenly, with skew.
    assert max(p2.per_node_candidates) < 2 * min(p2.per_node_candidates)


def test_limit_causes_faults_and_swaps():
    res = run_hpa(
        DB,
        cfg(pager="disk", memory_limit_bytes=int(PER_NODE_BYTES * 0.5)),
    )
    p2 = res.pass_result(2)
    assert p2.max_faults > 0
    assert max(p2.swap_outs_per_node) > 0


def test_no_limit_run_never_faults():
    res = run_hpa(DB, cfg(pager="disk", memory_limit_bytes=None))
    for p in res.passes:
        assert p.max_faults == 0


def test_tighter_limit_longer_pass2():
    times = []
    for frac in (0.9, 0.6, 0.4):
        res = run_hpa(
            DB,
            cfg(
                pager="remote",
                n_memory_nodes=3,
                memory_limit_bytes=int(PER_NODE_BYTES * frac),
            ),
        )
        times.append(res.pass_result(2).duration_s)
    assert times[0] < times[1] < times[2]


def test_method_ordering_matches_figure4():
    """disk swapping >> simple remote swapping >> remote update >= no limit."""
    limit = int(PER_NODE_BYTES * 0.5)
    t_disk = run_hpa(DB, cfg(pager="disk", memory_limit_bytes=limit)).pass_result(2).duration_s
    t_remote = run_hpa(
        DB, cfg(pager="remote", n_memory_nodes=3, memory_limit_bytes=limit)
    ).pass_result(2).duration_s
    t_update = run_hpa(
        DB, cfg(pager="remote-update", n_memory_nodes=3, memory_limit_bytes=limit)
    ).pass_result(2).duration_s
    t_free = run_hpa(DB, cfg()).pass_result(2).duration_s
    assert t_disk > 3 * t_remote
    assert t_remote > 3 * t_update
    assert t_update >= t_free * 0.9


def test_memory_node_bottleneck_matches_figure3():
    """Few memory-available nodes serialise pagefault service."""
    limit = int(PER_NODE_BYTES * 0.5)

    def time_with(n_mem):
        res = run_hpa(
            DB, cfg(pager="remote", n_memory_nodes=n_mem, memory_limit_bytes=limit)
        )
        return res.pass_result(2).duration_s

    assert time_with(1) > 1.3 * time_with(4)


def test_remote_fault_time_near_paper_value():
    """Table 4: ~2.2-2.4 ms per fault with plentiful memory nodes."""
    res = run_hpa(
        DB,
        cfg(
            pager="remote",
            n_memory_nodes=8,  # paper's Table 4 uses 16 for 8 app nodes
            memory_limit_bytes=int(PER_NODE_BYTES * 0.6),
        ),
    )
    p2 = res.pass_result(2)
    busiest = max(range(4), key=lambda a: p2.faults_per_node[a])
    mean_pf = p2.fault_time_per_node[busiest] / p2.faults_per_node[busiest]
    assert 1.8e-3 <= mean_pf <= 3.5e-3


def test_remote_update_eliminates_faults():
    res = run_hpa(
        DB,
        cfg(
            pager="remote-update",
            n_memory_nodes=3,
            memory_limit_bytes=int(PER_NODE_BYTES * 0.5),
        ),
    )
    p2 = res.pass_result(2)
    assert p2.max_faults == 0
    assert max(p2.update_msgs_per_node) > 0


def test_shortage_mid_run_migrates_and_preserves_result():
    run = HPARun(
        DB,
        cfg(
            pager="remote-update",
            n_memory_nodes=3,
            memory_limit_bytes=int(PER_NODE_BYTES * 0.5),
        ),
    )
    # Signal a shortage early enough to land inside pass 2's counting.
    run.shortage_schedule.append((0.25, run.mem_ids[0]))
    res = run.run()
    assert res.large_itemsets == REF.large_itemsets
    migrations = sum(run.pagers[a].stats.migrations for a in run.app_ids)
    assert migrations >= 1


def test_config_validation():
    with pytest.raises(MiningError):
        HPAConfig(minsup=0.0)
    with pytest.raises(MiningError):
        HPAConfig(n_app_nodes=0)
    with pytest.raises(MiningError):
        HPAConfig(pager="weird")
    with pytest.raises(MiningError):
        HPAConfig(pager="remote", n_memory_nodes=0)
    with pytest.raises(MiningError):
        HPAConfig(pager="none", memory_limit_bytes=100)


def test_fewer_transactions_than_nodes_rejected():
    tiny = generate("T5.I2.D10", n_items=30, seed=1)
    with pytest.raises(MiningError):
        HPARun(tiny, cfg(n_app_nodes=16))


def test_phase_times_sum_to_pass_duration():
    res = run_hpa(DB, cfg())
    p2 = res.pass_result(2)
    total = p2.candgen_time_s + p2.counting_time_s + p2.determine_time_s
    assert total == pytest.approx(p2.duration_s, rel=0.05)


def test_max_k_limits_passes():
    res = run_hpa(DB, cfg(max_k=2))
    assert max(p.k for p in res.passes) == 2


def test_pass_result_lookup():
    res = run_hpa(DB, cfg())
    assert res.pass_result(1).k == 1
    with pytest.raises(KeyError):
        res.pass_result(99)


def test_deterministic_given_seed():
    r1 = run_hpa(DB, cfg(pager="disk", memory_limit_bytes=int(PER_NODE_BYTES * 0.6)))
    r2 = run_hpa(DB, cfg(pager="disk", memory_limit_bytes=int(PER_NODE_BYTES * 0.6)))
    assert r1.total_time_s == r2.total_time_s
    assert r1.pass_result(2).faults_per_node == r2.pass_result(2).faults_per_node


def test_summary_renders():
    res = run_hpa(DB, cfg(pager="disk", memory_limit_bytes=int(PER_NODE_BYTES * 0.6)))
    s = res.summary()
    assert "large itemsets" in s
    assert "pass 2" in s
    assert "faults" in s


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=8, deadline=None)
@given(
    txns=st.lists(
        st.lists(st.integers(0, 14), min_size=1, max_size=6),
        min_size=8,
        max_size=40,
    ),
    minsup=st.floats(min_value=0.1, max_value=0.6),
    n_nodes=st.integers(1, 4),
)
def test_property_hpa_equals_sequential(txns, minsup, n_nodes):
    """Randomised cross-validation: HPA over any node count equals the
    sequential miner exactly."""
    from repro.datagen import TransactionDatabase

    db = TransactionDatabase.from_lists(txns, n_items=15)
    ref = apriori(db, minsup=minsup)
    res = run_hpa(
        db,
        HPAConfig(minsup=minsup, n_app_nodes=n_nodes, total_lines=64, seed=0),
    )
    assert res.large_itemsets == ref.large_itemsets


@pytest.mark.parametrize("n_app", [4, 8, 16])
def test_pass1_mailbox_peaks_at_n_minus_1(n_app):
    """Mailboxes are unbounded because pass 1 needs n - 1 slots.

    Each node posts its count vector to every peer before its first
    ``recv``, so the deepest ``pass1`` mailbox holds all n - 1 vectors.
    A mailbox bounded below that deadlocks the exchange, which is why
    the model has no bound.  If this peak ever changes, pass 1 was
    restructured and the decision to model unbounded buffers should be
    revisited."""
    run = HPARun(DB, cfg(n_app_nodes=n_app, total_lines=512, max_k=2))
    run.run()
    stats = run.cluster.transport.stats()
    pass1 = [s["peak_depth"] for key, s in stats.items() if key.endswith(":pass1")]
    assert len(pass1) == n_app
    assert max(pass1) == n_app - 1
    assert all(s["blocked_puts"] == 0 for s in stats.values())
