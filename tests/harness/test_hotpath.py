"""Tests for the result-equivalence digest."""

from repro.harness.hotpath import result_hash
from repro.harness.scales import prepare_workload
from repro.mining.hpa import HPAConfig, run_hpa


def test_result_hash_sensitive_to_results():
    prep = prepare_workload("tiny")
    s = prep.scale
    base = dict(
        minsup=s.minsup,
        n_app_nodes=s.n_app_nodes,
        total_lines=s.total_lines,
        max_k=2,
        seed=s.seed,
    )
    res = run_hpa(prep.db, HPAConfig(**base))
    assert result_hash(res) == result_hash(res)
    other = run_hpa(prep.db, HPAConfig(**{**base, "minsup": s.minsup * 2}))
    assert result_hash(res) != result_hash(other)


def test_many_node_remote_pager_hash_is_pinned():
    """Drift gate for a many-node remote-pager pass 2 (the 12-config
    goldens all run 4 application nodes): 16 app + 2 memory nodes over
    the ``small`` database, limit = 90 % of the busiest node's resident
    footprint (30 840 B), ~2 000 pagefaults.  Any change to simulated
    behaviour at this node count moves the digest."""
    prep = prepare_workload("small")
    s = prep.scale
    res = run_hpa(prep.db, HPAConfig(
        minsup=s.minsup,
        n_app_nodes=16,
        n_memory_nodes=2,
        total_lines=s.total_lines,
        memory_limit_bytes=27_756,
        pager="remote",
        max_k=2,
        seed=s.seed,
    ))
    assert sum(res.pass_result(2).faults_per_node) == 1979
    assert result_hash(res) == (
        "37da47fc4a7fb9f0445da9d00135a794122e9b9f9a517353bddcd511007e06d1"
    )


def test_pagerless_full_depth_hash_is_pinned():
    """Every k of the pager-less path (order-free bulk counting, array
    candidate placement): 8 nodes over ``small`` to the last pass."""
    prep = prepare_workload("small")
    s = prep.scale
    res = run_hpa(prep.db, HPAConfig(
        minsup=s.minsup,
        n_app_nodes=8,
        total_lines=s.total_lines,
        max_k=0,
        seed=s.seed,
    ))
    assert [p.n_candidates for p in res.passes] == [250, 17391, 3428, 116, 8, 0]
    assert result_hash(res) == (
        "1053f67bad38cffbb1065437314a783fb84a2c1b142330d0d6fc30ebe6aedf8d"
    )


def test_many_node_remote_pager_k3_hash_is_pinned():
    """The many-node remote-pager run above, one pass deeper: pass 3 runs
    the k >= 3 sender and receiver with a pager attached."""
    prep = prepare_workload("small")
    s = prep.scale
    res = run_hpa(prep.db, HPAConfig(
        minsup=s.minsup,
        n_app_nodes=16,
        n_memory_nodes=2,
        total_lines=s.total_lines,
        memory_limit_bytes=27_756,
        pager="remote",
        max_k=3,
        seed=s.seed,
    ))
    assert [p.n_candidates for p in res.passes] == [250, 17391, 3428]
    assert result_hash(res) == (
        "ecff0d5b2ab79b5d81ef06aa0a708c30a4dcb5ab321bc8c98738dd20f9a24e4b"
    )
