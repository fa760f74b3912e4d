"""Tests for the VLDB'94 hash tree, including equivalence with flat
dictionary counting under randomised inputs."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import TransactionDatabase, generate
from repro.errors import MiningError
from repro.mining import apriori, generate_candidates
from repro.mining.apriori import _count_candidates
from tests.mining.reference_hash_tree import HashTree, count_with_hash_tree


def test_insert_and_len():
    tree = HashTree(k=2)
    tree.insert((1, 2))
    tree.insert((1, 3))
    assert len(tree) == 2
    assert tree.counts == {(1, 2): 0, (1, 3): 0}


def test_wrong_size_rejected():
    tree = HashTree(k=2)
    with pytest.raises(MiningError):
        tree.insert((1, 2, 3))


def test_duplicate_rejected():
    tree = HashTree(k=2)
    tree.insert((1, 2))
    with pytest.raises(MiningError):
        tree.insert((1, 2))


def test_parameter_validation():
    with pytest.raises(MiningError):
        HashTree(k=0)
    with pytest.raises(MiningError):
        HashTree(k=2, fanout=1)
    with pytest.raises(MiningError):
        HashTree(k=2, leaf_capacity=0)


def test_count_simple_transaction():
    tree = HashTree(k=2)
    for cand in [(1, 2), (2, 3), (4, 5)]:
        tree.insert(cand)
    hits = tree.count_transaction([1, 2, 3])
    assert hits == 2
    assert tree.counts == {(1, 2): 1, (2, 3): 1, (4, 5): 0}


def test_short_transaction_no_hits():
    tree = HashTree(k=3)
    tree.insert((1, 2, 3))
    assert tree.count_transaction([1, 2]) == 0


def test_splits_on_overflow():
    tree = HashTree(k=2, fanout=4, leaf_capacity=2)
    for a in range(6):
        tree.insert((a, a + 10))
    assert tree.n_interior >= 1
    # Counting still exact after splits.
    tree.count_transaction(list(range(20)))
    assert all(c == 1 for c in tree.counts.values())


def test_each_candidate_counted_once_per_transaction():
    # Colliding hash slots (many items with the same modulo) must not
    # double-count.
    tree = HashTree(k=2, fanout=2, leaf_capacity=1)
    for cand in [(0, 2), (0, 4), (2, 4), (1, 3)]:
        tree.insert(cand)
    tree.count_transaction([0, 1, 2, 3, 4])
    assert all(c == 1 for c in tree.counts.values())


def test_matches_dict_counting_on_workload():
    db = generate("T8.I3.D400", n_items=60, seed=6)
    ref = apriori(db, minsup=0.03)
    l1 = sorted(ref.large_of_size(1))
    for k in (2, 3):
        cands = generate_candidates(
            sorted(ref.large_of_size(k - 1)) if k > 2 else l1, k
        )
        if not cands:
            continue
        via_dict = _count_candidates(db, cands, k)
        via_tree = count_with_hash_tree(db, cands, k)
        assert via_tree == via_dict


def test_apriori_method_hashtree_identical():
    """Level-wise mining with hash-tree counting (no longer an
    ``apriori`` method — the loop is spelled out here) finds what
    ``apriori`` finds, pass by pass."""
    db = generate("T8.I3.D400", n_items=60, seed=6)
    a = apriori(db, minsup=0.03)
    large = a.large_of_size(1)
    rows = [a.table2_rows()[0]]
    k = 2
    while large:
        cands = generate_candidates(sorted(large), k)
        counts = count_with_hash_tree(db, cands, k)
        large = {i for i, c in counts.items() if c >= a.minsup_count}
        assert large == set(a.large_of_size(k))
        rows.append((k, len(cands), len(large)))
        k += 1
    assert rows == a.table2_rows()


def test_apriori_unknown_method_rejected():
    """``apriori`` has one counting path and no ``method`` to pick
    another — not the kernels' either."""
    db = generate("T8.I3.D400", n_items=60, seed=6)
    for method in ("btree", "kernel"):
        with pytest.raises(TypeError):
            apriori(db, minsup=0.03, method=method)


@settings(max_examples=30, deadline=None)
@given(
    txns=st.lists(
        st.lists(st.integers(0, 11), min_size=1, max_size=7),
        min_size=1,
        max_size=20,
    ),
    fanout=st.integers(2, 6),
    leaf_capacity=st.integers(1, 4),
)
def test_property_tree_equals_brute_force(txns, fanout, leaf_capacity):
    db = TransactionDatabase.from_lists(txns, n_items=12)
    items = sorted({i for t in txns for i in t})
    candidates = list(combinations(items, 2))
    if not candidates:
        return
    tree = HashTree(2, fanout=fanout, leaf_capacity=leaf_capacity)
    for cand in candidates:
        tree.insert(cand)
    for txn in db:
        tree.count_transaction(txn.tolist())
    tree_counts = tree.counts
    brute = {c: 0 for c in candidates}
    for t in txns:
        tset = set(t)
        for c in candidates:
            if set(c) <= tset:
                brute[c] += 1
    assert tree_counts == brute
