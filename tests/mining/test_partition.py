"""Tests for hash partitioning and skew statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MiningError
from repro.mining import HashPartitioner, itemset_hash, skew_statistics
from repro.mining.itemsets import itemset_hashes


def test_line_determines_node():
    part = HashPartitioner(total_lines=800, n_nodes=8)
    for a in range(20):
        for b in range(a + 1, 20):
            itemset = (a, b)
            line = part.line_of(itemset)
            assert part.node_of(itemset) == part.node_of_line(line)


def test_lines_of_node_partition_all_lines():
    part = HashPartitioner(total_lines=100, n_nodes=8)
    seen = set()
    for node in range(8):
        lines = set(part.lines_of_node(node))
        assert not (lines & seen)
        seen |= lines
        for line_id in lines:
            assert part.node_of_line(line_id) == node
    assert seen == set(range(100))


def test_partition_counts_sum():
    part = HashPartitioner(total_lines=800, n_nodes=8)
    cands = [(a, b) for a in range(50) for b in range(a + 1, 50)]
    counts = part.partition_counts(cands)
    assert counts.sum() == len(cands)
    assert len(counts) == 8


def test_partition_counts_roughly_balanced_with_skew():
    # The paper's Table 3: per-node counts near equal but not identical.
    part = HashPartitioner(total_lines=8000, n_nodes=8)
    cands = [(a, b) for a in range(120) for b in range(a + 1, 120)]
    counts = part.partition_counts(cands)
    stats = skew_statistics(counts)
    assert stats.max_over_mean < 1.25
    assert stats.maximum != stats.minimum  # skew exists


def test_validation():
    with pytest.raises(MiningError):
        HashPartitioner(0, 8)
    with pytest.raises(MiningError):
        HashPartitioner(100, 0)
    with pytest.raises(MiningError):
        HashPartitioner(4, 8)
    part = HashPartitioner(10, 2)
    with pytest.raises(MiningError):
        part.node_of_line(10)
    with pytest.raises(MiningError):
        part.lines_of_node(2)


def test_skew_statistics_values():
    stats = skew_statistics([10, 20, 30])
    assert stats.mean == pytest.approx(20)
    assert stats.maximum == 30
    assert stats.minimum == 10
    assert stats.max_over_mean == pytest.approx(1.5)
    assert stats.counts == (10, 20, 30)


def test_skew_statistics_empty_rejected():
    with pytest.raises(MiningError):
        skew_statistics([])


@settings(max_examples=30, deadline=None)
@given(
    total_lines=st.integers(min_value=8, max_value=5000),
    n_nodes=st.integers(min_value=1, max_value=8),
    items=st.lists(
        st.tuples(st.integers(0, 500), st.integers(501, 1000)), min_size=1, max_size=50
    ),
)
def test_property_routing_stable_and_in_range(total_lines, n_nodes, items):
    part = HashPartitioner(total_lines, n_nodes)
    for itemset in items:
        node = part.node_of(itemset)
        assert 0 <= node < n_nodes
        assert part.node_of(itemset) == node  # stable


@settings(max_examples=60, deadline=None)
@given(
    total_lines=st.integers(min_value=8, max_value=10**6),
    n_nodes=st.integers(min_value=1, max_value=8),
    k=st.integers(1, 4),
    data=st.data(),
)
def test_property_lines_of_is_line_of_per_row(total_lines, n_nodes, k, data):
    itemsets = data.draw(
        st.lists(st.tuples(*[st.integers(0, 2**31 - 1)] * k), max_size=30)
    )
    part = HashPartitioner(total_lines, n_nodes)
    rows = np.array(itemsets, dtype=np.int64).reshape(-1, k)
    assert itemset_hashes(rows).tolist() == [itemset_hash(i) for i in itemsets]
    assert part.lines_of(rows).tolist() == [part.line_of(i) for i in itemsets]
    counts = part.partition_counts(itemsets)
    want = [0] * n_nodes
    for itemset in itemsets:
        want[part.node_of(itemset)] += 1
    assert counts.tolist() == want
