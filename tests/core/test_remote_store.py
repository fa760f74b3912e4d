"""Tests for the guest-memory store on memory-available nodes."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import RemoteStore
from repro.errors import NoMemoryAvailable, SwapError
from repro.mining import CandidateHashTable, HashLine
from repro.sim import Environment


def make_store():
    env = Environment()
    cluster = Cluster(env, 1)
    return cluster[0], RemoteStore(cluster[0])


def line_with(line_id, n):
    return HashLine(line_id, n)


def table_of_line_1(n_inserted):
    """Four codes on hash line 1, the first ``n_inserted`` chained."""
    table = CandidateHashTable(np.ones(4, dtype=np.int64))
    table.inserted[:n_inserted] = True
    return table


def test_put_take_roundtrip():
    node, store = make_store()
    line = line_with(1, 2)
    store.put(owner=0, line=line)
    assert store.holds(0, 1)
    assert node.memory.used_bytes == line.nbytes
    got = store.take(0, 1)
    assert got is line
    assert node.memory.used_bytes == 0
    assert not store.holds(0, 1)


def test_same_line_id_different_owners():
    node, store = make_store()
    store.put(0, line_with(5, 1))
    store.put(1, line_with(5, 1))
    assert store.n_lines == 2
    assert store.holds(0, 5) and store.holds(1, 5) and not store.holds(2, 5)


def test_duplicate_put_rejected():
    node, store = make_store()
    store.put(0, line_with(1, 1))
    with pytest.raises(SwapError):
        store.put(0, line_with(1, 1))


def test_take_missing_rejected():
    node, store = make_store()
    with pytest.raises(SwapError):
        store.take(0, 1)


def test_put_respects_external_pressure():
    node, store = make_store()
    node.memory.set_external_pressure(node.memory.capacity_bytes)
    with pytest.raises(NoMemoryAvailable):
        store.put(0, line_with(1, 1))
    assert store.n_lines == 0


def test_peek_does_not_remove():
    node, store = make_store()
    line = line_with(1, 1)
    store.put(0, line)
    assert store.peek(0, 1) is line
    assert store.holds(0, 1)


def test_apply_updates_increment():
    node, store = make_store()
    table = table_of_line_1(2)
    store.put(0, line_with(1, 2))
    before = node.memory.used_bytes
    store.apply_updates(0, [(1, 0, 1), (1, 0, 1), (1, 1, 5)], table)
    assert table.counts.tolist() == [2, 5, 0, 0]
    assert store.peek(0, 1).n_itemsets == 2
    assert node.memory.used_bytes == before


def test_apply_updates_insert():
    node, store = make_store()
    table = table_of_line_1(1)
    store.put(0, line_with(1, 1))
    before = node.memory.used_bytes
    store.apply_updates(0, [(1, 2, 0)], table)
    assert table.inserted[2] and table.counts[2] == 0
    assert store.peek(0, 1).n_itemsets == 2
    assert node.memory.used_bytes == before + 24


def test_apply_updates_unknown_line_rejected():
    node, store = make_store()
    with pytest.raises(SwapError):
        store.apply_updates(0, [(9, 0, 1)], table_of_line_1(1))


def test_apply_increment_unknown_itemset_upserts():
    """Migrations can requeue in-flight records to a line's new holder,
    delivering an increment ahead of the insert it logically follows —
    application must be an order-independent upsert."""
    node, store = make_store()
    table = table_of_line_1(1)
    store.put(0, line_with(1, 1))
    before = node.memory.used_bytes
    store.apply_updates(0, [(1, 3, 3)], table)
    assert table.inserted[3] and table.counts[3] == 3
    assert store.peek(0, 1).n_itemsets == 2
    assert node.memory.used_bytes == before + 24
    # The late insert lands afterwards: count and allocation unchanged.
    store.apply_updates(0, [(1, 3, 0)], table)
    assert table.counts[3] == 3
    assert store.peek(0, 1).n_itemsets == 2
    assert node.memory.used_bytes == before + 24


def test_guest_bytes_and_clear():
    node, store = make_store()
    l1, l2 = line_with(1, 1), line_with(2, 2)
    store.put(0, l1)
    store.put(0, l2)
    assert node.memory.used_bytes == l1.nbytes + l2.nbytes
    store.clear()
    assert store.n_lines == 0
    assert node.memory.used_bytes == 0


def test_check_invariants_catches_a_line_grown_behind_the_ledger():
    """The lender-side conservation law: the host ledger holds exactly
    the guest lines' bytes through put, update growth and take, and a
    line that grew without paying for it fails loudly."""
    node, store = make_store()
    store.put(0, line_with(1, 3))
    store.put(1, line_with(1, 1))
    store.apply_updates(0, [(1, 3, 0)], table_of_line_1(3))
    store.take(1, 1)
    store.check_invariants()
    store.peek(0, 1).n_itemsets += 1
    with pytest.raises(SwapError, match="ledger 112 B != guest lines 136 B"):
        store.check_invariants()
