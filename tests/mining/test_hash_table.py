"""Tests for hash lines and the candidate table.

Three parts: the array-backed :class:`CandidateHashTable` on its own;
the dict-backed reference it replaced
(``tests/mining/reference_hash_table.py``), whose unit tests stay so the
model the next part trusts cannot rot; and one Hypothesis state walk
driving both through every move a hash line makes — insert, count,
evict, fault, peek, remote upserts (also ahead of their insert) and
migration — comparing sizes, counts, byte ledgers and errors after each
step.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import RemoteStore
from repro.errors import MiningError, SwapError
from repro.mining import ITEMSET_BYTES, LINE_HEADER_BYTES
from repro.mining import CandidateHashTable as ArrayTable
from repro.mining import HashLine as ArrayLine
from repro.sim import Environment
from tests.mining.reference_hash_table import CandidateHashTable, HashLine

# -- the array table ----------------------------------------------------------


def test_array_line_is_an_id_and_a_size():
    line = ArrayLine(7)
    assert (line.line_id, line.n_itemsets, line.nbytes) == (7, 0, LINE_HEADER_BYTES)
    line.n_itemsets += 2
    assert line.nbytes == LINE_HEADER_BYTES + 2 * ITEMSET_BYTES
    assert not hasattr(line, "counts") and not hasattr(line, "__dict__")


def test_array_table_insert_then_count_scalar_and_batch():
    table = ArrayTable(np.array([3, 3, 5, -1]))
    table.insert(np.array([0, 2]), np.array([3, 5]))
    table.insert(1, 3)
    assert table.inserted.tolist() == [True, True, True, False]
    table.count(np.array([0, 2, 0]), np.array([3, 5, 3]))
    table.count(1, 3)
    assert table.counts.tolist() == [2, 1, 1, 0]
    assert table.count_bulk(np.array([2, 2, 0])).tolist() == [0, 2]
    assert table.counts.tolist() == [3, 1, 3, 0]


def test_array_table_rejects_what_the_dict_table_rejected():
    table = ArrayTable(np.array([3, 3, 5]))
    table.insert(0, 3)
    for codes, lines in ((0, 3), (np.array([1, 0]), np.array([3, 3])),
                         (np.array([1, 1]), np.array([3, 3])), (2, 3)):
        with pytest.raises(MiningError):  # twice; twice in a batch; wrong line
            table.insert(codes, lines)
    assert table.inserted.tolist() == [True, False, False]
    for codes, lines in ((1, 3), (0, 5), (np.array([0, 1]), np.array([3, 3]))):
        with pytest.raises(MiningError, match="not a candidate on this line"):
            table.count(codes, lines)
    with pytest.raises(MiningError, match="code 2 on line 5"):
        table.count_bulk(np.array([0, 2]))
    assert table.counts.tolist() == [0, 0, 0]


def test_array_table_upsert_is_order_independent():
    table = ArrayTable(np.array([3, 3]))
    assert table.upsert(1, 2) is True  # the increment overtook its insert
    assert table.upsert(1, 0) is False
    assert table.upsert(1, 1) is False
    assert (table.inserted[1], table.counts[1]) == (True, 3)


# -- the dict-backed reference ------------------------------------------------


def test_line_add_and_increment():
    line = HashLine(7)
    line.add((1, 2))
    assert line.counts[(1, 2)] == 0
    assert line.increment((1, 2))
    assert line.counts[(1, 2)] == 1
    assert not line.increment((9, 9))


def test_line_duplicate_add_rejected():
    line = HashLine(0)
    line.add((1, 2))
    with pytest.raises(MiningError):
        line.add((1, 2))


def test_line_nbytes():
    line = HashLine(0)
    assert line.nbytes == LINE_HEADER_BYTES
    line.add((1, 2))
    line.add((1, 3))
    assert line.nbytes == LINE_HEADER_BYTES + 2 * ITEMSET_BYTES
    assert line.n_itemsets == 2


def test_line_merge_counts():
    line = HashLine(0)
    line.add((1, 2))
    line.add((3, 4))
    line.increment((1, 2))
    line.merge_counts({(1, 2): 5, (3, 4): 2})
    assert line.counts == {(1, 2): 6, (3, 4): 2}


def test_line_merge_unknown_rejected():
    line = HashLine(0)
    line.add((1, 2))
    with pytest.raises(MiningError):
        line.merge_counts({(9, 9): 1})


def test_table_line_creation_on_demand():
    table = CandidateHashTable()
    assert table.get(5) is None
    line = table.line(5)
    assert table.get(5) is line
    assert 5 in table
    assert len(table) == 1


def test_table_pop_and_put():
    table = CandidateHashTable()
    line = table.line(3)
    line.add((1, 2))
    popped = table.pop(3)
    assert popped is line
    assert 3 not in table
    table.put(popped)
    assert 3 in table


def test_table_pop_missing_rejected():
    with pytest.raises(MiningError):
        CandidateHashTable().pop(1)


def test_table_put_duplicate_rejected():
    table = CandidateHashTable()
    table.line(1)
    with pytest.raises(MiningError):
        table.put(HashLine(1))


def test_table_aggregates():
    table = CandidateHashTable()
    table.line(0).add((1, 2))
    table.line(1).add((1, 3))
    table.line(1).add((2, 3))
    assert table.n_itemsets == 3
    assert table.nbytes == 2 * LINE_HEADER_BYTES + 3 * ITEMSET_BYTES
    assert sorted(table.line_ids) == [0, 1]
    assert table.all_counts() == {(1, 2): 0, (1, 3): 0, (2, 3): 0}


def test_table_clear():
    table = CandidateHashTable()
    table.line(0).add((1, 2))
    table.clear()
    assert len(table) == 0
    assert table.n_itemsets == 0


# -- both, side by side -------------------------------------------------------

N_CODES, N_LINES, OWNER = 12, 4, 0
LINES = np.arange(N_CODES) % N_LINES


def _itemset(code):
    return (code, code + 100)


class _Side:
    """One node's lines — resident, or parked on one of two guest stores —
    in either representation.  The stores are real :class:`RemoteStore`s
    (they move any object with a ``line_id`` and an ``nbytes``); what
    differs between the sides is where a count lives."""

    def __init__(self):
        cluster = Cluster(Environment(), 2)
        self.stores = [RemoteStore(cluster[0]), RemoteStore(cluster[1])]

    def parked(self, store):
        return [store.peek(OWNER, i) for i in range(N_LINES) if store.holds(OWNER, i)]

    def holder(self, line_id):
        return next((s for s in self.stores if s.holds(OWNER, line_id)), None)

    def evict(self, line_id, to):
        self.stores[to].put(OWNER, self.pop(line_id))

    def fault(self, line_id):
        holder = self.holder(line_id) or self.stores[0]
        self.put(holder.take(OWNER, line_id))  # SwapError if nobody holds it

    def migrate(self, line_id, to):
        holder = self.holder(line_id) or self.stores[0]
        self.stores[to].put(OWNER, holder.take(OWNER, line_id))

    def view(self):
        """Everything the two representations must agree on."""
        return {
            "resident": self.sizes(self.resident()),
            "stores": [self.sizes(self.parked(s)) for s in self.stores],
            "ledgers": [s.node.memory.used_bytes for s in self.stores],
            "counts": self.counts(),
        }

    @staticmethod
    def sizes(lines):
        return sorted((ln.line_id, ln.n_itemsets, ln.nbytes) for ln in lines)


class _DictSide(_Side):
    def __init__(self):
        super().__init__()
        self.table = CandidateHashTable()

    def resident(self):
        return list(self.table)

    def pop(self, line_id):
        return self.table.pop(line_id)

    def put(self, line):
        self.table.put(line)

    def insert(self, code):
        self.table.line(int(LINES[code])).add(_itemset(code))

    def count(self, code):
        line = self.table.get(int(LINES[code]))
        if line is None or not line.increment(_itemset(code)):
            raise MiningError("not a candidate there")

    def upsert(self, code, delta):
        # RemoteStore.apply_updates as it was for dict lines.
        line_id = int(LINES[code])
        holder = self.holder(line_id)
        if holder is None:
            raise SwapError("update for a line stored nowhere")
        line = holder.peek(OWNER, line_id)
        if _itemset(code) in line.counts:
            line.counts[_itemset(code)] += delta
        else:
            holder.node.memory.allocate(ITEMSET_BYTES)
            line.counts[_itemset(code)] = delta

    def counts(self):
        lines = self.resident() + self.parked(self.stores[0]) + self.parked(self.stores[1])
        return {i[0]: c for line in lines for i, c in line.counts.items()}


class _ArraySide(_Side):
    def __init__(self):
        super().__init__()
        self.table = ArrayTable(LINES)
        self.lines = {}

    def resident(self):
        return list(self.lines.values())

    def pop(self, line_id):
        if line_id not in self.lines:
            raise MiningError(f"no hash line {line_id} on this node")
        return self.lines.pop(line_id)

    def put(self, line):
        self.lines[line.line_id] = line

    def insert(self, code):
        line_id = int(LINES[code])
        self.table.insert(code, line_id)
        self.lines.setdefault(line_id, ArrayLine(line_id)).n_itemsets += 1

    def count(self, code):
        line_id = int(LINES[code])
        if line_id not in self.lines:
            raise MiningError("not a candidate there")
        self.table.count(code, line_id)

    def upsert(self, code, delta):
        line_id = int(LINES[code])
        holder = self.holder(line_id) or self.stores[0]
        holder.apply_updates(OWNER, [(line_id, code, delta)], self.table)

    def counts(self):
        assert not self.table.counts[~self.table.inserted].any()
        return {
            int(c): int(self.table.counts[c]) for c in np.flatnonzero(self.table.inserted)
        }


def _apply(side, op, code, to):
    line_id = int(LINES[code])
    swapped = side.holder(line_id) is not None
    try:
        if op == "insert":
            side.upsert(code, 0) if swapped else side.insert(code)
        elif op == "count":
            side.upsert(code, 1) if swapped else side.count(code)
        elif op == "upsert":  # also for a line stored nowhere
            side.upsert(code, 2)
        elif op == "evict":
            side.evict(line_id, to)
        elif op == "fault":
            side.fault(line_id)
        elif op == "migrate":
            side.migrate(line_id, to)
    except (MiningError, SwapError) as exc:
        return type(exc).__name__
    return None


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "count", "upsert", "evict", "fault", "migrate"]),
            st.integers(0, N_CODES - 1),
            st.integers(0, 1),
        ),
        max_size=60,
    )
)
def test_array_table_matches_dict_table_through_every_move(ops):
    ref, new = _DictSide(), _ArraySide()
    for step in ops:
        # A resident-side op on a line both sides would refuse the same
        # way but for different reasons is still the same refusal.
        assert _apply(new, *step) == _apply(ref, *step), step
        assert new.view() == ref.view(), step
