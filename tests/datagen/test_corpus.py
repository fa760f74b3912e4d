"""Tests for the TransactionDatabase container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import TransactionDatabase, generate
from repro.errors import DataGenError


def tiny_db():
    return TransactionDatabase.from_lists(
        [[0, 1, 2], [1, 2], [0, 3], [2], [0, 1, 2, 3]], n_items=4, name="tiny"
    )


def test_len_and_getitem():
    db = tiny_db()
    assert len(db) == 5
    assert db[0].tolist() == [0, 1, 2]
    assert db[-1].tolist() == [0, 1, 2, 3]


def test_getitem_out_of_range():
    db = tiny_db()
    with pytest.raises(IndexError):
        db[5]
    with pytest.raises(IndexError):
        db[-6]


def test_iteration_matches_indexing():
    db = tiny_db()
    assert [t.tolist() for t in db] == [db[i].tolist() for i in range(len(db))]


def test_from_lists_dedups_and_sorts():
    db = TransactionDatabase.from_lists([[3, 1, 3, 2]], n_items=5)
    assert db[0].tolist() == [1, 2, 3]


def test_item_counts():
    db = tiny_db()
    assert db.item_counts().tolist() == [3, 3, 4, 2]


def test_avg_txn_len():
    db = tiny_db()
    assert db.avg_txn_len == pytest.approx((3 + 2 + 2 + 1 + 4) / 5)


def test_size_bytes_scales_like_paper():
    # 1M transactions of ~18 items -> ~80 MB in the paper; check the model
    # is in that regime (4 B/item + 8 B/txn).
    db = tiny_db()
    assert db.size_bytes() == 4 * 12 + 8 * 5


def test_partition_round_robin():
    db = tiny_db()
    parts = db.partition(2)
    assert len(parts) == 2
    assert len(parts[0]) == 3 and len(parts[1]) == 2
    assert parts[0][0].tolist() == [0, 1, 2]
    assert parts[1][0].tolist() == [1, 2]
    # Every transaction appears in exactly one partition.
    assert sum(len(p) for p in parts) == len(db)
    assert sum(p.total_items for p in parts) == db.total_items


def test_partition_count_validation():
    with pytest.raises(DataGenError):
        tiny_db().partition(0)


def test_partition_item_counts_sum():
    db = generate("T10.I4.D1K", n_items=100, seed=4)
    parts = db.partition(8)
    summed = sum(p.item_counts() for p in parts)
    assert np.array_equal(summed, db.item_counts())


@settings(max_examples=60, deadline=None)
@given(
    txns=st.lists(st.sets(st.integers(0, 30), max_size=6), max_size=40),
    n_parts=st.integers(1, 12),
)
def test_partition_equals_slicing_every_nth_transaction(txns, n_parts):
    # Empty transactions, and more parts than transactions, included.
    db = TransactionDatabase.from_lists(txns, n_items=31, name="db")
    parts = db.partition(n_parts)
    assert len(parts) == n_parts
    for j, part in enumerate(parts):
        want = TransactionDatabase.from_arrays(
            [db[i] for i in range(j, len(db), n_parts)], n_items=31, name=f"db/part{j}"
        )
        assert part.items.dtype == want.items.dtype
        assert part.offsets.dtype == want.offsets.dtype
        assert part.items.tobytes() == want.items.tobytes()
        assert part.offsets.tobytes() == want.offsets.tobytes()
        assert (part.n_items, part.name) == (want.n_items, want.name)


def test_save_load_roundtrip(tmp_path):
    db = tiny_db()
    path = tmp_path / "db.npz"
    db.save(path)
    loaded = TransactionDatabase.load(path)
    assert np.array_equal(loaded.items, db.items)
    assert np.array_equal(loaded.offsets, db.offsets)
    assert loaded.n_items == db.n_items
    assert loaded.name == db.name


def test_invalid_offsets_rejected():
    with pytest.raises(DataGenError):
        TransactionDatabase(np.array([0, 1]), np.array([0, 5]), n_items=4)
    with pytest.raises(DataGenError):
        TransactionDatabase(np.array([0, 1]), np.array([1, 2]), n_items=4)
    with pytest.raises(DataGenError):
        TransactionDatabase(np.array([0, 1]), np.array([0, 2, 1, 2]), n_items=4)


def test_out_of_range_items_rejected():
    with pytest.raises(DataGenError):
        TransactionDatabase(np.array([0, 9]), np.array([0, 2]), n_items=4)


@pytest.mark.parametrize(
    "items, offsets",
    [
        ([0, 2, 1], [0, 3]),  # unsorted row
        ([1, 1], [0, 2]),  # duplicate item
        ([0, 3, 1, 1], [0, 2, 4]),  # bad second row
        ([2, 1], [0, 0, 2, 2]),  # bad row between empty rows
    ],
)
def test_rows_must_be_strictly_increasing(items, offsets):
    with pytest.raises(DataGenError, match="strictly increasing"):
        TransactionDatabase(np.array(items), np.array(offsets), n_items=4)


def test_row_check_looks_inside_rows_only():
    # A row may start below where the previous one ended, next to empty
    # rows at the front, in the middle and at the back.
    db = TransactionDatabase(np.array([2, 3, 0, 3, 0]), np.array([0, 0, 2, 2, 4, 5, 5]), n_items=4)
    assert [t.tolist() for t in db] == [[], [2, 3], [], [0, 3], [0], []]
    assert len(TransactionDatabase(np.array([3]), np.array([0, 1]), n_items=4)) == 1
    assert len(TransactionDatabase(np.array([]), np.array([0, 0, 0]), n_items=4)) == 2


def test_empty_database():
    db = TransactionDatabase.from_arrays([], n_items=10)
    assert len(db) == 0
    assert db.avg_txn_len == 0.0
    assert db.item_counts().tolist() == [0] * 10
