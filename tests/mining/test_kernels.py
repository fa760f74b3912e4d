"""Property tests: the vectorized counting kernels match the naive loops.

Every kernel claims exact stream equivalence with a naive reference
(generation order, routing, chunk boundaries, counts) — Hypothesis
searches for ragged shapes, candidate sets, and buffer fills that break
it.
"""

import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import TransactionDatabase, generate
from repro.errors import MiningError
from repro.mining import HashPartitioner, generate_candidates
from repro.mining import kernels
from repro.mining.apriori import _count_candidates, apriori
from repro.mining.itemsets import itemset_rows
from repro.mining.kernels import (
    OWNER_DUPLICATED,
    CountingKernel,
    OwnerStreams,
    PrefixIndex,
    count_candidates,
    eld_scores,
    filter_block,
    ragged_pairs,
)

# -- strategies ---------------------------------------------------------------

#: Ragged rows of sorted, distinct items — the shape of masked CSR blocks.
ragged_rows = st.lists(
    st.lists(st.integers(0, 30), min_size=0, max_size=12, unique=True).map(sorted),
    min_size=0,
    max_size=10,
)


def _tuples(rows):
    return list(map(tuple, rows.tolist()))


def _csr(rows):
    values = np.array([i for row in rows for i in row], dtype=np.int32)
    lengths = np.array([len(row) for row in rows], dtype=np.int64)
    return values, lengths


# -- ragged_pairs / filter_block ---------------------------------------------

@settings(max_examples=200, deadline=None)
@given(ragged_rows)
def test_ragged_pairs_matches_combinations(rows):
    values, lengths = _csr(rows)
    first, second = ragged_pairs(values, lengths)
    expected = [pair for row in rows for pair in combinations(row, 2)]
    assert list(zip(first.tolist(), second.tolist())) == expected


@settings(max_examples=200, deadline=None)
@given(ragged_rows, st.sets(st.integers(0, 30)))
def test_filter_block_matches_per_row_filter(rows, keep):
    values, lengths = _csr(rows)
    rel_offsets = np.concatenate(([0], np.cumsum(lengths)))
    mask = np.zeros(31, dtype=bool)
    mask[list(keep)] = True
    filtered, flens = filter_block(values, rel_offsets, mask)
    expected_rows = [[i for i in row if i in keep] for row in rows]
    assert filtered.tolist() == [i for row in expected_rows for i in row]
    assert flens.tolist() == [len(row) for row in expected_rows]


# -- prefix index -------------------------------------------------------------

def _naive_subsets(txn, candidates, l_prev, k):
    """The loop the prefix index replaces: enumerate every k-subset of
    the transaction, keep those whose (k-1)-subsets are all in L_{k-1}."""
    cand_set = set(_tuples(candidates))
    out = []
    for subset in combinations(txn, k):
        if all(sub in l_prev for sub in combinations(subset, k - 1)):
            assert subset in cand_set  # join+prune closure
            out.append(subset)
    return out


@st.composite
def _pass_inputs(draw):
    """``(k, L_{k-1}, block)`` for k = 3 .. 5.  L_{k-1} is every
    (k-1)-subset of a few base itemsets (so joins survive the prune),
    plus noise, minus a few holes (so the prune bites); the block's
    transactions range over a universe two items wider than the
    candidates' (ids 10 and 11 are in no mask) and include empty and
    shorter-than-k ones."""
    k = draw(st.integers(3, 5))
    item = st.integers(0, 9)
    bases = draw(
        st.lists(st.lists(item, min_size=k, max_size=k + 2, unique=True), min_size=1, max_size=3)
    )
    small = st.lists(item, min_size=k - 1, max_size=k - 1, unique=True)
    l_prev = {sub for base in bases for sub in combinations(sorted(base), k - 1)}
    l_prev |= {tuple(sorted(v)) for v in draw(st.lists(small, max_size=5))}
    l_prev -= draw(st.sets(st.sampled_from(sorted(l_prev)), max_size=3))
    txn = st.builds(
        lambda base, extra: sorted(set(base) | set(extra)),
        st.sampled_from(bases + [[]]),
        st.lists(st.integers(0, 11), max_size=6),
    )
    return k, l_prev, draw(st.lists(txn, max_size=8))


@settings(max_examples=300, deadline=None)
@given(_pass_inputs(), st.sampled_from([1 << 22, 12, 1]))
def test_prefix_index_matches_all_subsets_prune(inputs, cells):
    """The batched walk over a block equals the naive per-transaction
    enumeration concatenated, order included, for k = 3 .. 5 — also when
    the membership temporary only has room for one transaction (or less
    than one) at a time."""
    k, l_prev, block = inputs
    candidates = generate_candidates(sorted(l_prev), k)
    db = TransactionDatabase.from_lists(block or [[]], n_items=12)
    want = [
        s for txn in (block or [[]])
        for s in _naive_subsets(txn, candidates, set(l_prev), k)
    ]
    if not len(candidates):
        assert not want
        return
    zeros = np.zeros(len(candidates), dtype=np.int64)
    kernel = CountingKernel(12, candidates, zeros)
    with mock.patch.object(kernels, "_MEMBER_CELLS", cells):
        assert _tuples(candidates[kernel.occurrences(db, 0, len(db))]) == want
    # One transaction at a time: the same stream, block boundaries free.
    singly = [kernel.occurrences(db, t, t + 1) for t in range(len(db))]
    assert _tuples(candidates[np.concatenate(singly)]) == want


def test_prefix_index_walks_labels_directly():
    """The index proper, without a kernel in front: labels are the
    items, a leaf's index is the candidate's row."""
    rows = np.array([[0, 1, 2], [0, 1, 4], [0, 2, 4], [1, 2, 4]])
    index = PrefixIndex(rows, 5)
    assert len(index) == 4
    labels = np.array([0, 1, 2, 4, 1, 2, 0, 1, 4])  # {0,1,2,4} {1,2} {0,1,4}
    got = index.subsets_of(labels, np.array([4, 2, 3]))
    assert got.tolist() == [0, 1, 2, 3, 1]
    assert index.subsets_of(labels[:0], np.array([0, 0])).size == 0
    assert index.subsets_of(labels[:0], np.zeros(0, dtype=np.int64)).size == 0


def test_prefix_index_rejects_bad_sizes():
    with pytest.raises(MiningError):
        PrefixIndex(np.array([1, 2, 3]), 5)  # not [n, k]
    with pytest.raises(MiningError, match="lex order"):
        PrefixIndex(np.array([[1, 2, 4], [1, 2, 3]]), 5)
    with pytest.raises(MiningError, match="distinct"):
        PrefixIndex(np.array([[1, 2, 3], [1, 2, 3]]), 5)


# -- owner streams ------------------------------------------------------------

def _naive_buffers(blocks, dests, ipm):
    """The naive sender: per-owner buffers flushed at items_per_msg."""
    buffers = {b: [] for b in dests}
    sends = []
    for codes, owners in blocks:
        for code, owner in zip(codes, owners):
            buf = buffers[owner]
            buf.append(code)
            if len(buf) >= ipm:
                sends.append((owner, list(buf)))
                buf.clear()
    for b in dests:
        if buffers[b]:
            sends.append((b, list(buffers[b])))
    return sends


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.integers(0, 99), st.integers(0, 2)), max_size=30),
        min_size=1,
        max_size=5,
    ),
    st.integers(1, 7),
)
def test_owner_streams_matches_naive_buffers(blocks, ipm):
    dests = [0, 1, 2]
    streams = OwnerStreams(dests, ipm)
    got = []
    pairs = [
        (
            np.array([c for c, _ in block], dtype=np.int64),
            np.array([o for _, o in block], dtype=np.int64),
        )
        for block in blocks
    ]
    for codes, owners in pairs:
        flushes = streams.extend(codes, owners)
        # Each flush is positioned at the occurrence that filled its buffer.
        assert [pos for pos, _, _ in flushes] == sorted(pos for pos, _, _ in flushes)
        for pos, dest, payload in flushes:
            assert owners[pos] == dest and codes[pos] == payload[-1]
            got.append((dest, payload.tolist()))
    for dest, payload in streams.residual():
        got.append((dest, payload.tolist()))
    want = _naive_buffers(
        [(c.tolist(), o.tolist()) for c, o in pairs], dests, ipm
    )
    assert got == want


# -- counting kernel: routing and full stream ---------------------------------

@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([20, 5000]),
    st.sets(st.integers(0, 19), min_size=2, max_size=12),
    st.lists(st.integers(0, 19), max_size=12, unique=True).map(sorted),
    st.integers(0, 3),
)
def test_kernel_pair_stream_matches_naive_routing(n_items, large1, txn, n_dup):
    """The pair kernel yields the naive sender's (itemset, line, owner)
    stream for any transaction, whatever the size of the item universe
    (drawn items are spread over it, up to its last id)."""
    spread = n_items // 20
    large1 = {i * spread + spread - 1 for i in large1}
    txn = [i * spread + spread - 1 for i in txn]
    l1 = sorted((i,) for i in large1)
    candidates = generate_candidates(l1, 2)
    part = HashPartitioner(64, 4)
    dup = set(_tuples(candidates[:n_dup]))
    lines = np.array([part.line_of(c) for c in _tuples(candidates)], dtype=np.int64)
    owners = lines % part.n_nodes
    lines[: len(dup)] = -1
    owners[: len(dup)] = OWNER_DUPLICATED
    kernel = CountingKernel(n_items, candidates, owners)

    l1_mask = np.zeros(n_items, dtype=bool)
    l1_mask[[i for (i,) in l1]] = True
    txn_arr = np.array(txn, dtype=np.int32)
    rel = np.array([0, len(txn)], dtype=np.int64)
    codes = kernel.pair_block(txn_arr, rel, l1_mask)
    got = list(
        zip(
            _tuples(candidates[codes]),
            lines[codes].tolist(),
            kernel.owners_of(codes).tolist(),
        )
    )

    want = []
    for pair in combinations([i for i in txn if i in large1], 2):
        if pair in dup:
            want.append((pair, -1, OWNER_DUPLICATED))
        else:
            line = part.line_of(pair)
            want.append((pair, line, part.node_of_line(line)))
    assert got == want


def test_kernel_owners_of_rejects_non_candidate():
    """A generated pair that is not a candidate fails at generation,
    naming the pair, in a small universe and in the paper's — also when
    one of its items is in no candidate at all but the caller's mask
    lets it through."""
    for n_items in (20, 5000):
        last = n_items - 1
        candidates = np.array([(1, 2), (3, last)])
        routing = np.zeros(2, dtype=np.int64)
        kernel = CountingKernel(n_items, candidates, routing)
        db = TransactionDatabase.from_lists([[1, 2], [1, last]], n_items=n_items)
        assert _tuples(candidates[kernel.occurrences(db, 0, 1)]) == [(1, 2)]
        with pytest.raises(MiningError, match=rf"\(1, {last}\).*not a candidate"):
            kernel.occurrences(db, 0, 2)
        wide = np.ones(n_items, dtype=bool)
        with pytest.raises(MiningError, match=r"\(0, 1\).*not a candidate"):
            kernel.pair_block(np.array([0, 1]), np.array([0, 2]), wide)
        assert kernel.pair_block(np.array([0]), np.array([0, 1]), wide).size == 0


def test_kernel_k2_tables_scale_with_candidates_not_universe(monkeypatch):
    """k = 2 over the paper's 5,000-item universe is the array path —
    the prefix walk is never entered — and the kernel's tables are sized
    by C_2, not by ``n_items ** 2`` (two int32 tables of that size alone
    would be 200 MB)."""

    def no_walk(self, labels, lengths):
        raise AssertionError("k = 2 must not walk the prefix index")

    monkeypatch.setattr(PrefixIndex, "subsets_of", no_walk)
    n_items = 5000
    rng = np.random.default_rng(5)
    large = np.sort(rng.choice(n_items, size=300, replace=False))
    candidates = generate_candidates([(int(i),) for i in large], 2)
    lines = np.arange(len(candidates), dtype=np.int64)
    tracemalloc.start()
    try:
        kernel = CountingKernel(n_items, candidates, lines % 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    db = TransactionDatabase.from_lists(
        [np.sort(rng.choice(n_items, size=40, replace=False)).tolist() for _ in range(50)],
        n_items=n_items,
    )
    codes = kernel.occurrences(db, 0, len(db))
    members = set(large.tolist())
    want = [
        pair
        for txn in db
        for pair in combinations([i for i in txn.tolist() if i in members], 2)
    ]
    assert want and _tuples(candidates[codes]) == want
    counted = dict(zip(_tuples(candidates), count_candidates(db, candidates).tolist()))
    assert counted == _count_candidates(db, candidates)


def test_kernel_takes_no_code_space_option():
    routing = np.zeros(1, dtype=np.int64)
    with pytest.raises(TypeError):
        CountingKernel(10, np.array([[1, 2]]), routing, dense_limit=5)


# -- ELD scores ---------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.integers(0, 19).map(lambda i: (i,)), st.integers(1, 500), max_size=15
    )
)
def test_eld_scores_match_naive_min_k2(l_prev):
    rows = itemset_rows(list(l_prev), 1)
    candidates = generate_candidates(rows, 2)
    scores = eld_scores(candidates, rows, np.array(list(l_prev.values())))
    naive = [
        min(l_prev.get(sub, 0) for sub in combinations(cand, 1))
        for cand in _tuples(candidates)
    ]
    assert scores.tolist() == naive


def test_eld_scores_k3():
    prev = np.array([[2, 3], [1, 2], [1, 3]])
    candidates = np.array([[1, 2, 3], [1, 2, 4]])
    # (1, 2, 4) has (1, 4) and (2, 4) outside L_2: scored 0.
    assert eld_scores(candidates, prev, np.array([9, 10, 7])).tolist() == [7, 0]


# -- sequential count_candidates ----------------------------------------------

DB = generate("T6.I2.D200", n_items=40, seed=11)


@pytest.mark.parametrize("k", [2, 3])
def test_count_candidates_matches_naive_scan(k):
    ref = apriori(DB, minsup=0.02)
    l_prev = sorted(ref.large_of_size(k - 1))
    candidates = generate_candidates(l_prev, k)
    assert len(candidates), "workload must produce candidates for the test to bite"
    counted = dict(zip(_tuples(candidates), count_candidates(DB, candidates).tolist()))
    assert counted == _count_candidates(DB, candidates)


def test_count_candidates_empty():
    assert count_candidates(DB, np.empty((0, 2), dtype=np.int64)).size == 0
