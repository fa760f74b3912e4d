"""Vectorized counting kernels and the per-pass occurrence-code index.

Counting is the paper's whole motivation: millions of tiny candidate
occurrences are generated, hash-routed, and counted per transaction
(§2.2/§3.3).  In this reproduction that phase is also the dominant
*host wall-clock* cost — executed per occurrence it is a pure-Python
``combinations`` loop with an FNV hash per occurrence for routing (that
implementation is kept as the oracle in ``tests/mining/reference_hpa.py``).
Here every occurrence of every pass is one ``int64`` **code** — the
candidate's position in C_k, the index the pass's routing arrays are
aligned to — and a block of transactions becomes one code array that is
routed, shipped and counted whole.  Only *generating* it depends on k:

1. **k = 2** — all 2-subsets of every transaction in a disk block are
   produced by closed-form triangular index math over the CSR arrays
   (:func:`ragged_pairs`), on the items' ranks among those that occur in
   C_2; one pair→index table over the rank pairs turns them into codes.
2. **k >= 3** — lex-sorted C_k as a trie in per-depth level arrays
   (:class:`PrefixIndex`; a leaf's index is the candidate's code).  One
   batched walk per disk block descends it for all the block's
   transactions at once and emits exactly the candidates each contains,
   in the lexicographic order the naive ``combinations``-then-prune loop
   produces, without enumerating C(|txn|, k) subsets.

Routing is hashed once per pass (``HashPartitioner.lines_of`` over the
candidates as an ``int64[n, k]`` array) and read back by indexing, so
neither placement nor counting ever hashes per itemset.

Everything here is *host-side* optimisation only: the kernels must not
change simulated costs (CPU seconds charged, message counts and sizes,
pagefault behaviour) or mined results.  The drivers therefore consume
codes in two regimes, selected by what the simulation can observe: when
a node has **no pager**, occurrence order cannot influence the virtual
clock and local counting is accumulated and folded in bulk; with a
pager, per-occurrence order is preserved (resident runs batched, faults
taken singly) so LRU touches and faults replay bit-identically.
:class:`OwnerStreams` reproduces the per-occurrence sender's
per-destination buffer-fill boundaries exactly, so message counts,
payload contents, and send *order* are unchanged.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.swap_manager import SwapManager
from repro.datagen.corpus import TransactionDatabase
from repro.errors import MiningError
from repro.mining.candidates import row_index
from repro.mining.itemsets import Itemset

__all__ = [
    "OWNER_DUPLICATED",
    "CountingKernel",
    "OwnerStreams",
    "PrefixIndex",
    "ragged_pairs",
    "filter_block",
    "item_mask",
    "eld_scores",
    "count_candidates",
]

#: Owner sentinel for HPA-ELD duplicated candidates (counted locally on
#: every node, never routed).
OWNER_DUPLICATED = -1


# ---------------------------------------------------------------------------
# low-level array kernels
# ---------------------------------------------------------------------------

def ragged_pairs(values: np.ndarray, lengths: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """All in-order 2-subsets of every row of a ragged array.

    ``values`` is the concatenation of the rows, ``lengths`` the row
    sizes.  Returns ``(first, second)`` arrays covering every row's pairs
    in the exact order ``itertools.combinations(row, 2)`` yields them,
    rows in sequence — the invariant the HPA sender's message boundaries
    depend on.  Uses the closed-form inversion of the triangular pair
    ranking, so cost is O(total pairs) with no Python-level loop.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    c = lengths * (lengths - 1) // 2
    total = int(c.sum())
    if total == 0:
        return np.empty(0, values.dtype), np.empty(0, values.dtype)
    row = np.repeat(np.arange(lengths.size), c)
    row_start = np.concatenate(([0], np.cumsum(lengths)))[:-1]
    pair_start = np.concatenate(([0], np.cumsum(c)))
    # Rank of each pair inside its row, counted from the row's end so the
    # triangular inversion indexes the short tail rows directly.
    rev = c[row] - 1 - (np.arange(total, dtype=np.int64) - pair_start[row])
    e = ((np.sqrt(8.0 * rev + 1.0) - 1.0) // 2).astype(np.int64)
    # One-step correction for float-precision on the sqrt.
    e = np.where(e * (e + 1) // 2 > rev, e - 1, e)
    e = np.where((e + 1) * (e + 2) // 2 <= rev, e + 1, e)
    w = rev - e * (e + 1) // 2
    n = lengths[row]
    base = row_start[row]
    return values[base + (n - 2 - e)], values[base + (n - 1 - w)]


def filter_block(
    items: np.ndarray, rel_offsets: np.ndarray, mask: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Apply an item mask to a CSR block, keeping per-transaction shape.

    ``items`` holds the block's concatenated transactions, ``rel_offsets``
    their boundaries relative to the block start.  Returns the masked
    items plus the per-transaction filtered lengths.
    """
    keep = mask[items]
    kept_cum = np.concatenate(([0], np.cumsum(keep)))
    lengths = kept_cum[rel_offsets[1:]] - kept_cum[rel_offsets[:-1]]
    return items[keep], lengths


def item_mask(itemsets: "Sequence[Itemset] | np.ndarray", n_items: int) -> np.ndarray:
    """Boolean mask over the item universe: appears in any itemset
    (``itemsets`` as same-size tuples or as an ``[n, k]`` row array)."""
    mask = np.zeros(n_items, dtype=bool)
    mask[np.asarray(itemsets, dtype=np.int64).ravel()] = True
    return mask


# ---------------------------------------------------------------------------
# candidate prefix index (k >= 3)
# ---------------------------------------------------------------------------

#: Cells of the ``transactions x labels`` membership temporary one trie
#: walk may allocate; a longer block is walked in slices.  Bounds the
#: temporary, nothing else.
_MEMBER_CELLS = 1 << 22


def _children(ptr: np.ndarray, parent: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Every child of every ``parent`` node, parents in sequence and each
    one's children ascending: ``(index into parent, child node)``."""
    lo = ptr[parent]
    fanout = ptr[parent + 1] - lo
    rep = np.repeat(np.arange(parent.size), fanout)
    run_start = np.cumsum(fanout) - fanout
    return rep, lo[rep] + np.arange(rep.size) - run_start[rep]


class PrefixIndex:
    """Lex-sorted C_k as a trie, one set of arrays per depth.

    ``rows`` is C_k as an ``int64[n, k]`` array over item *labels*
    ``0 .. n_labels-1`` (any order-preserving relabelling of the items).
    The depth-``d`` nodes are the distinct ``(d+1)``-prefixes in row
    order: ``_label[d]`` holds each node's last label and
    ``_ptr[d][j] : _ptr[d][j+1]`` its children at depth ``d+1``.  Every
    row is its own leaf, so a leaf's index is the candidate's position
    in ``rows`` — its occurrence code.

    ``subsets_of`` replaces "enumerate all C(|txn|, k) subsets, then
    prune each via its (k-1)-subsets".  A generated subset passes the
    naive all-subsets prune *iff* it is a candidate (apriori-gen's
    join+prune is closed over that property), so both enumerations yield
    the same stream; within a transaction the naive order is
    lexicographic, i.e. ascending leaf index, which a walk that expands
    parents in sequence and children ascending preserves by construction.
    """

    def __init__(self, rows: np.ndarray, n_labels: int) -> None:
        if rows.ndim != 2 or rows.shape[1] < 1:
            raise MiningError(f"prefix index needs [n, k] rows, got {rows.shape}")
        n, self.k = rows.shape
        self.n_labels = n_labels
        # opens[i, d]: row i starts a new (d+1)-prefix.
        opens = np.ones((n, self.k), dtype=bool)
        if n > 1:
            differs = rows[1:] != rows[:-1]
            at = np.arange(n - 1), differs.argmax(axis=1)
            if not (rows[1:][at] > rows[:-1][at]).all():
                raise MiningError("prefix index needs distinct rows in lex order")
            opens[1:] = np.logical_or.accumulate(differs, axis=1)
        starts = [np.flatnonzero(opens[:, d]) for d in range(self.k)]
        self._label = [rows[starts[d], d] for d in range(self.k)]
        self._ptr = [
            np.append(np.searchsorted(starts[d + 1], starts[d]), len(starts[d + 1]))
            for d in range(self.k - 1)
        ]
        #: Depth-0 node of every label (-1: no candidate starts with it).
        self._root = np.full(n_labels, -1, dtype=np.int64)
        self._root[self._label[0]] = np.arange(len(starts[0]))

    def __len__(self) -> int:
        return len(self._label[-1])

    def subsets_of(self, labels: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Codes of the candidates contained in each transaction of a
        CSR block, transactions in sequence, naive order within each.

        ``labels`` concatenates the transactions (each ascending, already
        restricted to ``0 .. n_labels-1``), ``lengths`` are their sizes.
        """
        out = [np.empty(0, dtype=np.int64)]
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        step = max(1, _MEMBER_CELLS // max(1, self.n_labels))
        for t0 in range(0, len(lengths), step):
            t1 = min(len(lengths), t0 + step)
            block = labels[bounds[t0] : bounds[t1]]
            txn = np.repeat(np.arange(t1 - t0), lengths[t0:t1])
            member = np.zeros((t1 - t0, self.n_labels), dtype=bool)
            member[txn, block] = True
            node = self._root[block]
            txn, node = txn[node >= 0], node[node >= 0]
            for d in range(self.k - 1):
                rep, node = _children(self._ptr[d], node)
                txn = txn[rep]
                keep = member[txn, self._label[d + 1][node]]
                txn, node = txn[keep], node[keep]
            out.append(node)
        return np.concatenate(out)


# ---------------------------------------------------------------------------
# naive-identical send chunking
# ---------------------------------------------------------------------------

class OwnerStreams:
    """Per-destination code streams with naive-identical flush boundaries.

    The naive sender appends each remote occurrence to its owner's
    buffer and posts a message the instant a buffer reaches
    ``items_per_msg``.  Between two flushes inside one disk block there
    are no simulation yields, so the only order that matters is the order
    of the flushes themselves — which this class reproduces by computing,
    for every destination, the emission position at which each buffer
    crossing occurs, then sorting flush events by that position.
    """

    def __init__(self, dests: Sequence[int], items_per_msg: int) -> None:
        if items_per_msg <= 0:
            raise MiningError(f"items_per_msg must be positive, got {items_per_msg}")
        self.dests = list(dests)
        self.items_per_msg = items_per_msg
        self._pending: dict[int, np.ndarray] = {
            b: np.empty(0, dtype=np.int64) for b in self.dests
        }

    def extend(
        self, codes: np.ndarray, owners: np.ndarray
    ) -> "list[tuple[int, int, np.ndarray]]":
        """Append one block's occurrences; return due flushes in order.

        ``codes``/``owners`` are aligned arrays of *all* the block's
        occurrences in emission order; those owned by none of the
        destinations (local or duplicated candidates) are skipped.
        Returns ``(position, dest, payload_codes)`` triples sorted by
        ``position`` — the index into ``codes`` of the occurrence that
        completed the buffer, i.e. where in the block the naive
        per-occurrence sender would have posted it.  Each payload is
        exactly ``items_per_msg`` long.
        """
        ipm = self.items_per_msg
        events: list[tuple[int, int, np.ndarray]] = []
        # One stable sort groups the block by owner, emission order kept
        # inside each group, whatever the number of destinations.
        order = np.argsort(owners, kind="stable")
        grouped = owners[order]
        starts = np.searchsorted(grouped, self.dests).tolist()
        ends = np.searchsorted(grouped, self.dests, side="right").tolist()
        for b, lo, hi in zip(self.dests, starts, ends):
            if lo == hi:
                continue
            idx = order[lo:hi]
            fill = self._pending[b].size
            stream = np.concatenate((self._pending[b], codes[idx]))
            n_flush = stream.size // ipm
            for t in range(n_flush):
                pos = int(idx[(t + 1) * ipm - fill - 1])
                events.append((pos, b, stream[t * ipm : (t + 1) * ipm]))
            self._pending[b] = stream[n_flush * ipm :]
        events.sort(key=lambda ev: ev[0])
        return events

    def residual(self) -> "list[tuple[int, np.ndarray]]":
        """Leftover partial buffers, in destination order (the order the
        naive sender drains its buffer dict)."""
        out = []
        for b in self.dests:
            if self._pending[b].size:
                out.append((b, self._pending[b]))
                self._pending[b] = np.empty(0, dtype=np.int64)
        return out


# ---------------------------------------------------------------------------
# the per-pass kernel context
# ---------------------------------------------------------------------------

class CountingKernel:
    """One pass's shared counting kernel: occurrence codes plus routing.

    Built once per pass from C_k as the ``int64[n, k]`` ``rows`` the
    driver hashed for routing, and the aligned ``owners`` —
    ``owners[i]`` is candidate ``i``'s owning node
    (:data:`OWNER_DUPLICATED` marks an ELD-duplicated candidate; NPA,
    where every candidate is local, passes all zeros).  Every occurrence
    of the pass is one ``int64`` *code*: the candidate's row, the index
    the pass's :class:`~repro.mining.hash_table.CandidateHashTable` is
    addressed by.  Drivers only generate (:meth:`occurrences`), route
    (:meth:`owners_of`) and fold codes; ``rows[codes]`` are their
    itemsets.  All nodes share one instance — the structures are
    read-only during counting.
    """

    def __init__(self, n_items: int, rows: np.ndarray, owners: np.ndarray) -> None:
        self.k = rows.shape[1]
        # Owners are node ids or -1: in the narrowest integer type that
        # holds them, OwnerStreams' grouping sort is a radix sort.
        self._owner = owners.astype(
            np.min_scalar_type(-max(1, int(owners.max(initial=0))))
        )
        #: Items occurring in any candidate — transactions are restricted
        #: to this mask before subset generation (for k == 2 it is the
        #: L1 mask: C_2 pairs every large item with every other).
        self.mask = item_mask(rows, n_items)
        # Candidates are looked up by item *rank* among the m masked
        # items, so every table is O(|C_k|) whatever the universe.  Rank
        # m stands for every item outside C_k.
        members = np.flatnonzero(self.mask)
        m = members.size
        self._rank = np.full(n_items, m, dtype=np.int64)
        self._rank[members] = np.arange(m)
        if self.k == 2:
            # Row and column m stay -1 like any other non-candidate pair.
            self._pair_code = np.full((m + 1, m + 1), -1, dtype=np.int64)
            self._pair_code[tuple(self._rank[rows].T)] = np.arange(len(rows))
        else:
            self._prefix = PrefixIndex(self._rank[rows], m)

    # -- occurrence generation ----------------------------------------------

    def pair_block(
        self, items: np.ndarray, rel_offsets: np.ndarray, l1_mask: np.ndarray
    ) -> np.ndarray:
        """Codes of every pair of ``l1_mask`` items in one CSR block, in
        naive emission order.  A pair that is not a candidate means
        sender-side pruning is broken (the per-occurrence walk would
        fail the same way at count time)."""
        filtered, lengths = filter_block(items, rel_offsets, l1_mask)
        first, second = ragged_pairs(self._rank[filtered], lengths)
        codes = self._pair_code[first, second]
        if codes.size and int(codes.min()) < 0:
            bad = int(np.argmin(codes))
            first, second = ragged_pairs(filtered, lengths)
            raise MiningError(
                f"pair {(int(first[bad]), int(second[bad]))} generated by the "
                f"kernel is not a candidate — routing is broken"
            )
        return codes

    def occurrences(self, part: TransactionDatabase, i: int, j: int) -> np.ndarray:
        """Codes of every candidate occurrence in transactions
        ``[i, j)`` of ``part``, in the order the naive
        ``combinations``-then-prune walk emits them."""
        offsets = part.offsets
        items = part.items[offsets[i] : offsets[j]]
        rel_offsets = offsets[i : j + 1] - offsets[i]
        if self.k == 2:
            return self.pair_block(items, rel_offsets, self.mask)
        filtered, lengths = filter_block(items, rel_offsets, self.mask)
        return self._prefix.subsets_of(self._rank[filtered], lengths)

    # -- routing ----------------------------------------------------------------

    def owners_of(self, codes: np.ndarray) -> np.ndarray:
        """Owner of every code (``OWNER_DUPLICATED`` for ELD)."""
        return self._owner[codes]

    # -- counting into a swap manager -----------------------------------------

    def count_resident_span(
        self, mgr: SwapManager, codes: np.ndarray, lines: np.ndarray
    ) -> None:
        """Pinned by the benchmark's target table; drivers call
        :meth:`SwapManager.count_span_codes` themselves."""
        mgr.count_span_codes(codes, lines)

    def apply_local_pairs(
        self, mgr: SwapManager, code_arrays: "list[np.ndarray]"
    ) -> None:
        """Fold accumulated local codes into a swap manager.

        Only valid when the node has no pager (every line permanently
        resident): occurrence order then cannot influence the virtual
        clock, so the whole scan collapses to one bulk count.
        """
        if code_arrays:
            mgr.count_resident_bulk(np.concatenate(code_arrays))


# ---------------------------------------------------------------------------
# ELD ranking
# ---------------------------------------------------------------------------

def eld_scores(
    candidates: np.ndarray, prev_rows: np.ndarray, prev_counts: np.ndarray
) -> np.ndarray:
    """Estimated-frequency score of every candidate row, computed once
    each: ``min`` support over its (k-1)-subsets, the upper bound HPA-ELD
    ranks by (0 for a subset outside L_{k-1}, ``prev_rows`` with support
    ``prev_counts``)."""
    support = np.append(np.asarray(prev_counts, dtype=np.int64), 0)  # [-1] -> 0
    subsets = [np.delete(candidates, j, axis=1) for j in range(candidates.shape[1])]
    return np.min([support[i] for i in row_index(prev_rows, subsets)], axis=0)


# ---------------------------------------------------------------------------
# sequential counting
# ---------------------------------------------------------------------------

#: Transactions per vectorised chunk when scanning a whole database — the
#: chunk bounds the size of the code temporaries, nothing else.
_SCAN_CHUNK_TXNS = 65536


def count_candidates(db: TransactionDatabase, candidates: np.ndarray) -> np.ndarray:
    """Support count of every candidate row over ``db`` via the kernels.

    Same results as the naive filtered-``combinations`` scan in
    :mod:`repro.mining.apriori`, by the parallel drivers' own path: one
    :class:`CountingKernel` (routing unused, so all zero), its
    occurrence codes chunk by chunk, one ``bincount`` over them.
    """
    n = len(candidates)
    kernel = CountingKernel(db.n_items, candidates, np.zeros(n, dtype=np.int64))
    acc = np.zeros(n, dtype=np.int64)
    for start in range(0, len(db), _SCAN_CHUNK_TXNS):
        stop = min(len(db), start + _SCAN_CHUNK_TXNS)
        acc += np.bincount(kernel.occurrences(db, start, stop), minlength=n)
    return acc
