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
2. **k >= 3** — C_k organised by its (k-1)-prefix (:class:`PrefixIndex`,
   the join structure apriori-gen already produces).  Subset generation
   walks transaction items against the index and emits exactly the
   candidates contained in the transaction, in the lexicographic order
   the naive ``combinations``-then-prune loop produces, without
   enumerating C(|txn|, k) subsets.

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

from itertools import combinations
from typing import Sequence

import numpy as np

from repro.core.swap_manager import SpanIndex, SwapManager
from repro.datagen.corpus import TransactionDatabase
from repro.errors import MiningError
from repro.mining.itemsets import Itemset, itemset_rows

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

class PrefixIndex:
    """C_k grouped by (k-1)-prefix — the apriori-gen join structure.

    ``subsets_of`` replaces "enumerate all C(|txn|, k) subsets, then
    prune each via its (k-1)-subsets": only (k-1)-prefixes present in the
    transaction are probed, and each hit expands to the candidates it
    heads that the transaction also contains.  A generated subset passes
    the naive all-subsets prune *iff* it is a candidate (apriori-gen's
    join+prune is closed over that property), so both enumerations yield
    the same stream; prefixes arrive in lexicographic order and last
    items ascend, preserving the naive order exactly.
    """

    def __init__(self, candidates: Sequence[Itemset], k: int) -> None:
        if k < 2:
            raise MiningError(f"prefix index requires k >= 2, got {k}")
        self.k = k
        index: dict[Itemset, list[int]] = {}
        for cand in candidates:
            if len(cand) != k:
                raise MiningError(f"expected {k}-itemsets, got {cand}")
            index.setdefault(cand[:-1], []).append(cand[-1])
        for lasts in index.values():
            lasts.sort()
        self._index = index

    def __len__(self) -> int:
        return sum(len(v) for v in self._index.values())

    def subsets_of(self, filtered: Sequence[int]) -> "list[Itemset]":
        """Candidates contained in a (masked, sorted) transaction.

        ``filtered`` must already be restricted to items that occur in
        some candidate (see :func:`item_mask`) — dropping other items
        cannot change the result and keeps the prefix enumeration small.
        """
        k = self.k
        if len(filtered) < k:
            return []
        index = self._index
        members = set(filtered)
        out: list[Itemset] = []
        for prefix in combinations(filtered, k - 1):
            lasts = index.get(prefix)
            if lasts is None:
                continue
            for last in lasts:
                # Every indexed last exceeds prefix[-1] by construction.
                if last in members:
                    out.append(prefix + (last,))
        return out


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
        for b in self.dests:
            idx = np.flatnonzero(owners == b)
            if idx.size == 0:
                continue
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

    Built once per pass from the candidate list and its aligned routing
    arrays — ``lines[i]``/``owners[i]`` are candidate ``i``'s hash line
    and owning node (owner :data:`OWNER_DUPLICATED` with line -1 marks an
    ELD-duplicated candidate; NPA, where every candidate is local, passes
    all-zero owners).  Every occurrence of the pass is one ``int64``
    *code*: the candidate's index into ``candidates``, so routing and
    decoding are plain indexing into the pass's own arrays.  Drivers only
    generate (:meth:`occurrences`), route (:meth:`owners_of`,
    :meth:`lines_of`), decode and fold codes.  All nodes share one
    instance — the structures are read-only during counting.
    """

    def __init__(
        self,
        k: int,
        n_items: int,
        candidates: Sequence[Itemset],
        lines: np.ndarray,
        owners: np.ndarray,
    ) -> None:
        self.k = k
        self._candidates = candidates
        self._line = lines
        self._owner = owners
        cand = itemset_rows(candidates, k)
        #: Items occurring in any candidate — transactions are restricted
        #: to this mask before subset generation (for k == 2 it is the
        #: L1 mask: C_2 pairs every large item with every other).
        self.mask = item_mask(cand, n_items)
        if k == 2:
            # Pairs are looked up by item *rank* among the m masked
            # items, so the table is O(|C_2|) whatever the universe.
            # Rank m stands for every item outside C_2: its row and
            # column stay -1 like any other non-candidate pair.
            members = np.flatnonzero(self.mask)
            m = members.size
            self._rank = np.full(n_items, m, dtype=np.int64)
            self._rank[members] = np.arange(m)
            self._pair_code = np.full((m + 1, m + 1), -1, dtype=np.int64)
            self._pair_code[tuple(self._rank[cand].T)] = np.arange(len(cand))
        else:
            self._code = {c: i for i, c in enumerate(candidates)}
            self._prefix = PrefixIndex(candidates, k)

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
        if self.k == 2:
            return self.pair_block(
                part.items[offsets[i] : offsets[j]],
                offsets[i : j + 1] - offsets[i],
                self.mask,
            )
        k, mask, code = self.k, self.mask, self._code
        subsets_of = self._prefix.subsets_of
        out: list[int] = []
        for t in range(i, j):
            txn = part[t]
            filtered = txn[mask[txn]]
            if filtered.size >= k:
                out.extend([code[s] for s in subsets_of(filtered.tolist())])
        return np.array(out, dtype=np.int64)

    # -- routing and decoding -----------------------------------------------

    def owners_of(self, codes: np.ndarray) -> np.ndarray:
        """Owner of every code (``OWNER_DUPLICATED`` for ELD)."""
        return self._owner[codes]

    def lines_of(self, codes: np.ndarray) -> np.ndarray:
        """Hash line of every code."""
        return self._line[codes]

    def decode(self, codes: np.ndarray) -> "list[Itemset]":
        """The candidate tuples the codes index."""
        return list(map(self._candidates.__getitem__, codes.tolist()))

    def itemset_of(self, code: int) -> Itemset:
        """Single-code :meth:`decode` (the per-fault slow path)."""
        return self._candidates[code]

    # -- counting into a swap manager -----------------------------------------

    def count_resident_span(
        self, mgr: SwapManager, codes: np.ndarray, lines: np.ndarray
    ) -> None:
        """Count one run of occurrences on all-resident lines into ``mgr``.

        Valid only when every line in ``lines`` is resident and the
        caller yields to no simulation event across the run (see
        :meth:`SwapManager.count_resident_batch` for why that makes the
        batch indistinguishable from the per-occurrence sequence).  On
        first use the manager gets a :class:`SpanIndex` onto the pass's
        shared candidate and line arrays; counts accumulate vectorised.
        """
        if mgr.span_index is None:
            mgr.span_index = SpanIndex(self._candidates, self._line)
        mgr.count_span_codes(codes, lines)

    def tally(
        self, code_arrays: "list[np.ndarray]"
    ) -> "tuple[list[Itemset], list[int], list[int]]":
        """Collapse accumulated code arrays to one aligned ``(itemsets,
        lines, counts)`` entry per distinct candidate."""
        if not code_arrays:
            return [], [], []
        acc = np.bincount(np.concatenate(code_arrays), minlength=len(self._candidates))
        hot = np.flatnonzero(acc)
        return self.decode(hot), self._line[hot].tolist(), acc[hot].tolist()

    def apply_local_pairs(
        self, mgr: SwapManager, code_arrays: "list[np.ndarray]"
    ) -> None:
        """Fold accumulated local codes into a swap manager.

        Only valid when the node has no pager (every line permanently
        resident): occurrence order then cannot influence the virtual
        clock, so counts collapse to one bulk increment per candidate.
        """
        itemsets, lines, counts = self.tally(code_arrays)
        if itemsets:
            mgr.count_resident_bulk(itemsets, lines, counts)


# ---------------------------------------------------------------------------
# ELD ranking
# ---------------------------------------------------------------------------

def eld_scores(
    candidates: Sequence[Itemset], l_prev: "dict[Itemset, int]", k: int
) -> "list[int]":
    """Estimated-frequency score of every candidate, computed once each.

    The score is ``min`` support over the candidate's (k-1)-subsets —
    the upper bound HPA-ELD ranks by.  For k == 2 the subsets are single
    items, so the mins vectorise over an L1 support array.
    """
    if k == 2:
        n_items = 1 + max((c[1] for c in candidates), default=0)
        support = np.zeros(n_items, dtype=np.int64)
        for itemset, count in l_prev.items():
            if len(itemset) == 1 and itemset[0] < n_items:
                support[itemset[0]] = count
        first = np.fromiter((c[0] for c in candidates), dtype=np.int64, count=len(candidates))
        second = np.fromiter((c[1] for c in candidates), dtype=np.int64, count=len(candidates))
        return np.minimum(support[first], support[second]).tolist()
    get = l_prev.get
    return [
        min(get(sub, 0) for sub in combinations(cand, k - 1)) for cand in candidates
    ]


# ---------------------------------------------------------------------------
# sequential counting
# ---------------------------------------------------------------------------

#: Transactions per vectorised chunk when scanning a whole database — the
#: chunk bounds the size of the code temporaries, nothing else.
_SCAN_CHUNK_TXNS = 65536


def count_candidates(
    db: TransactionDatabase, candidates: "list[Itemset]", k: int
) -> "dict[Itemset, int]":
    """Support counts of ``candidates`` over ``db`` via the kernels.

    Same results as the naive filtered-``combinations`` scan in
    :mod:`repro.mining.apriori`, by the parallel drivers' own path: one
    :class:`CountingKernel` (routing unused, so all zero), its
    occurrence codes chunk by chunk, one ``bincount`` over them.
    """
    n = len(candidates)
    routing = np.zeros(n, dtype=np.int64)
    kernel = CountingKernel(k, db.n_items, candidates, routing, routing)
    acc = np.zeros(n, dtype=np.int64)
    for start in range(0, len(db), _SCAN_CHUNK_TXNS):
        stop = min(len(db), start + _SCAN_CHUNK_TXNS)
        acc += np.bincount(kernel.occurrences(db, start, stop), minlength=n)
    return dict(zip(candidates, acc.tolist()))
