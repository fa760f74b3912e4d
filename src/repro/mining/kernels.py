"""Vectorized counting kernels and the per-pass occurrence-code index.

Counting is the paper's whole motivation: millions of tiny candidate
occurrences are generated, hash-routed, and counted per transaction
(§2.2/§3.3).  In this reproduction that phase is also the dominant
*host wall-clock* cost — executed per occurrence it is a pure-Python
``combinations`` loop with an FNV hash per occurrence for routing (that
implementation is kept as the oracle in ``tests/mining/reference_hpa.py``).
Here every occurrence of a pass is one ``int64`` **code**, and a block of
transactions becomes one code array that is routed, shipped and counted
as an array:

1. **Pair codes (k = 2)** — all 2-subsets of every transaction in a
   disk block are produced by closed-form triangular index math over the
   CSR arrays (:func:`ragged_pairs`) and encoded as dense
   ``a * n_items + b`` codes; routing is two lookup arrays over the code
   space.
2. **Candidate-index codes (k >= 3, or k = 2 over an item universe too
   large for the dense tables)** — C_k organised by its (k-1)-prefix
   (:class:`PrefixIndex`, the join structure apriori-gen already
   produces).  Subset generation walks transaction items against the
   index and emits exactly the candidates contained in the transaction,
   in the lexicographic order the naive ``combinations``-then-prune loop
   produces, without enumerating C(|txn|, k) subsets; the code is the
   candidate's position in C_k, and routing is the pass's aligned
   ``lines``/``owners`` arrays themselves.

:class:`CountingKernel` hides which of the two a pass uses.  Routing is
hashed once per pass (one ``HashPartitioner.lines_of`` call over the
candidates as an ``int64[n, k]`` array), so neither placement nor
counting ever hashes per itemset.

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
    "encode_pairs",
    "item_mask",
    "eld_scores",
    "count_candidates",
]

#: Owner sentinel for HPA-ELD duplicated candidates (counted locally on
#: every node, never routed).
OWNER_DUPLICATED = -1

#: Owner sentinel for "this pair is not a candidate" in the dense lookup
#: tables.  Hitting it during routing means sender-side pruning is broken
#: (the per-occurrence walk would raise the same error at count time).
_OWNER_NONE = -9

#: Above this item-universe size the dense ``n_items**2`` pair lookup
#: arrays stop being worth their memory; k = 2 then runs on
#: candidate-index codes like every k >= 3 pass.
DENSE_PAIR_LIMIT = 2048


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


def encode_pairs(first: np.ndarray, second: np.ndarray, n_items: int) -> np.ndarray:
    """Dense ``a * n_items + b`` codes for item pairs."""
    return first.astype(np.int64) * n_items + second.astype(np.int64)


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
    *code*: the dense ``a * n_items + b`` pair code when :attr:`dense`,
    otherwise the candidate's index into C_k.  Which of the two is in
    use is private to this class — drivers only generate
    (:meth:`occurrences`), route (:meth:`owners_of`, :meth:`lines_of`),
    decode and fold codes.  All nodes share one instance — the structures
    are read-only during counting.
    """

    def __init__(
        self,
        k: int,
        n_items: int,
        candidates: Sequence[Itemset],
        lines: np.ndarray,
        owners: np.ndarray,
        dense_limit: int = DENSE_PAIR_LIMIT,
    ) -> None:
        self.k = k
        self.n_items = n_items
        self.dense = k == 2 and n_items <= dense_limit
        cand = itemset_rows(candidates, k)
        #: Items occurring in any candidate — transactions are restricted
        #: to this mask before subset generation (for k == 2 it is the
        #: L1 mask: C_2 pairs every large item with every other).
        self.mask = item_mask(cand, n_items)
        if self.dense:
            size = n_items * n_items
            codes = cand[:, 0] * n_items + cand[:, 1]
            self._owner = np.full(size, _OWNER_NONE, dtype=np.int32)
            self._owner[codes] = owners
            self._line = np.full(size, -1, dtype=np.int32)
            self._line[codes] = lines
        else:
            self._owner = owners
            self._line = lines
            self._candidates = candidates
            self._code = {c: i for i, c in enumerate(candidates)}
            self._prefix = PrefixIndex(candidates, k)

    # -- occurrence generation ----------------------------------------------

    def pair_block(
        self, items: np.ndarray, rel_offsets: np.ndarray, l1_mask: np.ndarray
    ) -> np.ndarray:
        """Pair codes for one CSR block, in naive emission order."""
        filtered, lengths = filter_block(items, rel_offsets, l1_mask)
        first, second = ragged_pairs(filtered, lengths)
        return encode_pairs(first, second, self.n_items)

    def occurrences(self, part: TransactionDatabase, i: int, j: int) -> np.ndarray:
        """Codes of every candidate occurrence in transactions
        ``[i, j)`` of ``part``, in the order the naive
        ``combinations``-then-prune walk emits them."""
        offsets = part.offsets
        if self.dense:
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
        owners = self._owner[codes]
        if owners.size and int(owners.min()) == _OWNER_NONE:
            bad = int(codes[np.argmin(owners)])
            raise MiningError(
                f"pair {divmod(bad, self.n_items)} generated by the kernel "
                f"is not a candidate — routing is broken"
            )
        return owners

    def lines_of(self, codes: np.ndarray) -> np.ndarray:
        """Hash line of every code."""
        return self._line[codes]

    def decode(self, codes: np.ndarray) -> "list[Itemset]":
        """Materialise itemset tuples (Python ints) from codes."""
        if self.dense:
            first, second = divmod(codes, self.n_items)
            return list(zip(first.tolist(), second.tolist()))
        candidates = self._candidates
        return [candidates[i] for i in codes.tolist()]

    def itemset_of(self, code: int) -> Itemset:
        """Single-code :meth:`decode` (the per-fault slow path)."""
        return divmod(code, self.n_items) if self.dense else self._candidates[code]

    # -- counting into a swap manager -----------------------------------------

    def count_resident_span(
        self, mgr: SwapManager, codes: np.ndarray, lines: np.ndarray
    ) -> None:
        """Count one run of occurrences on all-resident lines into ``mgr``.

        Valid only when every line in ``lines`` is resident and the
        caller yields to no simulation event across the run (see
        :meth:`SwapManager.count_resident_batch` for why that makes the
        batch indistinguishable from the per-occurrence sequence).  On
        first use the manager gets a :class:`SpanIndex` over every code
        this node owns (all codes of one manager share one owner — the
        routing that sent them here), and counts accumulate vectorised.
        """
        if codes.size == 0:
            return
        if mgr.span_index is None:
            owner = int(self._owner[codes[0]])
            owned = np.flatnonzero(self._owner == owner).astype(np.int64)
            mgr.span_index = SpanIndex(
                owned,
                self.decode(owned),
                self._line[owned].astype(np.int64),
                self.n_items,
            )
        mgr.count_span_codes(codes, lines)

    def tally(
        self, code_arrays: "list[np.ndarray]"
    ) -> "tuple[list[Itemset], list[int], list[int]]":
        """Collapse accumulated code arrays to one aligned ``(itemsets,
        lines, counts)`` entry per distinct candidate."""
        if not code_arrays:
            return [], [], []
        uniq, counts = np.unique(np.concatenate(code_arrays), return_counts=True)
        return self.decode(uniq), self.lines_of(uniq).tolist(), counts.tolist()

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
# sequential counting (apriori's alternative backend)
# ---------------------------------------------------------------------------

#: Transactions per vectorised chunk when scanning a whole database — the
#: chunk bounds the size of the pair-code temporaries, nothing else.
_SCAN_CHUNK_TXNS = 65536


def count_candidates(
    db: TransactionDatabase, candidates: "list[Itemset]", k: int
) -> "dict[Itemset, int]":
    """Support counts of ``candidates`` over ``db`` via the kernels.

    Drop-in equivalent of the naive filtered-``combinations`` scan in
    :mod:`repro.mining.apriori` (identical results): the k == 2 case is
    one ``bincount`` over dense pair codes, k >= 3 walks the prefix
    index.
    """
    counts: dict[Itemset, int] = dict.fromkeys(candidates, 0)
    if not candidates or len(db) == 0:
        return counts
    n_items = db.n_items
    if k == 2 and n_items <= DENSE_PAIR_LIMIT:
        mask = item_mask(candidates, n_items)
        acc = np.zeros(n_items * n_items, dtype=np.int64)
        offsets = db.offsets
        n = len(db)
        for start in range(0, n, _SCAN_CHUNK_TXNS):
            stop = min(n, start + _SCAN_CHUNK_TXNS)
            block = db.items[offsets[start] : offsets[stop]]
            rel = offsets[start : stop + 1] - offsets[start]
            filtered, lengths = filter_block(block, rel, mask)
            first, second = ragged_pairs(filtered, lengths)
            if first.size:
                codes = encode_pairs(first, second, n_items)
                acc += np.bincount(codes, minlength=n_items * n_items)
        for cand in candidates:
            counts[cand] = int(acc[cand[0] * n_items + cand[1]])
        return counts
    mask = item_mask(candidates, n_items)
    if k == 2:
        members = set(candidates)
        for txn in db:
            filtered = txn[mask[txn]]
            if filtered.size < 2:
                continue
            for pair in combinations(filtered.tolist(), 2):
                if pair in members:
                    counts[pair] += 1
        return counts
    index = PrefixIndex(candidates, k)
    for txn in db:
        filtered = txn[mask[txn]]
        if filtered.size < k:
            continue
        for cand in index.subsets_of(filtered.tolist()):
            counts[cand] += 1
    return counts
