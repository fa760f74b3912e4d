"""Vectorized counting kernels and the per-pass candidate routing index.

Pass 2 of HPA is the paper's whole motivation: millions of tiny
candidate occurrences are generated, hash-routed, and counted per
transaction (§2.2/§3.3).  In this reproduction that phase is also the
dominant *host wall-clock* cost — executed naively it is a pure-Python
``combinations`` loop with a per-occurrence FNV hash for routing.  This
module replaces that hot path with three shared kernels:

1. **Pair kernel (k = 2)** — all 2-subsets of every transaction in a
   disk block are produced by closed-form triangular index math over the
   CSR arrays (:func:`ragged_pairs`), encoded as dense ``a * n_items + b``
   codes, and routed through precomputed lookup arrays.  Counts are
   accumulated with ``np.bincount`` and applied in bulk.
2. **Candidate prefix index (k >= 3)** — C_k organised by its
   (k-1)-prefix (the join structure apriori-gen already produces).
   Subset generation walks transaction items against the index and emits
   exactly the candidates contained in the transaction, in the same
   lexicographic order the naive ``combinations``-then-prune loop
   produces, without enumerating C(|txn|, k) subsets.
3. **Routing table** — ``itemset -> (line_id, owner)`` for the whole
   pass, hashed by one ``HashPartitioner.lines_of`` call over the
   candidates as an ``int64[n, k]`` array; the lookup tables here are
   filled from the aligned ``lines``/``owners`` arrays, so neither
   placement nor counting ever hashes per itemset.

Everything here is *host-side* optimisation only: the kernels must not
change simulated costs (CPU seconds charged, message counts and sizes,
pagefault behaviour) or mined results.  The drivers therefore consume
them in two regimes, for every k: when a node has **no pager**,
occurrence order cannot influence the virtual clock and local counting
is accumulated and folded in bulk; with a pager, the kernels still
precompute generation and routing but the per-occurrence order is
preserved so LRU touches and faults replay bit-identically.
:class:`OwnerStreams` reproduces the naive sender's per-destination
buffer-fill boundaries exactly, so message counts, payload contents, and
send *order* are unchanged.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Optional, Sequence

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
#: (the naive path would raise the same error at count time).
_OWNER_NONE = -9

#: Above this item-universe size the dense ``n_items**2`` pair lookup
#: arrays stop being worth their memory; the kernel falls back to the
#: dict-based route table.
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
    ) -> "list[tuple[int, np.ndarray]]":
        """Append one block's remote stream; return due flushes in order.

        ``codes``/``owners`` are aligned arrays of the block's *remote*
        occurrences in emission order.  Returns ``(dest, payload_codes)``
        pairs, each payload exactly ``items_per_msg`` long, ordered as
        the naive per-occurrence sender would have posted them.
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
                # The new occurrence that completed this chunk fixes the
                # flush's position in the global emission order.
                pos = int(idx[(t + 1) * ipm - fill - 1])
                events.append((pos, b, stream[t * ipm : (t + 1) * ipm]))
            self._pending[b] = stream[n_flush * ipm :]
        events.sort(key=lambda ev: ev[0])
        return [(b, payload) for _, b, payload in events]

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
    """One pass's shared counting kernel: routing plus subset generation.

    Built once per pass from the candidate list and its aligned routing
    arrays — ``lines[i]``/``owners[i]`` are candidate ``i``'s hash line
    and owning node (owner :data:`OWNER_DUPLICATED` with line -1 marks an
    ELD-duplicated candidate; NPA, where every candidate is local, passes
    all-zero owners).  All nodes share one instance — the structures are
    read-only during counting.
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
        #: itemset -> (line, owner), for the non-dense paths.
        self.route: dict[Itemset, tuple[int, int]] = {}
        self.prefix: Optional[PrefixIndex] = None
        self.pair_owner: Optional[np.ndarray] = None
        self.pair_line: Optional[np.ndarray] = None
        cand = itemset_rows(candidates, k)
        if self.dense:
            size = n_items * n_items
            codes = cand[:, 0] * n_items + cand[:, 1]
            self.pair_owner = np.full(size, _OWNER_NONE, dtype=np.int32)
            self.pair_owner[codes] = owners
            self.pair_line = np.full(size, -1, dtype=np.int32)
            self.pair_line[codes] = lines
        else:
            self.route = dict(zip(candidates, zip(lines.tolist(), owners.tolist())))
            if k >= 3:
                self.prefix = PrefixIndex(candidates, k)
        #: Items occurring in any candidate — transactions are restricted
        #: to this mask before subset generation (k >= 3 path).
        self.mask = item_mask(cand, n_items)
        #: code -> itemset tuple, filled on demand (candidate codes only,
        #: so this stays small and saturates within the first few blocks).
        self._pair_cache: dict[int, Itemset] = {}

    # -- k == 2 dense path --------------------------------------------------

    def pair_block(
        self, items: np.ndarray, rel_offsets: np.ndarray, l1_mask: np.ndarray
    ) -> np.ndarray:
        """Pair codes for one CSR block, in naive emission order."""
        filtered, lengths = filter_block(items, rel_offsets, l1_mask)
        first, second = ragged_pairs(filtered, lengths)
        return encode_pairs(first, second, self.n_items)

    def owners_of(self, codes: np.ndarray) -> np.ndarray:
        """Owner of every pair code (``OWNER_DUPLICATED`` for ELD)."""
        assert self.pair_owner is not None
        owners = self.pair_owner[codes]
        if owners.size and int(owners.min()) == _OWNER_NONE:
            bad = int(codes[np.argmin(owners)])
            raise MiningError(
                f"pair {divmod(bad, self.n_items)} generated by the kernel "
                f"is not a candidate — routing is broken"
            )
        return owners

    def lines_of(self, codes: np.ndarray) -> np.ndarray:
        """Hash line of every pair code."""
        assert self.pair_line is not None
        return self.pair_line[codes]

    def decode_pairs(self, codes: np.ndarray) -> "list[Itemset]":
        """Materialise pair tuples (Python ints) from codes."""
        first, second = divmod(codes, self.n_items)
        return list(zip(first.tolist(), second.tolist()))

    def pair_of(self, code: int) -> Itemset:
        """Cached single-code decode (hot on the pager-present paths)."""
        cached = self._pair_cache.get(code)
        if cached is None:
            cached = (code // self.n_items, code % self.n_items)
            self._pair_cache[code] = cached
        return cached

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
            assert self.pair_owner is not None
            mgr.span_index = self._build_span_index(int(self.pair_owner[codes[0]]))
        mgr.count_span_codes(codes, lines)

    def _build_span_index(self, owner: int) -> SpanIndex:
        """Sorted owned-code array + decoded fold targets for one node."""
        assert self.pair_owner is not None and self.pair_line is not None
        owned = np.flatnonzero(self.pair_owner == owner).astype(np.int64)
        return SpanIndex(
            owned,
            self.decode_pairs(owned),
            self.pair_line[owned].astype(np.int64),
            self.n_items,
        )

    # -- k >= 3 / sparse path -----------------------------------------------

    def subsets_of(self, txn: np.ndarray) -> "list[Itemset]":
        """Candidate subsets of one transaction, naive order.

        Used for k >= 3 (prefix-index walk) and for the k == 2 fallback
        when the item universe is too large for the dense tables.
        """
        filtered = txn[self.mask[txn]]
        if filtered.size < self.k:
            return []
        if self.k == 2:
            return list(combinations(filtered.tolist(), 2))
        assert self.prefix is not None
        return self.prefix.subsets_of(filtered.tolist())

    def route_of(self, itemset: Itemset) -> "tuple[int, int]":
        """(line, owner) of a candidate via the precomputed table."""
        if self.dense:
            code = itemset[0] * self.n_items + itemset[1]
            return int(self.pair_line[code]), int(self.pair_owner[code])
        return self.route[itemset]

    # -- bulk application -----------------------------------------------------

    def apply_local_pairs(
        self, mgr: SwapManager, code_arrays: "list[np.ndarray]"
    ) -> None:
        """Fold accumulated local pair codes into a swap manager.

        Only valid when the node has no pager (every line permanently
        resident): occurrence order then cannot influence the virtual
        clock, so counts collapse to one bulk increment per candidate.
        """
        if not code_arrays:
            return
        codes = np.concatenate(code_arrays)
        if codes.size == 0:
            return
        uniq, counts = np.unique(codes, return_counts=True)
        mgr.count_resident_bulk(
            self.decode_pairs(uniq), self.lines_of(uniq).tolist(), counts.tolist()
        )

    def apply_local_tally(self, mgr: SwapManager, tally: "Counter[Itemset]") -> None:
        """Fold accumulated local occurrences of the non-dense paths
        (same pager-less precondition as :meth:`apply_local_pairs`)."""
        if tally:
            route = self.route
            mgr.count_resident_bulk(
                list(tally), [route[c][0] for c in tally], list(tally.values())
            )

    def fold_dup_pairs(
        self, dup_counts: "dict[Itemset, int]", code_arrays: "list[np.ndarray]"
    ) -> None:
        """Fold accumulated ELD-duplicated pair codes into the per-node
        duplicated-candidate count dict."""
        if not code_arrays:
            return
        codes = np.concatenate(code_arrays)
        if codes.size == 0:
            return
        uniq, counts = np.unique(codes, return_counts=True)
        for itemset, n in zip(self.decode_pairs(uniq), counts.tolist()):
            dup_counts[itemset] += n


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
# sequential counting (apriori / hash-tree alternative backend)
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
