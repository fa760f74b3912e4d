"""Itemset representation and hashing.

An itemset is a tuple of strictly increasing non-negative item ids.  The
paper stores each candidate as a 24-byte record ("each candidate itemset
occupies 24 bytes (structure area + data area)"); :data:`ITEMSET_BYTES`
preserves that constant so memory-limit arithmetic matches the paper's.

Hashing must be deterministic across processes and runs (the HPA
algorithm requires every node to map an itemset to the same destination),
so we use an explicit FNV-1a-style mix rather than Python's builtin
``hash``.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from repro.errors import MiningError

__all__ = [
    "Itemset",
    "ITEMSET_BYTES",
    "make_itemset",
    "itemset_hash",
    "itemset_hashes",
    "itemset_rows",
    "k_subsets",
    "is_valid_itemset",
]

Itemset = Tuple[int, ...]

#: Bytes occupied by one candidate itemset record (paper §5.1).
ITEMSET_BYTES = 24

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def make_itemset(items: Iterable[int]) -> Itemset:
    """Normalise ``items`` into a canonical itemset tuple.

    Duplicates are rejected rather than silently dropped — a duplicate id
    in mining code is always a logic error.
    """
    t = tuple(sorted(int(i) for i in items))
    if not t:
        raise MiningError("empty itemset")
    for a, b in zip(t, t[1:]):
        if a == b:
            raise MiningError(f"duplicate item {a} in itemset {t}")
    if t[0] < 0:
        raise MiningError(f"negative item id in itemset {t}")
    return t


def is_valid_itemset(itemset: Sequence[int]) -> bool:
    """True if ``itemset`` is sorted, duplicate-free, and non-empty."""
    if len(itemset) == 0:
        return False
    prev = -1
    for x in itemset:
        if x <= prev:
            return False
        prev = x
    return True


def itemset_hash(itemset: Sequence[int]) -> int:
    """Deterministic 64-bit hash of an itemset (FNV-1a over item ids)."""
    h = _FNV_OFFSET
    for item in itemset:
        h ^= (item & _MASK64)
        h = (h * _FNV_PRIME) & _MASK64
        # extra avalanche: fold high bits down so modulo partitioning is fair
        h ^= h >> 29
    return h


def itemset_rows(itemsets: Sequence[Itemset], k: int) -> np.ndarray:
    """``k``-itemsets as an ``int64[n, k]`` array, one per row (``n`` may be 0)."""
    n = len(itemsets)
    return np.fromiter(chain.from_iterable(itemsets), np.int64, n * k).reshape(n, k)


def itemset_hashes(itemsets: np.ndarray) -> np.ndarray:
    """:func:`itemset_hash` of every row of an ``[n, k]`` item-id array."""
    h = np.full(len(itemsets), _FNV_OFFSET, dtype=np.uint64)
    for column in itemsets.T.astype(np.uint64):
        h ^= column
        h *= np.uint64(_FNV_PRIME)  # wraps mod 2**64, the scalar's mask
        h ^= h >> np.uint64(29)
    return h


def k_subsets(items: Sequence[int], k: int) -> Iterator[Itemset]:
    """All size-``k`` subsets of a sorted transaction, in lexical order."""
    if k <= 0:
        raise MiningError(f"k must be positive, got {k}")
    return combinations(tuple(int(i) for i in items), k)
