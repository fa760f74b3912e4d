"""Apriori candidate generation: the join and prune steps.

``generate_candidates(large_k_minus_1, k)`` implements the classic
apriori-gen of Agrawal & Srikant: join L_{k-1} with itself on the first
k-2 items, then prune any candidate with a (k-1)-subset outside L_{k-1}.

Both steps run on ``int64[n, width]`` row arrays (one itemset per row)
of item *ranks* — positions in the sorted distinct items of L_{k-1}, an
order-preserving relabelling, so the join emits lexicographic order for
any item-id width.  Tuples exist only at the function boundaries: L_k
is a tuple-keyed dict, and the drivers turn C_k back into rows at once.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from repro.errors import MiningError
from repro.mining.itemsets import Itemset, itemset_rows

__all__ = ["generate_candidates", "prune", "join"]


def _rows(itemsets: Sequence[Itemset], width: int, k: int) -> np.ndarray:
    """``itemsets`` as an ``int64[n, width]`` array (``n`` may be 0)."""
    if k < 2:
        raise MiningError(f"join requires k >= 2, got {k}")
    for itemset in itemsets:
        if len(itemset) != width:
            raise MiningError(
                f"apriori-gen for k={k} needs {width}-itemsets, got {itemset}"
            )
    return itemset_rows(itemsets, width)


def _ranked(large_prev: Sequence[Itemset], k: int) -> "tuple[np.ndarray, np.ndarray]":
    """L_{k-1} as rows of item ranks, and the ranked items as objects."""
    prev = _rows(large_prev, k - 1, k)
    items, ranks = np.unique(prev, return_inverse=True)
    return items.astype(object), ranks.reshape(prev.shape)


def _tuples(items: np.ndarray, rows: np.ndarray) -> list[Itemset]:
    """Rank rows back as item tuples.  Taking from the object array
    shares one int per distinct item; ``tolist`` on item ids would
    allocate one per cell, megabytes that live as long as a C2 does."""
    return list(zip(*(items[col].tolist() for col in rows.T)))


def _join_rows(prev: np.ndarray) -> np.ndarray:
    """Join step on rows: every in-order pair of each prefix group."""
    n = len(prev)
    if n == 0:
        return np.empty((0, prev.shape[1] + 1), dtype=np.int64)
    # Lexicographic row order puts each (k-2)-prefix group in one run with
    # ascending last items, so the expansion below is already sorted.
    prev = prev[np.lexsort(prev.T[::-1])]
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = (prev[1:, :-1] != prev[:-1, :-1]).any(axis=1)
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], n)
    # Row i pairs with every later row of its group.
    partners = np.repeat(ends, ends - starts) - np.arange(n) - 1
    first = np.repeat(np.arange(n), partners)
    run_start = np.repeat(np.cumsum(partners) - partners, partners)
    second = first + 1 + (np.arange(first.size) - run_start)
    return np.concatenate((prev[first], prev[second, -1:]), axis=1)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque scalar per row, equal iff the rows are (any width, any
    item-id magnitude — a byte view, not a positional code)."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


def _unpruned(cand: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Prune step on rows, as a keep-mask over ``cand``.  Dropping
    position k-1 or k-2 gives back the two join parents, members of
    ``prev`` by construction; only the k-2 subsets that drop an earlier
    position are looked up."""
    keep = np.ones(len(cand), dtype=bool)
    if len(cand):
        prev_keys = _row_keys(prev)
        for drop in range(cand.shape[1] - 2):
            keep &= np.isin(_row_keys(np.delete(cand, drop, axis=1)), prev_keys)
    return keep


def join(large_prev: Sequence[Itemset], k: int) -> list[Itemset]:
    """Join step: merge pairs of (k-1)-itemsets sharing a (k-2)-prefix."""
    items, prev = _ranked(large_prev, k)
    return _tuples(items, _join_rows(prev))


def prune(candidates: Iterable[Itemset], large_prev: Iterable[Itemset], k: int) -> list[Itemset]:
    """Prune step: drop candidates with an infrequent (k-1)-subset.

    ``candidates`` must come from :func:`join` (as in apriori-gen): the
    two join parents of each candidate are then members of
    ``large_prev`` by construction and are skipped, not re-checked.
    """
    candidates = list(candidates)
    keep = _unpruned(_rows(candidates, k, k), _rows(list(large_prev), k - 1, k))
    return list(compress(candidates, keep.tolist()))


def generate_candidates(large_prev: Sequence[Itemset], k: int) -> list[Itemset]:
    """Full apriori-gen: join then prune, in lexicographic order.

    For ``k == 2`` the prune step is a no-op (every 1-subset of a joined
    pair is large by construction), matching the observation that C2 is
    simply all pairs of large 1-items — the explosion the paper's
    remote-memory mechanism exists to absorb.
    """
    items, prev = _ranked(large_prev, k)
    cand = _join_rows(prev)
    if k > 2:
        cand = cand[_unpruned(cand, prev)]
    return _tuples(items, cand)
