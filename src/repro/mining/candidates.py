"""Apriori candidate generation: the join and prune steps.

``generate_candidates(prev_rows, k)`` implements the classic apriori-gen
of Agrawal & Srikant: join L_{k-1} with itself on the first k-2 items,
then prune any candidate with a (k-1)-subset outside L_{k-1}.

Itemsets are ``int64[n, width]`` row arrays of item ids, one itemset per
row, on the way in and on the way out: C_k comes back lex-ordered, so a
candidate's row number is its code for the rest of the pass.  No step
builds a tuple per candidate; the drivers make tuples only for the final
``RunResult.large_itemsets``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MiningError

__all__ = ["generate_candidates", "row_index"]


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


def row_index(rows: np.ndarray, queries: "list[np.ndarray]") -> "list[np.ndarray]":
    """Position in ``rows`` of every row of each query array, -1 where it
    is absent: one sort of ``rows``, one binary search per query."""
    if not len(rows):
        return [np.full(len(query), -1, dtype=np.int64) for query in queries]
    keys = _row_keys(rows)
    order = np.argsort(keys)
    ordered = keys[order]
    found = []
    for query in queries:
        q = _row_keys(query)
        pos = np.minimum(np.searchsorted(ordered, q), len(rows) - 1)
        found.append(np.where(ordered[pos] == q, order[pos], -1))
    return found


def _unpruned(cand: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Prune step on rows, as a keep-mask over ``cand``.  Dropping
    position k-1 or k-2 gives back the two join parents, members of
    ``prev`` by construction; only the k-2 subsets that drop an earlier
    position are looked up."""
    subsets = [np.delete(cand, drop, axis=1) for drop in range(cand.shape[1] - 2)]
    keep = np.ones(len(cand), dtype=bool)
    for idx in row_index(prev, subsets):
        keep &= idx >= 0
    return keep


def generate_candidates(prev_rows: "np.ndarray | list", k: int) -> np.ndarray:
    """Full apriori-gen over L_{k-1} as ``(k-1)``-wide rows (any order):
    C_k as lex-ordered ``int64[n, k]`` rows.

    For ``k == 2`` the prune step is a no-op (every 1-subset of a joined
    pair is large by construction), matching the observation that C2 is
    simply all pairs of large 1-items — the explosion the paper's
    remote-memory mechanism exists to absorb.
    """
    if k < 2:
        raise MiningError(f"apriori-gen requires k >= 2, got {k}")
    try:
        prev = np.asarray(prev_rows, dtype=np.int64)
    except ValueError as exc:  # ragged: itemsets of mixed widths
        raise MiningError(f"apriori-gen for k={k} needs {k - 1}-wide rows: {exc}") from exc
    if prev.size == 0:
        prev = prev.reshape(0, k - 1)
    if prev.ndim != 2 or prev.shape[1] != k - 1:
        raise MiningError(
            f"apriori-gen for k={k} needs {k - 1}-wide rows, got shape {prev.shape}"
        )
    cand = _join_rows(prev)
    if k > 2:
        cand = cand[_unpruned(cand, prev)]
    return cand
