"""The per-itemset apriori-gen, kept as the oracle.

These are the ``join`` / ``prune`` bodies ``repro.mining.candidates``
shipped before it moved to row arrays, verbatim: set and dict operations
on tuples, one itemset at a time.  ``test_candidates.py`` property-tests
the array version against them.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import Iterable, Sequence

from repro.errors import MiningError
from repro.mining.itemsets import Itemset


def join(large_prev: Sequence[Itemset], k: int) -> list[Itemset]:
    """Join step: merge pairs of (k-1)-itemsets sharing a (k-2)-prefix."""
    if k < 2:
        raise MiningError(f"join requires k >= 2, got {k}")
    # Group by common prefix; within a group every pair joins.
    by_prefix: dict[Itemset, list[int]] = {}
    for itemset in large_prev:
        if len(itemset) != k - 1:
            raise MiningError(
                f"join for k={k} needs ({k-1})-itemsets, got {itemset}"
            )
        by_prefix.setdefault(itemset[:-1], []).append(itemset[-1])

    out: list[Itemset] = []
    for prefix, lasts in by_prefix.items():
        lasts.sort()
        for i in range(len(lasts)):
            for j in range(i + 1, len(lasts)):
                out.append(prefix + (lasts[i], lasts[j]))
    out.sort()
    return out


def prune(candidates: Iterable[Itemset], large_prev: Iterable[Itemset], k: int) -> list[Itemset]:
    """Prune step: drop candidates with an infrequent (k-1)-subset.

    ``candidates`` must come from :func:`join` (as in apriori-gen): the
    two join parents of each candidate are then members of
    ``large_prev`` by construction and are skipped, not re-checked.
    """
    prev_set = set(large_prev)
    out: list[Itemset] = []
    for cand in candidates:
        # combinations(cand, k-1) yields the drop-last and
        # drop-second-to-last subsets first — exactly the two join
        # parents, frequent by construction — so the check starts at the
        # third subset.
        if all(sub in prev_set for sub in islice(combinations(cand, k - 1), 2, None)):
            out.append(cand)
    return out


def generate_candidates(large_prev: Sequence[Itemset], k: int) -> list[Itemset]:
    """Full apriori-gen: join then prune.

    For ``k == 2`` the prune step is a no-op (every 1-subset of a joined
    pair is large by construction), matching the observation that C2 is
    simply all pairs of large 1-items — the explosion the paper's
    remote-memory mechanism exists to absorb.
    """
    joined = join(large_prev, k)
    if k == 2:
        return joined
    return prune(joined, large_prev, k)
