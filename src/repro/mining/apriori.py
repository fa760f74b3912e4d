"""Sequential Apriori — the reference miner.

Used (a) to validate the parallel HPA implementation (both must produce
identical large itemsets), and (b) to reproduce Table 2's per-pass
candidate/large counts.  Counting is optimised with NumPy for pass 1 and
candidate-filtered subset enumeration for later passes, but the point of
this module is correctness, not speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

import numpy as np

from repro.datagen.corpus import TransactionDatabase
from repro.errors import MiningError
from repro.mining.candidates import generate_candidates
from repro.mining.itemsets import Itemset, itemset_rows, itemset_tuples

__all__ = ["AprioriResult", "PassProfile", "apriori"]


@dataclass(frozen=True)
class PassProfile:
    """Per-pass bookkeeping row, matching the paper's Table 2 columns."""

    k: int
    n_candidates: int
    n_large: int


@dataclass
class AprioriResult:
    """Outcome of a full Apriori run."""

    minsup_count: int
    large_itemsets: dict[Itemset, int]  # itemset -> support count
    passes: list[PassProfile] = field(default_factory=list)

    def large_of_size(self, k: int) -> dict[Itemset, int]:
        """The large k-itemsets with their supports."""
        return {i: c for i, c in self.large_itemsets.items() if len(i) == k}

    def max_k(self) -> int:
        """Size of the biggest large itemset found (0 if none)."""
        return max((len(i) for i in self.large_itemsets), default=0)

    def table2_rows(self) -> list[tuple[int, Optional[int], int]]:
        """Rows shaped like the paper's Table 2: (pass, C_k, L_k).

        Pass 1 has no candidate count (the paper leaves that cell empty —
        every item is implicitly a candidate).
        """
        rows: list[tuple[int, Optional[int], int]] = []
        for p in self.passes:
            rows.append((p.k, None if p.k == 1 else p.n_candidates, p.n_large))
        return rows


def _count_pass1(db: TransactionDatabase, minsup_count: int) -> dict[Itemset, int]:
    counts = db.item_counts()
    large = np.nonzero(counts >= minsup_count)[0]
    return {(int(i),): int(counts[i]) for i in large}


def _count_candidates(
    db: TransactionDatabase, candidates: np.ndarray
) -> dict[Itemset, int]:
    """Count support of the candidate rows by scanning the database once."""
    k = candidates.shape[1]
    counts: dict[Itemset, int] = dict.fromkeys(itemset_tuples(candidates), 0)
    # Restrict each transaction to items that appear in any candidate
    # before enumerating subsets - the standard pruning that makes the
    # scan tractable.
    in_candidates = np.zeros(db.n_items, dtype=bool)
    in_candidates[candidates.ravel()] = True
    for txn in db:
        filtered = txn[in_candidates[txn]]
        if filtered.size < k:
            continue
        for subset in combinations(filtered.tolist(), k):
            if subset in counts:
                counts[subset] += 1
    return counts


def apriori(db: TransactionDatabase, minsup: float, max_k: int = 0) -> AprioriResult:
    """Mine all large itemsets with relative support >= ``minsup``.

    ``minsup`` is a fraction of the database size (the paper quotes
    percentages, e.g. "minimum support 0.7" meaning 0.7 %: pass
    ``0.007``).  ``max_k`` optionally caps the pass count (0 = unlimited).
    Counting is a flat-dict scan that shares no code with
    :mod:`repro.mining.kernels`, so it can check them.  The iteration
    stops when a pass yields no large (or no candidate) itemsets, exactly
    as described in §2.1.
    """
    if not 0.0 < minsup <= 1.0:
        raise MiningError(f"minsup must be in (0, 1], got {minsup}")
    if len(db) == 0:
        raise MiningError("cannot mine an empty database")

    minsup_count = max(1, int(np.ceil(minsup * len(db))))
    result = AprioriResult(minsup_count=minsup_count, large_itemsets={})

    # Pass 1.
    large_prev = _count_pass1(db, minsup_count)
    result.large_itemsets.update(large_prev)
    result.passes.append(
        PassProfile(k=1, n_candidates=db.n_items, n_large=len(large_prev))
    )

    k = 2
    while large_prev and (max_k <= 0 or k <= max_k):
        counts = _count_candidates(
            db, generate_candidates(itemset_rows(list(large_prev), k - 1), k)
        )
        large_now = {i: c for i, c in counts.items() if c >= minsup_count}
        result.passes.append(
            PassProfile(k=k, n_candidates=len(counts), n_large=len(large_now))
        )
        result.large_itemsets.update(large_now)
        if not counts:
            break
        large_prev = large_now
        k += 1

    return result
