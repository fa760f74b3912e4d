"""The classic Apriori hash tree (Agrawal & Srikant, VLDB '94 §2.1.2).

Candidates are stored in a tree whose interior nodes hash on successive
itemset positions and whose leaves hold small candidate buckets; support
counting walks the tree with each transaction, visiting only subtrees
reachable from the transaction's items.  This is the structure the SC'96
companion material tunes ("hash tree balancing"), and an alternative to
the flat hash-line table used by the cluster miner — exact same counts,
different constant factors.

It is not part of this paper's design, so it lives here rather than in
``src/``: an independent third counting implementation the
cross-validation and structure tests compare ``apriori`` and the
kernels against (it shares no code with either).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.datagen.corpus import TransactionDatabase
from repro.errors import MiningError
from repro.mining.itemsets import Itemset

__all__ = ["HashTree", "count_with_hash_tree"]


class _Node:
    """Interior node (children by hash) or leaf (candidate bucket)."""

    __slots__ = ("children", "bucket", "depth")

    def __init__(self, depth: int) -> None:
        self.children: Optional[dict[int, _Node]] = None
        self.bucket: Optional[list[Itemset]] = []
        self.depth = depth

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class HashTree:
    """Hash tree over k-itemsets with configurable fanout and leaf size."""

    def __init__(self, k: int, fanout: int = 8, leaf_capacity: int = 16) -> None:
        if k <= 0:
            raise MiningError(f"k must be positive, got {k}")
        if fanout < 2:
            raise MiningError(f"fanout must be >= 2, got {fanout}")
        if leaf_capacity < 1:
            raise MiningError(f"leaf capacity must be >= 1, got {leaf_capacity}")
        self.k = k
        self.fanout = fanout
        self.leaf_capacity = leaf_capacity
        self._root = _Node(depth=0)
        self.counts: dict[Itemset, int] = {}
        self.n_candidates = 0
        self.n_interior = 0
        self.n_leaves = 1

    # -- construction ---------------------------------------------------------

    def insert(self, itemset: Itemset) -> None:
        """Add one candidate k-itemset."""
        if len(itemset) != self.k:
            raise MiningError(
                f"tree holds {self.k}-itemsets, got {itemset}"
            )
        if itemset in self.counts:
            raise MiningError(f"duplicate candidate {itemset}")
        self.counts[itemset] = 0
        self.n_candidates += 1
        node = self._root
        while not node.is_leaf:
            node = self._child(node, itemset[node.depth])
        assert node.bucket is not None
        node.bucket.append(itemset)
        # Split overfull leaves while positions remain to hash on.
        while (
            node.bucket is not None
            and len(node.bucket) > self.leaf_capacity
            and node.depth < self.k
        ):
            node = self._split(node)

    def _child(self, node: _Node, item: int) -> _Node:
        assert node.children is not None
        slot = item % self.fanout
        if slot not in node.children:
            node.children[slot] = _Node(depth=node.depth + 1)
            self.n_leaves += 1
        return node.children[slot]

    def _split(self, leaf: _Node) -> _Node:
        """Convert a leaf to an interior node, reinserting its bucket.

        Returns the child where the most recently inserted itemset
        landed (the split loop may need to split that one too).
        """
        bucket = leaf.bucket
        assert bucket is not None
        leaf.children = {}
        leaf.bucket = None
        self.n_interior += 1
        self.n_leaves -= 1
        last_child: Optional[_Node] = None
        for itemset in bucket:
            child = self._child(leaf, itemset[leaf.depth])
            assert child.bucket is not None
            child.bucket.append(itemset)
            last_child = child
        assert last_child is not None
        return last_child

    # -- counting ---------------------------------------------------------------

    def count_transaction(self, txn: Sequence[int]) -> int:
        """Count every candidate subset of ``txn``; returns hits."""
        items = list(txn)
        if len(items) < self.k:
            return 0
        return self._walk(self._root, items, 0, [])

    def _walk(self, node: _Node, items: list[int], start: int, prefix: list[int]) -> int:
        hits = 0
        if node.is_leaf:
            assert node.bucket is not None
            # Check each bucketed candidate against the remaining items.
            remaining = items[start:] if len(prefix) < self.k else []
            txn_set = set(items)
            for cand in node.bucket:
                # prefix is consistent by construction; verify the whole
                # candidate against the transaction.
                if all(i in txn_set for i in cand):
                    self.counts[cand] += 1
                    hits += 1
            return hits
        # Interior: try every remaining item as the next position, but at
        # most once per hash slot and only while enough items remain.
        needed = self.k - node.depth
        seen_slots: set[int] = set()
        assert node.children is not None
        for idx in range(start, len(items) - needed + 1):
            item = items[idx]
            slot = item % self.fanout
            if slot in seen_slots:
                continue
            seen_slots.add(slot)
            child = node.children.get(slot)
            if child is not None:
                prefix.append(item)
                hits += self._walk(child, items, idx + 1, prefix)
                prefix.pop()
        return hits

    def __len__(self) -> int:
        return self.n_candidates


def count_with_hash_tree(
    db: TransactionDatabase, candidates: Iterable[Itemset], k: int
) -> dict[Itemset, int]:
    """Count candidate supports by one database scan through a hash tree
    (equivalent to dictionary counting)."""
    tree = HashTree(k)
    for cand in candidates:
        tree.insert(cand)
    if not len(tree):
        return {}
    for txn in db:
        tree.count_transaction(txn.tolist())
    return dict(tree.counts)
