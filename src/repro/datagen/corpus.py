"""Transaction database container and partitioning.

Transactions are stored CSR-style (one flat ``items`` array plus an
``offsets`` array), which keeps pass-1 counting and per-transaction
iteration NumPy-fast while allowing cheap horizontal partitioning — the
paper splits the generated file round-robin across the application
nodes' local disks.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.errors import DataGenError

__all__ = ["TransactionDatabase"]


class TransactionDatabase:
    """An immutable set of basket transactions in CSR layout."""

    def __init__(self, items: np.ndarray, offsets: np.ndarray, n_items: int, name: str = "") -> None:
        items = np.asarray(items, dtype=np.int32)
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0:
            raise DataGenError("offsets must be 1-D, non-empty, and start at 0")
        if offsets[-1] != items.size:
            raise DataGenError(
                f"offsets end ({offsets[-1]}) must equal items length ({items.size})"
            )
        if np.any(np.diff(offsets) < 0):
            raise DataGenError("offsets must be non-decreasing")
        if items.size and (items.min() < 0 or items.max() >= n_items):
            raise DataGenError("item ids out of range")
        rising = np.diff(items) > 0
        starts = offsets[1:-1]  # a row's first item may be below its predecessor
        rising[starts[(starts > 0) & (starts < items.size)] - 1] = True
        if not rising.all():
            raise DataGenError("item ids must be strictly increasing within a transaction")
        self.items = items
        self.offsets = offsets
        self.n_items = int(n_items)
        self.name = name

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_arrays(
        cls, txns: Sequence[np.ndarray], n_items: int, name: str = ""
    ) -> "TransactionDatabase":
        """Build from a sequence of per-transaction item arrays."""
        lengths = np.fromiter((len(t) for t in txns), dtype=np.int64, count=len(txns))
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        if txns:
            items = np.concatenate([np.asarray(t, dtype=np.int32) for t in txns])
        else:
            items = np.empty(0, dtype=np.int32)
        return cls(items, offsets, n_items=n_items, name=name)

    @classmethod
    def from_lists(
        cls, txns: Sequence[Sequence[int]], n_items: int, name: str = ""
    ) -> "TransactionDatabase":
        """Build from plain Python lists of item ids."""
        return cls.from_arrays(
            [np.asarray(sorted(set(t)), dtype=np.int32) for t in txns],
            n_items=n_items,
            name=name,
        )

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, idx: int) -> np.ndarray:
        if not -len(self) <= idx < len(self):
            raise IndexError(idx)
        if idx < 0:
            idx += len(self)
        return self.items[self.offsets[idx] : self.offsets[idx + 1]]

    def __iter__(self) -> Iterator[np.ndarray]:
        for i in range(len(self)):
            yield self[i]

    @property
    def total_items(self) -> int:
        """Total number of (transaction, item) pairs."""
        return int(self.items.size)

    @property
    def avg_txn_len(self) -> float:
        """Mean transaction size."""
        return self.total_items / len(self) if len(self) else 0.0

    def size_bytes(self) -> int:
        """Approximate on-disk size (4 bytes per item + 8 per txn header),
        mirroring the paper's ~80 MB for 1 M transactions."""
        return 4 * self.total_items + 8 * len(self)

    def item_counts(self) -> np.ndarray:
        """Support count of every single item (vectorised pass 1)."""
        return np.bincount(self.items, minlength=self.n_items)

    # -- partitioning ---------------------------------------------------------

    def partition(self, n_parts: int) -> list["TransactionDatabase"]:
        """Split round-robin into ``n_parts`` databases (paper's layout).

        Round-robin (rather than contiguous blocks) matches the statistical
        homogeneity the paper relies on when each node scans its local file.
        """
        if n_parts <= 0:
            raise DataGenError(f"n_parts must be positive, got {n_parts}")
        starts, lengths = self.offsets[:-1], np.diff(self.offsets)
        parts = []
        for j in range(n_parts):
            lens = lengths[j::n_parts]
            offsets = np.concatenate([[0], np.cumsum(lens)])
            # A row's items move from starts[row] to offsets[row]: shift each position by that.
            gather = np.repeat(starts[j::n_parts] - offsets[:-1], lens) + np.arange(offsets[-1])
            name = f"{self.name}/part{j}"
            parts.append(TransactionDatabase(self.items[gather], offsets, self.n_items, name))
        return parts

    # -- persistence ------------------------------------------------------------

    def save_dat(self, path: "str | Path") -> None:
        """Write the classic text format: one transaction per line,
        space-separated item ids (what the original Quest binary emitted
        and what the paper's nodes kept on their local IDE disks)."""
        with open(Path(path), "w", encoding="ascii") as fh:
            for txn in self:
                fh.write(" ".join(map(str, txn.tolist())))
                fh.write("\n")

    @classmethod
    def load_dat(cls, path: "str | Path", n_items: int = 0, name: str = "") -> "TransactionDatabase":
        """Read the classic text format.

        ``n_items`` of 0 infers the item universe as ``max id + 1``.
        Blank lines are skipped; the ids of a line are sorted and
        duplicates among them dropped.
        """
        with open(Path(path), "r", encoding="ascii") as fh:
            rows = [line.split() for line in fh]
        txns = [[int(p) for p in row] for row in rows if row]
        if n_items <= 0:
            n_items = max((max(t) for t in txns), default=-1) + 1
        return cls.from_lists(txns, n_items=n_items, name=name or str(path))

    def save(self, path: "str | Path") -> None:
        """Persist to ``.npz``."""
        np.savez_compressed(
            Path(path),
            items=self.items,
            offsets=self.offsets,
            n_items=np.int64(self.n_items),
            name=np.str_(self.name),
        )

    @classmethod
    def load(cls, path: "str | Path") -> "TransactionDatabase":
        """Load a database previously written by :meth:`save`."""
        with np.load(Path(path), allow_pickle=False) as z:
            return cls(
                z["items"],
                z["offsets"],
                n_items=int(z["n_items"]),
                name=str(z["name"]),
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TransactionDatabase {self.name or 'unnamed'} "
            f"txns={len(self)} avg_len={self.avg_txn_len:.1f}>"
        )
