"""IBM Quest-style synthetic basket data generator.

Reimplements the transaction generator of Agrawal & Srikant (VLDB '94,
§4), which the paper uses for all its workloads ("Transaction data was
produced using a data generation program developed by Agrawal"):

- a pool of ``n_patterns`` *potentially large itemsets* is drawn, each of
  Poisson(``avg_pattern_len``) size, sharing a correlated fraction of
  items with its predecessor;
- each pattern gets an exponentially-distributed weight (normalised to a
  probability) and a per-pattern *corruption level* from N(0.5, 0.1);
- a transaction of Poisson(``avg_txn_len``) intended size is filled by
  sampling patterns by weight and dropping items while U(0,1) < the
  pattern's corruption level; oversized patterns go into the next
  transaction half the time.

Workload names follow the literature's convention, e.g. ``T10.I4.D100K``
= average transaction size 10, average pattern size 4, 100 000
transactions.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.errors import DataGenError

__all__ = ["QuestParams", "QuestGenerator", "parse_workload_name"]

#: Uniform doubles per refill; more only raises peak memory.
_BLOCK = 4096


@dataclass(frozen=True)
class QuestParams:
    """Parameters of the Quest generator, named as in the VLDB '94 paper."""

    n_transactions: int = 1000
    avg_txn_len: float = 10.0  # |T|
    avg_pattern_len: float = 4.0  # |I|
    n_items: int = 1000  # N
    n_patterns: int = 200  # |L|
    correlation: float = 0.5
    corruption_mean: float = 0.5
    corruption_sd: float = 0.1
    seed: int = 12345

    def __post_init__(self) -> None:
        if self.n_transactions <= 0:
            raise DataGenError(f"n_transactions must be positive, got {self.n_transactions}")
        if self.n_items <= 1:
            raise DataGenError(f"n_items must exceed 1, got {self.n_items}")
        if self.avg_txn_len <= 0 or self.avg_pattern_len <= 0:
            raise DataGenError("average transaction/pattern sizes must be positive")
        if self.n_patterns <= 0:
            raise DataGenError(f"n_patterns must be positive, got {self.n_patterns}")
        if not 0.0 <= self.correlation <= 1.0:
            raise DataGenError(f"correlation must be in [0,1], got {self.correlation}")

    def workload_name(self) -> str:
        """Literature-style name, e.g. ``T10.I4.D100K``."""
        d = self.n_transactions
        if d % 1000 == 0:
            dpart = f"{d // 1000}K"
        else:
            dpart = str(d)
        return f"T{self.avg_txn_len:g}.I{self.avg_pattern_len:g}.D{dpart}"


_NAME_RE = re.compile(
    r"^T(?P<t>\d+(?:\.\d+)?)\.I(?P<i>\d+(?:\.\d+)?)\.D(?P<d>\d+)(?P<k>[Kk]?)$"
)


def parse_workload_name(name: str, **overrides: object) -> QuestParams:
    """Build :class:`QuestParams` from a ``T10.I4.D100K``-style name.

    Keyword overrides are passed through to the dataclass (``n_items``,
    ``seed``, ...).
    """
    m = _NAME_RE.match(name.strip())
    if m is None:
        raise DataGenError(f"unparseable workload name {name!r}")
    d = int(m.group("d")) * (1000 if m.group("k") else 1)
    kwargs: dict = dict(
        avg_txn_len=float(m.group("t")),
        avg_pattern_len=float(m.group("i")),
        n_transactions=d,
    )
    kwargs.update(overrides)
    return QuestParams(**kwargs)  # type: ignore[arg-type]


class QuestGenerator:
    """Stateful generator producing transactions for one parameter set."""

    def __init__(self, params: QuestParams) -> None:
        self.params = params
        self._rng = np.random.default_rng(params.seed)
        self._build_patterns()

    # -- pattern pool -----------------------------------------------------

    def _build_patterns(self) -> None:
        p = self.params
        rng = self._rng
        sizes = np.maximum(1, rng.poisson(p.avg_pattern_len, size=p.n_patterns))
        prev: np.ndarray | None = None
        patterns: list[np.ndarray] = []
        for size in sizes:
            size = int(min(size, p.n_items))
            items: set[int] = set()
            if prev is not None and prev.size:
                # Fraction of items reused from the previous pattern; the
                # fraction is exponentially distributed with the
                # correlation level as its mean, clipped to [0, 1].
                frac = min(1.0, rng.exponential(p.correlation))
                n_reuse = min(int(round(frac * size)), prev.size)
                if n_reuse:
                    items.update(
                        rng.choice(prev, size=n_reuse, replace=False).tolist()
                    )
            while len(items) < size:
                items.add(int(rng.integers(0, p.n_items)))
            pat = np.array(sorted(items), dtype=np.int32)
            patterns.append(pat)
            prev = pat
        self._patterns: list[np.ndarray] = patterns

        weights = rng.exponential(1.0, size=p.n_patterns)
        self._weights = weights / weights.sum()
        self._corruption = np.clip(
            rng.normal(p.corruption_mean, p.corruption_sd, size=p.n_patterns), 0.0, 0.95
        )

    @property
    def patterns(self) -> list[np.ndarray]:
        """The potentially-large itemset pool (sorted int32 arrays)."""
        return list(self._patterns)

    # -- transactions ------------------------------------------------------

    def _seek(self, base: dict, n_doubles: int) -> None:
        """Put the stream ``n_doubles`` 64-bit steps past the state ``base``,
        keeping the 32-bit half-word an earlier ``rng.integers`` buffered
        there for the next one — ``advance`` would drop it."""
        bit_generator = self._rng.bit_generator
        bit_generator.state = base
        bit_generator.advance(n_doubles)
        buffered = {key: base[key] for key in ("has_uint32", "uinteger")}
        bit_generator.state = {**bit_generator.state, **buffered}

    def generate(self) -> "TransactionDatabase":
        """Produce the full database described by the parameters.

        After the target sizes every draw is one uniform double — the
        pattern pick (inverse CDF, exactly ``Generator.choice(p=...)``),
        one per pattern item for corruption, the overflow coin — so they
        are drawn ``_BLOCK`` at a time and read by index.  The database
        and the generator's final state equal those of one NumPy call per
        draw (``tests/datagen/reference_quest.py``).
        """
        from repro.datagen.corpus import TransactionDatabase

        p = self.params
        rng = self._rng
        cdf = self._weights.cumsum()
        cdf = (cdf / cdf[-1]).tolist()
        patterns = [pat.tolist() for pat in self._patterns]
        corruption = self._corruption.tolist()
        # One pick reads at most this many doubles: index, items, coin.
        need = max(map(len, patterns)) + 2

        rows = array("i")
        offsets = array("q", [0])
        carry: list[int] = []  # pattern postponed to the next txn
        targets = np.maximum(1, rng.poisson(p.avg_txn_len, size=p.n_transactions))
        # The stream stands ``i`` doubles past ``base``, and ``block`` holds
        # the doubles that follow ``base``.
        base = rng.bit_generator.state
        block: list[float] = []
        i = 0
        for target in targets.tolist():
            items = set(carry)
            carry = []
            guard = 0
            while len(items) < target and guard < 50:
                guard += 1
                if len(block) - i < need:
                    self._seek(base, i)
                    base, i = rng.bit_generator.state, 0
                    block = rng.random(max(_BLOCK, need)).tolist()
                pi = bisect_right(cdf, block[i])
                pat = patterns[pi]
                c = corruption[pi]
                end = i + 1 + len(pat)
                kept = [x for x, u in zip(pat, block[i + 1 : end]) if u >= c]
                i = end
                if not kept:
                    continue
                if len(items) + len(kept) > target and items:
                    # Doesn't fit: insert anyway half the time, otherwise
                    # postpone to the next transaction (VLDB'94 rule).
                    i += 1  # the coin, block[end]
                    if block[end] < 0.5:
                        items.update(kept)
                    else:
                        carry = kept
                    break
                items.update(kept)
            if not items:
                # ``integers`` reads a data-dependent count of 32-bit words.
                self._seek(base, i)
                items.add(int(rng.integers(0, p.n_items)))
                base, block, i = rng.bit_generator.state, [], 0
            rows.extend(sorted(items))
            offsets.append(len(rows))
        self._seek(base, i)
        return TransactionDatabase(
            np.frombuffer(rows, dtype=np.intc),
            np.frombuffer(offsets, dtype=np.int64),
            n_items=p.n_items,
            name=p.workload_name(),
        )
