"""Persistent, content-addressed result store for scenario runs.

One :class:`ResultStore` is a directory of ``<sha256>.json`` files, one
per executed :class:`~repro.runtime.scenarios.Scenario`, keyed by the
SHA-256 of the scenario's canonical JSON (:meth:`Scenario.cache_key` —
the cosmetic ``name``/``description`` are excluded, so two scenarios
that execute identically share one entry).  Each file is
self-describing: the scenario dict is the run's one description, stored
alongside the result (which carries no copy of its configuration).
Writes are atomic, so a killed sweep leaves at worst one ignorable
partial temp file and every completed run durable — which is what makes
a re-run against ``repro-bench run --store DIR`` execute only the missing
configurations.  An entry that fails to load (torn, corrupt, or of an
unknown format) is a miss, and the re-execution that follows rewrites
it.

An entry is three lines: the decimal CRC-32 of the two that follow,
the *header* — compact JSON: the format, the scenario and the result
without its large itemsets (the per-pass rows every report reads) —
and the *tail*, the compact ``[[items...], count]`` list of large
itemsets.  A read checks the CRC over bytes it has read anyway and
parses the header alone, so a torn entry, or one with a digit flipped
in its header or its tail, is a miss even when it still parses; the
itemsets decode on first access (:class:`StoredItemsets`), which no
report fold makes.

The store is the *second* cache tier: the in-memory
:class:`~repro.runtime.scenarios.ScenarioCache` sits above it and the
actual simulation below.  :func:`~repro.runtime.scenarios.lookup_scenario`
consults the ambient store (:func:`result_store_session`) once on a
memory miss, and both tiers are populated after executing.

Serialisation is exact: JSON floats round-trip through ``repr`` without
loss, so a result loaded from disk compares equal (``==``) to the
original object and renders byte-identical experiment reports — the
property the sweep engine's parallel executor relies on
(:mod:`repro.harness.sweep.engine` ships results between processes
through the same codec).
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from collections.abc import Mapping
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional

from repro.obs import emit_ambient

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mining.itemsets import Itemset
    from repro.runtime.results import RunResult
    from repro.runtime.scenarios import Scenario

__all__ = [
    "ResultStore",
    "StoredItemsets",
    "result_to_dict",
    "result_from_dict",
    "current_result_store",
    "result_store_session",
]

#: Bumped when the on-disk layout changes; mismatching entries are
#: treated as misses and overwritten.  Format 2 removed the per-pass
#: ``*_wall_s`` host wall-clock fields: stored results are now pure
#: functions of the scenario, with host timing measured harness-side
#: (:mod:`repro.harness.wallclock`).  Format 3 dropped the config's
#: ``kernel`` field (one counting implementation left, so no option).
#: Format 4 dropped the config's send-window and per-lender memory
#: factor fields (one value in use each, so constants now).  Format 5
#: dropped the result's ``config`` copy: the entry's ``scenario`` is the
#: run's one description.  Format 6 split the entry into a header line
#: and a CRC-checked itemset tail, so a read parses only the header;
#: format 7 put one CRC line over both; format-6 and -5 entries load.
STORE_FORMAT = 7
_FORMAT_6 = 6
_FORMAT_5 = 5

#: Compact JSON: no whitespace, which ``json`` encodes in C.
_COMPACT = (",", ":")


# ---------------------------------------------------------------------------
# Exact JSON codec for run results
# ---------------------------------------------------------------------------

def result_to_dict(result: "RunResult") -> dict:
    """JSON-safe dict of a :class:`~repro.runtime.results.RunResult`.

    Itemset keys become sorted ``[items, count]`` pairs so the encoding
    is canonical; all floats survive exactly (JSON uses ``repr``).
    """
    from dataclasses import asdict

    return {
        "large_itemsets": [
            [list(itemset), count]
            for itemset, count in sorted(result.large_itemsets.items())
        ],
        "passes": [asdict(p) for p in result.passes],
        "total_time_s": result.total_time_s,
    }


def result_from_dict(data: dict) -> "RunResult":
    """Rebuild a result that compares equal to the stored original."""
    return _result(data, _itemsets(data["large_itemsets"]))


def _result(data: dict, large_itemsets: "Mapping[Itemset, int]") -> "RunResult":
    """A result from its encoded passes and total plus its itemsets."""
    from repro.runtime.results import PassResult, RunResult

    return RunResult(
        large_itemsets=large_itemsets,
        passes=[PassResult(**p) for p in data["passes"]],
        total_time_s=data["total_time_s"],
    )


def _itemsets(pairs: list) -> "dict[Itemset, int]":
    """The itemset dict of an encoded ``[[items...], count]`` list."""
    return {tuple(items): count for items, count in pairs}


class StoredItemsets(Mapping["Itemset", int]):
    """A stored run's large itemsets, decoded from the entry's tail on
    first access.

    Read-only, iterates in the tail's (sorted) order, and compares equal
    (``==`` both ways, via :class:`~collections.abc.Mapping`) to the
    executed run's dict.  No report fold reads the itemsets, so a warm
    report never decodes a tail.
    """

    __slots__ = ("_tail", "_decoded")

    def __init__(self, tail: "bytes | list") -> None:
        self._tail = tail
        self._decoded: "Optional[dict[Itemset, int]]" = None

    def _items(self) -> "dict[Itemset, int]":
        if self._decoded is None:
            self._decoded = _itemsets(_pairs(self._tail))
            self._tail = b""
        return self._decoded

    def __getitem__(self, itemset: "Itemset") -> int:
        return self._items()[itemset]

    def __iter__(self) -> "Iterator[Itemset]":
        return iter(self._items())

    def __len__(self) -> int:
        return len(self._items())


def _pairs(tail: "bytes | list") -> list:
    """The ``[[items...], count]`` list of a tail: decoded from an
    entry's tail bytes, or a format-5 entry's already-parsed list."""
    return json.loads(tail) if isinstance(tail, bytes) else tail


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class ResultStore:
    """Directory of content-addressed scenario results.

    Like the in-memory :class:`~repro.runtime.scenarios.ScenarioCache`,
    the store counts hits and misses locally (:meth:`stats`) and as
    ``cache-access`` events on the ambient telemetry bus (folded into
    ``result_store_hits`` / ``result_store_misses``) so a resumed sweep
    can *prove* how much work it skipped.
    """

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # -- addressing --------------------------------------------------------

    @staticmethod
    def key_for(scenario: "Scenario") -> str:
        """Content address: SHA-256 of the scenario's canonical JSON."""
        return hashlib.sha256(scenario.cache_key().encode()).hexdigest()

    def path_for(self, scenario: "Scenario") -> Path:
        """The entry file this scenario maps to (may not exist yet)."""
        return self.path_for_key(self.key_for(scenario))

    def path_for_key(self, key: str) -> Path:
        """The entry file for a raw content address (may not exist yet)."""
        return self.path / f"{key}.json"

    # -- access ------------------------------------------------------------

    def get(self, scenario: "Scenario") -> "Optional[RunResult]":
        """The stored result, or ``None``; partial/foreign files are
        misses (a killed writer never poisons the store).  Only the
        header is parsed: the itemsets stay raw bytes until read."""
        loaded = _load_entry(self.path_for(scenario))
        try:
            if loaded is None:
                raise ValueError("no readable entry")
            header, tail = loaded
            result = _result(header["result"], StoredItemsets(tail))
        except (ValueError, KeyError, TypeError):
            self.misses += 1
            emit_ambient("cache-access", tier="store", outcome="miss")
            return None
        self.hits += 1
        emit_ambient("cache-access", tier="store", outcome="hit")
        return result

    def put(self, scenario: "Scenario", result: "RunResult") -> Path:
        """Persist ``result`` atomically (write temp file, then rename)
        as a CRC line, a header line and an itemset tail, both canonical
        compact JSON: sorted keys, no whitespace, which ``json`` encodes
        in C (``indent`` would force its Python encoder)."""
        entry = self.path_for(scenario)
        encoded = result_to_dict(result)
        tail = json.dumps(encoded.pop("large_itemsets"), separators=_COMPACT)
        header = {
            "format": STORE_FORMAT,
            "scenario": scenario.to_dict(),
            "result": encoded,
        }
        body = (
            json.dumps(header, sort_keys=True, separators=_COMPACT) + "\n" + tail
        ).encode()
        tmp = entry.with_suffix(f".tmp-{os.getpid()}")
        tmp.write_bytes(b"%d\n" % zlib.crc32(body) + body)
        os.replace(tmp, entry)
        self.writes += 1
        emit_ambient("cache-access", tier="store", outcome="write")
        return entry

    def read_payload(self, key: str) -> "Optional[dict]":
        """The self-describing payload stored under a content address,
        its itemsets decoded into ``result["large_itemsets"]`` as the
        ``[[items...], count]`` list :func:`result_to_dict` writes; or
        ``None`` when the entry is absent, unreadable, or from an
        unknown format."""
        loaded = _load_entry(self.path_for_key(key))
        if loaded is None:
            return None
        header, tail = loaded
        header["result"]["large_itemsets"] = _pairs(tail)
        return header

    def keys(self) -> "list[str]":
        """Every stored content address, sorted."""
        return sorted(entry.stem for entry in self.path.glob("*.json"))

    def __len__(self) -> int:
        return sum(1 for _ in self.path.glob("*.json"))

    def clear(self) -> None:
        """Delete every entry (hit/miss counters are kept)."""
        for entry in self.path.glob("*.json"):
            entry.unlink()

    def gc(self, now: float, tmp_age_s: float = 3600.0) -> dict:
        """Compact the entry directory: drop orphaned temp files and
        every entry that fails to load (torn, failing its CRC check,
        or from an unknown format); format-5 and -6 entries stay.

        ``now`` is the caller's host wall-clock (the runtime layer never
        reads host time itself — ``repro-bench gc DIR`` passes it
        in).  Temp files younger than ``tmp_age_s`` are kept: they may
        belong to a live writer mid-:meth:`put`.  Returns the summary
        counts ``repro-bench gc DIR`` prints.
        """
        removed_tmp = 0
        for tmp in self.path.glob("*.tmp-*"):
            try:
                if now - tmp.stat().st_mtime >= tmp_age_s:
                    tmp.unlink()
                    removed_tmp += 1
            except OSError:
                continue
        removed_entries = 0
        kept = 0
        for entry in self.path.glob("*.json"):
            if _load_entry(entry) is not None:
                kept += 1
                continue
            try:
                entry.unlink()
                removed_entries += 1
            except OSError:
                continue
        return {
            "entries_kept": kept,
            "entries_removed": removed_entries,
            "tmp_removed": removed_tmp,
        }

    def stats(self) -> dict:
        """Hit/miss/write counters plus the current entry count."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "entries": len(self),
            "path": str(self.path),
        }

    def entry_stats(self) -> "list[dict]":
        """Per-entry sizes, sorted by content address: one
        ``{"key", "bytes", "scenario"}`` dict per stored result (the
        ``repro-bench store DIR`` rows).  The scenario summary comes
        from the entry's header; unreadable, partial or other-format
        files are skipped rather than reported."""
        rows: "list[dict]" = []
        for entry in sorted(self.path.glob("*.json")):
            loaded = _load_entry(entry)
            scenario = None if loaded is None else loaded[0].get("scenario")
            if not isinstance(scenario, dict):
                continue
            try:
                size = entry.stat().st_size
            except OSError:
                continue
            rows.append({
                "key": entry.stem,
                "bytes": size,
                "scenario": {
                    k: scenario.get(k)
                    for k in ("driver", "scale", "pager", "paper_mb", "seed")
                },
            })
        return rows


def _load_entry(entry: Path) -> "Optional[tuple[dict, bytes | list]]":
    """``(header, tail)`` of one entry file, else ``None`` (absent,
    unreadable, torn, failing its CRC check, not an object, or an
    unknown format) — the one decoding every reader shares.  The header
    is parsed and the tail only checked.

    A format-6 entry (its header checks the tail alone) loads as the
    same pair, as does a format-5 one (one JSON object, compact or
    indented), its tail the parsed itemset list (:func:`_pairs` takes either).
    """
    try:
        data = entry.read_bytes()
    except OSError:
        return None
    check, _, body = data.partition(b"\n")
    checked = check.isdigit() and int(check) == zlib.crc32(body)
    head, _, tail = (body if checked else data).partition(b"\n")
    try:
        header = json.loads(head)
    except ValueError:
        try:  # an indented format-5 entry spans lines
            header = json.loads(data)
        except ValueError:
            return None
    result = header.get("result") if isinstance(header, dict) else None
    if not isinstance(result, dict):
        return None
    fmt = header.get("format")
    if fmt == STORE_FORMAT and checked:
        return header, tail
    if fmt == _FORMAT_6:
        if header.get("tail") == {"bytes": len(tail), "crc32": zlib.crc32(tail)}:
            return header, tail
    elif fmt == _FORMAT_5 and "large_itemsets" in result:
        return header, result.pop("large_itemsets")
    return None


# ---------------------------------------------------------------------------
# Ambient store (mirrors repro.obs.context's telemetry session)
# ---------------------------------------------------------------------------

_CURRENT: Optional[ResultStore] = None


def current_result_store() -> Optional[ResultStore]:
    """The ambient persistent store, or ``None`` outside a session."""
    return _CURRENT


@contextmanager
def result_store_session(
    store: "ResultStore | str | os.PathLike[str] | None",
) -> Iterator[Optional[ResultStore]]:
    """Make ``store`` (an object or a directory path) ambient for the
    ``with`` block.  Sessions nest; ``None`` leaves the ambient store
    unchanged so callers can wrap unconditionally."""
    global _CURRENT
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    previous = _CURRENT
    if store is not None:
        _CURRENT = store
    try:
        yield _CURRENT
    finally:
        _CURRENT = previous
