"""Persistent, content-addressed result store for scenario runs.

One :class:`ResultStore` is a directory of ``<sha256>.json`` files, one
per executed :class:`~repro.runtime.scenarios.Scenario`, keyed by the
SHA-256 of the scenario's canonical JSON (:meth:`Scenario.cache_key` —
the cosmetic ``name``/``description`` are excluded, so two scenarios
that execute identically share one entry).  Each file is self-describing
(it carries the scenario dict alongside the result) and written
atomically, so a killed sweep leaves at worst one ignorable partial
temp file and every completed run durable — which is what makes
``repro-bench --resume`` re-run only the missing configurations.

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
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional

from repro.obs import current_telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.results import RunResult
    from repro.runtime.scenarios import Scenario

__all__ = [
    "ResultStore",
    "result_to_dict",
    "result_from_dict",
    "config_to_dict",
    "config_from_dict",
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
#: factor fields (one value in use each, so constants now).
STORE_FORMAT = 4


# ---------------------------------------------------------------------------
# Exact JSON codec for run results
# ---------------------------------------------------------------------------

def config_to_dict(config) -> dict:
    """JSON-safe dict of a :class:`~repro.runtime.config.RunConfig`
    (or one of its driver subclasses, recorded so equality survives)."""
    from dataclasses import asdict

    d = asdict(config)
    d["__class__"] = type(config).__name__
    return d


def config_from_dict(data: dict):
    """Rebuild the exact config object :func:`config_to_dict` captured."""
    from repro.analysis.cost_model import CostModel
    from repro.mining.hpa import HPAConfig
    from repro.mining.npa import NPAConfig
    from repro.runtime.config import RunConfig

    classes = {
        "RunConfig": RunConfig,
        "HPAConfig": HPAConfig,
        "NPAConfig": NPAConfig,
    }
    d = dict(data)
    cls = classes[d.pop("__class__", "RunConfig")]
    cost = CostModel(**d.pop("cost"))
    return cls(cost=cost, **d)


def result_to_dict(result: "RunResult") -> dict:
    """JSON-safe dict of a :class:`~repro.runtime.results.RunResult`.

    Itemset keys become sorted ``[items, count]`` pairs so the encoding
    is canonical; all floats survive exactly (JSON uses ``repr``).
    """
    from dataclasses import asdict

    return {
        "config": config_to_dict(result.config),
        "large_itemsets": [
            [list(itemset), count]
            for itemset, count in sorted(result.large_itemsets.items())
        ],
        "passes": [asdict(p) for p in result.passes],
        "total_time_s": result.total_time_s,
    }


def result_from_dict(data: dict) -> "RunResult":
    """Rebuild a result that compares equal to the stored original."""
    from repro.runtime.results import PassResult, RunResult

    return RunResult(
        config=config_from_dict(data["config"]),
        large_itemsets={
            tuple(items): count for items, count in data["large_itemsets"]
        },
        passes=[PassResult(**p) for p in data["passes"]],
        total_time_s=data["total_time_s"],
    )


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class ResultStore:
    """Directory of content-addressed scenario results.

    Like the in-memory :class:`~repro.runtime.scenarios.ScenarioCache`,
    the store counts hits and misses locally (:meth:`stats`) and on the
    ambient telemetry registry (``result_store_hits`` /
    ``result_store_misses``) so a resumed sweep can *prove* how much
    work it skipped.
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

    def _count(self, metric: str) -> None:
        telemetry = current_telemetry()
        if telemetry is not None:
            telemetry.registry.counter(metric).inc()

    def get(self, scenario: "Scenario") -> "Optional[RunResult]":
        """The stored result, or ``None``; partial/foreign files are
        misses (a killed writer never poisons the store)."""
        entry = self.path_for(scenario)
        try:
            payload = json.loads(entry.read_text())
            if payload.get("format") != STORE_FORMAT:
                raise ValueError(f"unknown store format {payload.get('format')}")
            result = result_from_dict(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            self._count("result_store_misses")
            return None
        self.hits += 1
        self._count("result_store_hits")
        return result

    def put(self, scenario: "Scenario", result: "RunResult") -> Path:
        """Persist ``result`` atomically (write temp file, then rename)."""
        entry = self.path_for(scenario)
        payload = {
            "format": STORE_FORMAT,
            "scenario": scenario.to_dict(),
            "result": result_to_dict(result),
        }
        tmp = entry.with_suffix(f".tmp-{os.getpid()}")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        os.replace(tmp, entry)
        self.writes += 1
        self._count("result_store_writes")
        return entry

    def read_payload(self, key: str) -> "Optional[dict]":
        """The raw self-describing payload stored under a content
        address, or ``None`` when the entry is absent, unreadable, or
        from another :data:`STORE_FORMAT`."""
        try:
            payload = json.loads(self.path_for_key(key).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or payload.get("format") != STORE_FORMAT:
            return None
        return payload

    def keys(self) -> "list[str]":
        """Every stored content address, sorted."""
        return sorted(entry.stem for entry in self.path.glob("*.json"))

    def __contains__(self, scenario: "Scenario") -> bool:
        return self.path_for(scenario).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.path.glob("*.json"))

    def clear(self) -> None:
        """Delete every entry (hit/miss counters are kept)."""
        for entry in self.path.glob("*.json"):
            entry.unlink()

    def gc(self, now: float, tmp_age_s: float = 3600.0) -> dict:
        """Compact the entry directory: drop orphaned temp files and
        entries from another :data:`STORE_FORMAT`.

        ``now`` is the caller's host wall-clock (the runtime layer never
        reads host time itself — ``repro-bench --store-gc`` passes it
        in).  Temp files younger than ``tmp_age_s`` are kept: they may
        belong to a live writer mid-:meth:`put`.  Returns the summary
        counts ``repro-bench --store-gc`` prints.
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
            try:
                payload = json.loads(entry.read_text())
                ok = isinstance(payload, dict) \
                    and payload.get("format") == STORE_FORMAT
            except (OSError, ValueError):
                ok = False
            if ok:
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
        ``repro-bench --store-stats`` rows).  The scenario summary comes
        from the entry's self-describing payload; unreadable or partial
        files are skipped rather than reported."""
        rows: "list[dict]" = []
        for entry in sorted(self.path.glob("*.json")):
            try:
                size = entry.stat().st_size
                payload = json.loads(entry.read_text())
                scenario = payload.get("scenario", {})
            except (OSError, ValueError):
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
