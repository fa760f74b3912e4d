"""The six workloads: inputs made from the seed, ops that call the
program's public functions, and the correctness check of every output.

All workloads are closed-loop with one client: a rep runs its ops one
after another.  The runner times each op; nothing here reads a clock.

Inputs.  ``prepare-cold``, ``sweep-cold`` and ``report-warm`` pass seeds
derived from ``--seed`` straight to the program (``prepare_workload``,
``Scenario.seed``).  The three ``hpa-*`` workloads mine a seeded random
sample (without replacement, in random order) of a fixed-seed Quest
population: re-seeding the generator itself redraws the pattern pool and
moves the amount of work by +-30 % (1.8-3.4 s measured over six seeds at
D16K), which would drown every bound, while a sample keeps the work
within a few percent and still changes every transaction partition,
support count and borderline itemset.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from perfbench.spec import WORKLOADS

__all__ = ["OpFailure", "Workload", "make_workload"]

#: Seed of the fixed Quest population the ``hpa-*`` samples are drawn from.
POPULATION_SEED = 42


class OpFailure:
    """Stands in for the output of an op that raised."""

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc

    def __repr__(self) -> str:
        return f"OpFailure({self.exc!r})"


def _sha(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


class Workload:
    """One workload bound to a seed.

    ``build`` makes the inputs (and the oracle the outputs are checked
    against); the runner calls it several times and reports the median
    as part of ``setup_s``.  ``ops`` are the rep's program calls, in
    order.  ``check`` judges one rep's outputs, one verdict per op.
    """

    name = ""

    def __init__(self, seed: int, smoke: bool, tmp_root: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.tmp_root = tmp_root
        spec = next(w for w in WORKLOADS if w.name == self.name)
        self.units_per_rep = spec.smoke_units_per_rep if smoke else spec.units_per_rep
        #: Per-op digest of the first rep, the reference for later reps.
        self._first: "dict[str, str]" = {}
        #: Called with each driver run between construction and ``run()``
        #: (the traced pass attaches its phase clock / telemetry here).
        self.on_run: "Optional[Callable[[Any], None]]" = None

    # -- the runner's interface -------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def ops(self) -> "list[tuple[str, Callable[[], Any]]]":
        raise NotImplementedError

    def before_rep(self) -> None:
        """Untimed: put the program back into the rep's starting state."""

    def after_rep(self) -> None:
        """Untimed: release what ``before_rep`` acquired."""

    def check(self, outputs: "dict[str, Any]") -> "dict[str, bool]":
        raise NotImplementedError

    def counts(self, outputs: "dict[str, Any]") -> "dict[str, float]":
        """Exact per-layer counts that follow from the outputs alone."""
        return {}

    def output_hash(self) -> str:
        """Digest of the first rep's outputs: identical across reps (the
        check enforces it) and printed so two commits compare exactly."""
        return _sha(json.dumps(self._first, sort_keys=True).encode())

    def close(self) -> None:
        """Release inputs that live outside the process (temp stores)."""

    # -- helpers -----------------------------------------------------------

    def _same_as_first(self, op: str, digest: str) -> bool:
        return self._first.setdefault(op, digest) == digest

    def _tmpdir(self) -> str:
        return tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.tmp_root)

    def _open_store(self, store: Any = None) -> None:
        """Make ``store`` (default: a fresh temp one) the ambient result
        store, and note the cache tiers' counters."""
        from repro.runtime.store import result_store_session

        self._session = ExitStack()
        self.store = self._session.enter_context(
            result_store_session(self._tmpdir() if store is None else store)
        )
        self._tiers_before = self._tier_counters()

    def _close_store(self, delete: bool) -> None:
        self._session.close()
        if delete:
            shutil.rmtree(self.store.path, ignore_errors=True)

    def _tier_counters(self) -> "tuple[int, int, int, int]":
        from repro.runtime.scenarios import cache_stats

        cache = cache_stats()
        return cache["hits"], cache["misses"], self.store.hits, self.store.misses

    def _tier_shares(self) -> "dict[str, float]":
        """Hit shares of both cache tiers since ``_open_store``."""
        c_hits, c_misses, s_hits, s_misses = (
            now - before
            for now, before in zip(self._tier_counters(), self._tiers_before)
        )
        return {
            "runtime.cache_hit_share": c_hits / (c_hits + c_misses) if c_hits + c_misses else 0.0,
            "runtime.store_hit_share": s_hits / (s_hits + s_misses) if s_hits + s_misses else 0.0,
        }


# ---------------------------------------------------------------------------
# prepare-cold
# ---------------------------------------------------------------------------

class PrepareCold(Workload):
    name = "prepare-cold"

    def build(self) -> None:
        self.scale = "tiny" if self.smoke else "full"
        self.seeds = tuple(1000 * (i + 1) + self.seed for i in range(2))

    def before_rep(self) -> None:
        from repro.harness import scales

        # Memoisation dropped, and a fresh ambient store so a prepare
        # that learns to persist its workloads still starts cold.
        scales.prepare_workload.cache_clear()
        self._open_store()

    def after_rep(self) -> None:
        self._close_store(delete=True)

    def ops(self) -> "list[tuple[str, Callable[[], Any]]]":
        from repro.harness import scales

        return [
            (f"prepare[{i}]", lambda s=s: scales.prepare_workload(self.scale, s))
            for i, s in enumerate(self.seeds)
        ]

    def check(self, outputs: "dict[str, Any]") -> "dict[str, bool]":
        verdicts = {}
        for op, prep in outputs.items():
            if isinstance(prep, OpFailure):
                verdicts[op] = False
                continue
            geometry = json.dumps([
                prep.n_large_1, prep.n_candidates_2,
                list(prep.per_node_candidates), prep.busiest_node_bytes,
            ])
            digest = _sha(
                prep.db.items.tobytes(), prep.db.offsets.tobytes(), geometry.encode()
            )
            verdicts[op] = (
                prep.n_candidates_2 == math.comb(prep.n_large_1, 2)
                and len(prep.db) * len(self.seeds) == self.units_per_rep
                and self._same_as_first(op, digest)
            )
        return verdicts

    def counts(self, outputs: "dict[str, Any]") -> "dict[str, float]":
        return {"datagen.txn": sum(len(p.db) for p in outputs.values())}


# ---------------------------------------------------------------------------
# hpa-*
# ---------------------------------------------------------------------------

class _HPAWorkload(Workload):
    """Shared input building for the three HPA workloads."""

    #: (workload, n_items, minsup, total_lines, sample size)
    FULL = ("T10.I4.D4K", 400, 0.005, 8192, 3000)
    SMOKE = ("T8.I3.D300", 120, 0.02, 512, 240)
    max_k = 2
    #: Memory-usage limit as a share of the busiest node's pass-2
    #: footprint (``None`` = no limit), inside the paper's 78-97 % regime.
    limit_fraction: Optional[float] = 0.9
    n_app_nodes = (16, 4)  # (full, smoke)
    n_memory_nodes = 4

    def build(self) -> None:
        from repro.datagen import TransactionDatabase, generate
        from repro.mining import apriori

        name, n_items, minsup, lines, n_sample = self.SMOKE if self.smoke else self.FULL
        self.minsup, self.total_lines = minsup, lines
        self.n_app = self.n_app_nodes[self.smoke]
        population = generate(name, n_items=n_items, seed=POPULATION_SEED)
        order = np.random.default_rng(self.seed).permutation(len(population))
        self.db = TransactionDatabase.from_arrays(
            [population[int(i)] for i in order[:n_sample]],
            n_items=n_items, name=f"{name}-sample{n_sample}-seed{self.seed}",
        )
        self.oracle = apriori(self.db, minsup=minsup, max_k=self.max_k).large_itemsets
        self.limit_bytes = self._limit_bytes()

    def _limit_bytes(self) -> Optional[int]:
        from repro.mining.candidates import generate_candidates
        from repro.mining.hash_table import LINE_HEADER_BYTES
        from repro.mining.itemsets import ITEMSET_BYTES
        from repro.mining.partition import HashPartitioner

        if self.limit_fraction is None:
            return None
        l1 = sorted(i for i in self.oracle if len(i) == 1)
        per_node = HashPartitioner(self.total_lines, self.n_app).partition_counts(
            generate_candidates(l1, 2)
        )
        busiest = (
            int(per_node.max()) * ITEMSET_BYTES
            + (self.total_lines // self.n_app) * LINE_HEADER_BYTES
        )
        return int(self.limit_fraction * busiest)

    def _config(self, **overrides: Any) -> Any:
        from repro.mining.hpa import HPAConfig

        return HPAConfig(
            minsup=self.minsup, n_app_nodes=self.n_app, total_lines=self.total_lines,
            max_k=self.max_k, seed=self.seed, memory_limit_bytes=self.limit_bytes,
            **overrides,
        )

    def _run(self, config: Any, shortages: "tuple[tuple[float, int], ...]" = ()) -> Any:
        from repro.mining.hpa import HPARun

        run = HPARun(self.db, config)
        for at_s, mem_index in shortages:
            run.shortage_schedule.append((at_s, run.mem_ids[mem_index]))
        if self.on_run is not None:
            self.on_run(run)
        return run.run()

    def check(self, outputs: "dict[str, Any]") -> "dict[str, bool]":
        from repro.harness.hotpath import result_hash

        return {
            op: not isinstance(res, OpFailure)
            and res.large_itemsets == self.oracle
            and self._same_as_first(op, result_hash(res))
            for op, res in outputs.items()
        }


class HPAMineK3(_HPAWorkload):
    name = "hpa-mine-k3"
    max_k = 3
    limit_fraction = None
    n_app_nodes = (8, 2)

    def ops(self) -> "list[tuple[str, Callable[[], Any]]]":
        return [("mine", lambda: self._run(self._config()))]


class HPASwapFault(_HPAWorkload):
    name = "hpa-swap-fault"

    def ops(self) -> "list[tuple[str, Callable[[], Any]]]":
        config = self._config(pager="remote", n_memory_nodes=self.n_memory_nodes)
        return [("swap", lambda: self._run(config))]


class HPAUpdateDynamic(_HPAWorkload):
    name = "hpa-update-dynamic"
    #: Mid-pass-2 shortages of op A: (virtual s, memory node index).
    SHORTAGES = (((0.3, 0), (0.5, 1)), ((0.02, 0), (0.03, 1)))  # (full, smoke)
    CHURN = (
        "sawtooth:period=0.5,low=0.1,high=0.9",
        "sawtooth:period=0.04,low=0.1,high=0.9",
    )

    def ops(self) -> "list[tuple[str, Callable[[], Any]]]":
        shortage = self._config(pager="remote-update", n_memory_nodes=self.n_memory_nodes)
        churn = self._config(
            pager="remote-update", n_memory_nodes=self.n_memory_nodes,
            churn=self.CHURN[self.smoke], placement="predictive",
        )
        return [
            ("shortage", lambda: self._run(shortage, self.SHORTAGES[self.smoke])),
            ("churn", lambda: self._run(churn)),
        ]


# ---------------------------------------------------------------------------
# sweep-cold / report-warm
# ---------------------------------------------------------------------------

class SweepCold(Workload):
    name = "sweep-cold"
    SWEEPS = (("fig4", "fig5", "npa", "loss"), ("fig4", "fig5"))

    def build(self) -> None:
        from repro.datagen import generate
        from repro.harness.scales import SCALES
        from repro.mining import apriori

        self.sweeps = self.SWEEPS[self.smoke]
        self.sweep_seed = 1000 + self.seed
        scale = SCALES["tiny"]
        db = generate(scale.workload, n_items=scale.n_items, seed=self.sweep_seed)
        self.oracle = sorted(
            [list(i), c]
            for i, c in apriori(db, minsup=scale.minsup, max_k=2).large_itemsets.items()
        )

    def before_rep(self) -> None:
        from repro.runtime.scenarios import clear_cache

        clear_cache()
        self._open_store()

    def after_rep(self) -> None:
        self._close_store(delete=True)

    def ops(self) -> "list[tuple[str, Callable[[], Any]]]":
        from repro.harness import experiments
        from repro.harness.sweep import engine

        return [
            (name, lambda name=name: engine.run_sweep_outcome(
                experiments.ALL_SWEEPS[name], "tiny", jobs=1, seed=self.sweep_seed))
            for name in self.sweeps
        ]

    def check(self, outputs: "dict[str, Any]") -> "dict[str, bool]":
        if any(isinstance(o, OpFailure) for o in outputs.values()):
            return {op: not isinstance(o, OpFailure) for op, o in outputs.items()}
        # Rep-level facts: a cold store serves nothing, every executed
        # cell is written once, and every stored cell mined the oracle.
        executed = sum(o.n_executed for o in outputs.values())
        resolved = sum(len(o.records) for o in outputs.values())
        stats = self.store.stats()
        entries = [self.store.read_payload(key) for key in self.store.keys()]
        rep_ok = (
            stats["hits"] == 0
            and stats["writes"] == executed == len(entries)
            and resolved == self.units_per_rep
            and all(
                e is not None and e["result"]["large_itemsets"] == self.oracle
                for e in entries
            )
        )
        return {
            op: rep_ok and self._same_as_first(op, _sha(o.report.to_json().encode()))
            for op, o in outputs.items()
        }

    def counts(self, outputs: "dict[str, Any]") -> "dict[str, float]":
        return {
            "harness.cells": sum(len(o.records) for o in outputs.values()),
            "harness.cells_executed": sum(o.n_executed for o in outputs.values()),
            "harness.cells_cached": sum(o.n_cached for o in outputs.values()),
            "runtime.store_bytes": sum(e["bytes"] for e in self.store.entry_stats()),
            **self._tier_shares(),
        }


class ReportWarm(Workload):
    name = "report-warm"
    ARTIFACTS = ("table2", "table3", "fig4")

    def build(self) -> None:
        from repro.runtime.store import ResultStore, result_store_session

        self.close()
        self.seeds = tuple(1000 * (i + 1) + self.seed for i in range(2))
        self.warm_store = ResultStore(self._tmpdir())
        # Cold fill: the one time the sweeps behind the report execute.
        with result_store_session(self.warm_store):
            self._render()

    def close(self) -> None:
        store = getattr(self, "warm_store", None)
        if store is not None:
            shutil.rmtree(store.path, ignore_errors=True)
            self.warm_store = None

    def before_rep(self) -> None:
        self._open_store(self.warm_store)

    def after_rep(self) -> None:
        self._close_store(delete=False)

    def _render(self) -> "dict[str, Any]":
        from repro.analysis.report import experiment_results, rendering
        from repro.runtime.scenarios import clear_cache

        clear_cache()
        results = experiment_results.ExperimentResults("tiny", self.seeds)
        artifacts = results.artifacts(self.ARTIFACTS)
        payload = results.payload(self.ARTIFACTS)
        return {
            "md": rendering.render_markdown("tiny", self.seeds, artifacts),
            "html": rendering.render_html("tiny", self.seeds, artifacts),
            "json": json.dumps(payload, indent=2, sort_keys=True),
            "cells": sum(len(a.cells) for a in artifacts.values()),
            "accounting": results.accounting(),
        }

    def ops(self) -> "list[tuple[str, Callable[[], Any]]]":
        return [(f"render[{i}]", self._render) for i in range(self.units_per_rep)]

    def check(self, outputs: "dict[str, Any]") -> "dict[str, bool]":
        misses = self.store.misses - self._tiers_before[3]
        verdicts = {}
        for op, out in outputs.items():
            if isinstance(out, OpFailure):
                verdicts[op] = False
                continue
            digest = _sha(out["md"].encode(), out["html"].encode(), out["json"].encode())
            verdicts[op] = (
                misses == 0
                and out["accounting"]["executed"] == 0
                # Every render is the same op: all compare to render[0].
                and self._same_as_first("render", digest)
            )
        return verdicts

    def counts(self, outputs: "dict[str, Any]") -> "dict[str, float]":
        accounting = [o["accounting"] for o in outputs.values()]
        return {
            "harness.cells": sum(a["cached"] + a["executed"] for a in accounting),
            "harness.cells_executed": sum(a["executed"] for a in accounting),
            "harness.cells_cached": sum(a["cached"] for a in accounting),
            "report.cells": sum(o["cells"] for o in outputs.values()),
            "report.bytes_out": sum(
                len(o["md"]) + len(o["html"]) + len(o["json"]) for o in outputs.values()
            ),
            **self._tier_shares(),
        }


_CLASSES = {
    cls.name: cls
    for cls in (PrepareCold, HPAMineK3, HPASwapFault, HPAUpdateDynamic, SweepCold, ReportWarm)
}


def make_workload(name: str, seed: int, smoke: bool, tmp_root: Path) -> Workload:
    return _CLASSES[name](seed, smoke, tmp_root)
