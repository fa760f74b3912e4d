"""repro — reproduction of "Using Available Remote Memory Dynamically for
Parallel Data Mining Application on ATM-Connected PC Cluster" (IPPS 2000).

Public API tour:

- :mod:`repro.datagen` — IBM Quest-style synthetic basket data
  (``generate("T10.I4.D100K")``).
- :mod:`repro.mining` — sequential Apriori (:func:`~repro.mining.apriori`),
  rule derivation, and Hash-Partitioned Apriori on the simulated cluster
  (:class:`~repro.mining.hpa.HPAConfig`, :func:`~repro.mining.hpa.run_hpa`).
- :mod:`repro.core` — the paper's contribution: the swap manager with LRU
  hash-line eviction, disk / remote-memory / remote-update pagers, the
  availability monitors, and the migration mechanism.
- :mod:`repro.cluster` — the simulated ATM-connected PC cluster.
- :mod:`repro.sim` — the discrete-event kernel underneath it all.
- :mod:`repro.runtime` — the cluster runtime layer: declarative
  :class:`~repro.runtime.config.RunConfig`, the
  :func:`~repro.runtime.builder.build_runtime` composition root, and
  named :class:`~repro.runtime.scenarios.Scenario` runs.
- :mod:`repro.harness` — the per-table/figure experiment runners
  (also exposed as the ``repro-bench`` command).
- :mod:`repro.obs` — the telemetry subsystem: event bus, event log,
  metrics folded from it, trace export (``repro-bench run --trace`` /
  ``repro-bench trace``).
"""

from repro._version import __version__
from repro.datagen import QuestParams, TransactionDatabase, generate
from repro.mining import AprioriResult, Rule, apriori, derive_rules
from repro.mining.hpa import HPAConfig, HPARun, run_hpa
from repro.obs import Telemetry, telemetry_session
from repro.runtime import (
    ClusterRuntime,
    RunConfig,
    RunResult,
    Scenario,
    build_runtime,
    run_scenario,
)

__all__ = [
    "__version__",
    "generate",
    "QuestParams",
    "TransactionDatabase",
    "apriori",
    "AprioriResult",
    "derive_rules",
    "Rule",
    "HPAConfig",
    "HPARun",
    "run_hpa",
    "RunConfig",
    "RunResult",
    "ClusterRuntime",
    "build_runtime",
    "Scenario",
    "run_scenario",
    "Telemetry",
    "telemetry_session",
]
