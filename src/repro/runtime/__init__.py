"""The cluster runtime layer: declarative configs -> wired clusters.

This package is the composition root between the remote-memory
machinery (:mod:`repro.core`, :mod:`repro.cluster`) and the mining
drivers (:mod:`repro.mining.hpa`, :mod:`repro.mining.npa`):

- :class:`~repro.runtime.config.RunConfig` — one validated, declarative
  description of a simulated execution (:class:`~repro.errors.ConfigError`
  on any contradictory combination);
- :func:`~repro.runtime.builder.build_runtime` — turns a config into a
  :class:`~repro.runtime.builder.ClusterRuntime` (env, cluster, stores,
  monitors, clients, pagers, swap managers, shortage wiring);
- :class:`~repro.runtime.driver.MiningDriver` — the run scaffolding both
  drivers share (pass loop, barriers, telemetry, shortage injection);
- :class:`~repro.runtime.results.PassResult` /
  :class:`~repro.runtime.results.RunResult` — driver-independent result
  types;
- :class:`~repro.runtime.scenarios.Scenario` and
  :func:`~repro.runtime.scenarios.run_scenario` — named, serialisable
  run descriptions with an explicit, bounded, clearable result cache;
- :class:`~repro.runtime.store.ResultStore` — the persistent,
  content-addressed second cache tier beneath the in-memory
  :class:`~repro.runtime.scenarios.ScenarioCache`, activated with
  :func:`~repro.runtime.store.result_store_session` (what makes sweeps
  resumable across processes and invocations).
"""

from repro.runtime.config import (
    PAGERS,
    PLACEMENT_POLICIES,
    REPLACEMENT_POLICIES,
    RunConfig,
    validate_config,
)
from repro.runtime.results import PassResult, RunResult
from repro.runtime.builder import ClusterRuntime, build_runtime
from repro.runtime.driver import MiningDriver, SendWindow
from repro.runtime.scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioCache,
    cache_stats,
    clear_cache,
    get_scenario,
    install_result,
    list_scenarios,
    lookup_scenario,
    paper_limited,
    register_scenario,
    run_scenario,
)
from repro.runtime.store import (
    ResultStore,
    current_result_store,
    result_from_dict,
    result_store_session,
    result_to_dict,
)

__all__ = [
    "RunConfig",
    "validate_config",
    "PAGERS",
    "REPLACEMENT_POLICIES",
    "PLACEMENT_POLICIES",
    "PassResult",
    "RunResult",
    "ClusterRuntime",
    "build_runtime",
    "MiningDriver",
    "SendWindow",
    "Scenario",
    "ScenarioCache",
    "run_scenario",
    "lookup_scenario",
    "install_result",
    "clear_cache",
    "cache_stats",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "paper_limited",
    "SCENARIOS",
    "ResultStore",
    "current_result_store",
    "result_store_session",
    "result_to_dict",
    "result_from_dict",
]
