"""The canonical telemetry registry (repro.obs.events) really is
canonical: instrumented runs emit no event kind and touch no metric
name outside the declared sets, and together a few tiny runs emit every
simulation-side kind.  Static coverage of the same contract is enforced
per call site by repro-lint (RPL301/RPL302)."""

from __future__ import annotations

import functools

from repro.datagen import generate
from repro.mining.hpa import HPAConfig, HPARun
from repro.obs import Telemetry, metrics_of
from repro.obs.events import EVENT_KINDS, METRIC_NAMES

DB = generate("T8.I3.D400", n_items=80, seed=3)

#: Remote pager with a disk fallback behind it: faults, evictions and
#: placements on a static cluster.
REGISTRY_CONFIG = HPAConfig(
    minsup=0.02, n_app_nodes=2, total_lines=256, max_k=2,
    pager="remote", n_memory_nodes=1, memory_limit_bytes=6000,
    disk_fallback=True,
)

#: Remote update under every dynamic: migrate-ahead placement, a
#: sawtooth churn trace, one node failure and 1 % message loss.
DYNAMIC_CONFIG = HPAConfig(
    minsup=0.02, n_app_nodes=2, total_lines=256, max_k=2,
    pager="remote-update", n_memory_nodes=2, memory_limit_bytes=6000,
    placement="migrate-ahead",
    churn="sawtooth:period=0.12,low=0.2,high=1,steps=6,stagger=1",
    failures=((0.05, 0, 0.05),), loss_probability=0.01,
    monitor_interval_s=0.02,
)

#: Every kind a simulated run may emit (sweep and report kinds come from
#: the harness and the report service, cache accesses from the host-side
#: cache tiers).
SIMULATION_KINDS = frozenset(
    k for k in EVENT_KINDS
    if not k.startswith(("sweep-", "report-")) and k != "cache-access"
)


@functools.cache
def _run(config: HPAConfig) -> Telemetry:
    tel = Telemetry()
    run = HPARun(DB, config)
    run.enable_telemetry(tel)
    run.run()
    return tel


def _instrumented_run() -> Telemetry:
    return _run(REGISTRY_CONFIG)


def test_emitted_kinds_are_all_declared():
    tel = _instrumented_run()
    emitted = {ev.kind for ev in tel.events}
    undeclared = emitted - EVENT_KINDS
    assert not undeclared, f"emit sites using undeclared kinds: {undeclared}"
    # The run exercises a meaningful slice of the vocabulary, so the
    # subset check above is not vacuous.
    assert {"fault", "swap-out", "phase", "span",
            "monitor-broadcast"} <= emitted


def test_touched_metric_names_are_all_declared():
    touched = set()
    for config in (REGISTRY_CONFIG, DYNAMIC_CONFIG):
        metrics = metrics_of(_run(config).events)
        touched |= {entry["name"] for series in metrics.values() for entry in series}
    undeclared = touched - METRIC_NAMES
    assert not undeclared, f"undeclared metric names: {undeclared}"
    assert {"pagefaults", "net_messages", "span_s", "shortages",
            "churn_steps", "node_failures"} <= touched


def test_registry_constants_are_frozen_and_disjointly_named():
    assert isinstance(EVENT_KINDS, frozenset)
    assert isinstance(METRIC_NAMES, frozenset)
    for kind in EVENT_KINDS:
        assert kind == kind.strip() and kind
    for name in METRIC_NAMES:
        assert name == name.strip() and name


def test_tiny_runs_cover_every_simulation_kind():
    emitted = {ev.kind for ev in _instrumented_run().events}
    emitted |= {ev.kind for ev in _run(DYNAMIC_CONFIG).events}
    assert emitted == SIMULATION_KINDS


def test_uninstrumented_run_adds_nothing_to_an_instrumented_one():
    # Both runs are built before either executes, so state shared
    # between their components (as a class-level bus once was) would
    # carry the traced run's bus into the lean one.
    tel = Telemetry()
    traced = HPARun(DB, DYNAMIC_CONFIG)
    lean = HPARun(DB, DYNAMIC_CONFIG)
    traced.enable_telemetry(tel)
    traced.run()
    n_events = len(tel.events)
    lean.run()
    assert lean.cluster.network.bus is None
    assert lean.telemetry is None
    assert len(tel.events) == n_events
    # The lean run did the traced run's work, so it had events to leak.
    assert lean.result.total_time_s == traced.result.total_time_s
