"""Unified telemetry: metrics registry, event bus, traces, manifests.

The paper's whole evaluation is observational — pagefault counts,
per-pass execution profiles, swap traffic, fault-latency distributions
(Tables 2-4, Figures 3-5).  This package makes those quantities
first-class outputs of *any* run instead of bespoke benchmark code:

- :class:`~repro.obs.events.EventBus` — multi-subscriber bus carrying
  timestamped, structured :class:`~repro.obs.events.ObsEvent` records
  from every layer (pagers, swap manager, monitors, placement, network,
  mining drivers);
- :class:`~repro.obs.metrics.MetricsRegistry` — named counters, gauges
  and fixed-bucket + quantile histograms keyed by node/component;
- :class:`~repro.obs.telemetry.Telemetry` — bundles bus + registry,
  wires them into an :class:`~repro.mining.hpa.HPARun` or
  :class:`~repro.mining.npa.NPARun`, and records phase/span timings on
  the simulation clock;
- :class:`~repro.obs.sampler.UtilizationSampler` — periodic CPU /
  memory / network snapshots taken by a simulated process;
- :mod:`~repro.obs.export` — JSONL event traces, Chrome
  ``trace_event``-format timelines, ``metrics.json`` and per-run
  ``manifest.json``;
- ``repro-trace`` (:mod:`~repro.obs.cli`) — renders per-phase timings
  and latency histograms from an exported trace directory.
"""

from repro.obs.context import current_telemetry, emit_ambient, telemetry_session
from repro.obs.events import EventBus, ObsEvent
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_S,
    MetricsRegistry,
    SIZE_BUCKETS_B,
)
from repro.obs.sampler import UtilizationSample, UtilizationSampler
from repro.obs.telemetry import Telemetry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS_S",
    "SIZE_BUCKETS_B",
    "EventBus",
    "ObsEvent",
    "Telemetry",
    "UtilizationSample",
    "UtilizationSampler",
    "current_telemetry",
    "emit_ambient",
    "telemetry_session",
]
