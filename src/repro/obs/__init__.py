"""Unified telemetry: event bus, event log, metrics folded from it, traces.

The paper's whole evaluation is observational — pagefault counts,
per-pass execution profiles, swap traffic, fault-latency distributions
(Tables 2-4, Figures 3-5).  This package makes those quantities
first-class outputs of *any* run instead of bespoke benchmark code:

- :class:`~repro.obs.events.EventBus` — multi-subscriber bus carrying
  timestamped, structured :class:`~repro.obs.events.ObsEvent` records
  from every layer (pagers, swap manager, monitors, placement, dynamics,
  network, mining drivers) — one bus per run, held by the run's network;
- :class:`~repro.obs.telemetry.Telemetry` — bundles the bus with the
  one thing a run records, its event list, wires them into an
  :class:`~repro.mining.hpa.HPARun` or :class:`~repro.mining.npa.NPARun`,
  and records phase/span timings on the simulation clock;
- :func:`~repro.obs.metrics.metrics_of` — a pure fold of an event list
  into named counters, gauges and fixed-bucket + quantile histograms
  keyed by node/component (:func:`~repro.obs.metrics.merged_histogram`
  folds one name across its label sets);
- :mod:`~repro.obs.export` — JSONL event traces, Chrome
  ``trace_event``-format timelines, ``metrics.json`` (folded at export)
  and per-run ``manifest.json``;
- :mod:`~repro.obs.summary` (``repro-bench trace``) — renders
  per-phase timings and latency histograms from an exported
  ``events.jsonl``.
"""

from repro.obs.context import current_telemetry, emit_ambient, telemetry_session
from repro.obs.events import EventBus, ObsEvent
from repro.obs.metrics import (
    Histogram,
    LATENCY_BUCKETS_S,
    SIZE_BUCKETS_B,
    merged_histogram,
    metrics_of,
)
from repro.obs.telemetry import Telemetry

__all__ = [
    "Histogram",
    "LATENCY_BUCKETS_S",
    "SIZE_BUCKETS_B",
    "merged_histogram",
    "metrics_of",
    "EventBus",
    "ObsEvent",
    "Telemetry",
    "current_telemetry",
    "emit_ambient",
    "telemetry_session",
]
