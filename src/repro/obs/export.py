"""Trace export: JSONL events, Chrome ``trace_event`` timelines,
``metrics.json`` and ``manifest.json``.

A trace directory written by :func:`write_trace_dir` contains::

    manifest.json   scale, seed, per-run configs, versions, wall time
    events.jsonl    one ObsEvent per line, in emission order
    metrics.json    counters/gauges/histograms folded from the events
    trace.json      Chrome trace_event format — open in chrome://tracing
                    or https://ui.perfetto.dev for a timeline view

The event log is the one recorded product: :func:`read_events_jsonl`
reconstructs the exact event list, and ``metrics.json`` is
:func:`~repro.obs.metrics.metrics_of` of it, so folding ``events.jsonl``
read back gives the same payload (tested in
``tests/obs/test_export_roundtrip.py``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.obs.events import ObsEvent
from repro.obs.metrics import metrics_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.telemetry import Telemetry

__all__ = [
    "write_events_jsonl",
    "read_events_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_metrics_json",
    "read_metrics_json",
    "write_manifest",
    "read_manifest",
    "write_trace_dir",
]


def _event_to_obj(event: ObsEvent) -> dict:
    obj = {
        "t": event.time,
        "node": event.node_id,
        "kind": event.kind,
        "run": event.run,
    }
    if event.detail:
        obj["detail"] = event.detail
    if event.fields:
        obj["fields"] = event.fields
    return obj


def _event_from_obj(obj: dict) -> ObsEvent:
    return ObsEvent(
        time=obj["t"],
        node_id=obj["node"],
        kind=obj["kind"],
        detail=obj.get("detail", ""),
        run=obj.get("run", 0),
        fields=obj.get("fields", {}),
    )


def write_events_jsonl(events: Iterable[ObsEvent], path) -> Path:
    """One compact JSON object per event, in order."""
    path = Path(path)
    with path.open("w") as fh:
        for event in events:
            fh.write(json.dumps(_event_to_obj(event), separators=(",", ":")))
            fh.write("\n")
    return path


def read_events_jsonl(path) -> list[ObsEvent]:
    """Reconstruct the event list written by :func:`write_events_jsonl`."""
    events = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(_event_from_obj(json.loads(line)))
    return events


def chrome_trace_events(events: Iterable[ObsEvent]) -> list[dict]:
    """Convert to Chrome ``trace_event`` JSON objects.

    Spans become complete ("X") events; everything else becomes an
    instant ("i") event.  ``pid`` is the run id (each run gets its own
    process lane), ``tid`` the node id (-1, cluster-wide, renders as its
    own track).  Timestamps are microseconds of virtual time.
    """
    out = []
    for event in events:
        if event.kind == "span":
            out.append(
                {
                    "name": event.detail or "span",
                    "cat": "span",
                    "ph": "X",
                    "ts": event.fields.get("start", event.time) * 1e6,
                    "dur": event.fields.get("duration_s", 0.0) * 1e6,
                    "pid": event.run,
                    "tid": event.node_id,
                }
            )
        else:
            out.append(
                {
                    "name": event.detail or event.kind,
                    "cat": event.kind,
                    "ph": "i",
                    "s": "t",
                    "ts": event.time * 1e6,
                    "pid": event.run,
                    "tid": event.node_id,
                    "args": event.fields,
                }
            )
    return out


def write_chrome_trace(events: Iterable[ObsEvent], path) -> Path:
    path = Path(path)
    payload = {"traceEvents": chrome_trace_events(events), "displayTimeUnit": "ms"}
    path.write_text(json.dumps(payload))
    return path


def write_metrics_json(metrics: dict, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(metrics, indent=2))
    return path


def read_metrics_json(path) -> dict:
    return json.loads(Path(path).read_text())


def write_manifest(manifest: dict, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(manifest, indent=2))
    return path


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text())


def write_trace_dir(directory, telemetry: "Telemetry", manifest: dict) -> dict:
    """Write the full trace layout; returns {artifact name: path}.

    ``manifest`` is augmented with the telemetry's per-run entries and
    event/metric counts before writing; the metrics are folded from the
    event log here.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    metrics = metrics_of(telemetry.events)
    manifest = dict(manifest)
    manifest.setdefault("runs", telemetry.runs)
    manifest.setdefault("n_runs", len(telemetry.runs))
    manifest.setdefault("n_events", len(telemetry.events))
    manifest.setdefault("n_metrics", sum(map(len, metrics.values())))
    return {
        "manifest": write_manifest(manifest, directory / "manifest.json"),
        "events": write_events_jsonl(telemetry.events, directory / "events.jsonl"),
        "metrics": write_metrics_json(metrics, directory / "metrics.json"),
        "chrome_trace": write_chrome_trace(telemetry.events, directory / "trace.json"),
    }
