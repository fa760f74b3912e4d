"""Trace export round-trip: JSONL, Chrome trace, metrics percentiles."""

import json

import numpy as np
import pytest

from repro.datagen import generate
from repro.mining.hpa import HPAConfig, HPARun
from repro.obs import merged_histogram, metrics_of
from repro.obs.export import (
    chrome_trace_events,
    read_events_jsonl,
    read_manifest,
    read_metrics_json,
    write_trace_dir,
)

DB = generate("T8.I3.D400", n_items=80, seed=3)


@pytest.fixture(scope="module")
def traced_run():
    run = HPARun(
        DB,
        HPAConfig(
            minsup=0.02, n_app_nodes=2, total_lines=256, max_k=2,
            pager="disk", memory_limit_bytes=6000,
        ),
    )
    tel = run.enable_telemetry()
    run.run()
    return run, tel


def test_jsonl_roundtrip_preserves_events(tmp_path, traced_run):
    _, tel = traced_run
    paths = write_trace_dir(tmp_path / "trc", tel, {"scale": "test"})
    back = read_events_jsonl(paths["events"])
    assert len(back) == len(tel.events)
    # Exact reconstruction: same order, same content.
    assert back == tel.events
    # Emission order is time order within the single run.
    times = [e.time for e in back]
    assert times == sorted(times)


def test_chrome_trace_format(tmp_path, traced_run):
    _, tel = traced_run
    paths = write_trace_dir(tmp_path / "trc", tel, {})
    payload = json.loads(paths["chrome_trace"].read_text())
    assert payload["displayTimeUnit"] == "ms"
    trace_events = payload["traceEvents"]
    assert len(trace_events) == len(tel.events)
    spans = [e for e in trace_events if e["ph"] == "X"]
    assert len(spans) == len(tel.events_of_kind("span"))
    for span in spans:
        assert span["dur"] >= 0
        assert span["cat"] == "span"
    instants = [e for e in trace_events if e["ph"] == "i"]
    assert len(instants) == len(tel.events) - len(spans)
    # Same conversion as the in-memory helper.
    assert trace_events == chrome_trace_events(tel.events)


def test_metrics_json_percentiles_exact(tmp_path, traced_run):
    _, tel = traced_run
    paths = write_trace_dir(tmp_path / "trc", tel, {})
    metrics = read_metrics_json(paths["metrics"])
    # metrics.json is the fold of the event log, in memory or read back.
    assert metrics == metrics_of(tel.events)
    assert metrics == metrics_of(read_events_jsonl(paths["events"]))
    checked = 0
    for entry in metrics["histograms"]:
        if entry["name"] != "pagefault_latency_s":
            continue
        durations = [
            e.fields["duration_s"] for e in tel.events_of_kind("fault")
            if e.node_id == entry["labels"]["node"]
            and e.fields["source"] == entry["labels"]["source"]
        ]
        assert entry["count"] == len(durations)
        for p in (50, 90, 99):
            assert entry["percentiles"][f"p{p}"] == pytest.approx(
                float(np.percentile(durations, p))
            )
        checked += 1
    assert checked > 0  # the run did produce latency histograms


def test_manifest_augmented(tmp_path, traced_run):
    _, tel = traced_run
    paths = write_trace_dir(
        tmp_path / "trc", tel, {"experiments": ["x"], "scale": "test"}
    )
    manifest = read_manifest(paths["manifest"])
    assert manifest["scale"] == "test"
    assert manifest["n_runs"] == len(tel.runs) == 1
    assert manifest["n_events"] == len(tel.events)
    assert manifest["n_metrics"] == sum(map(len, metrics_of(tel.events).values()))
    assert manifest["runs"][0]["driver"] == "hpa"
    assert manifest["runs"][0]["faults"] > 0


def test_trace_summarizer_consistency(tmp_path, traced_run):
    """The trace summary's histogram mean must agree with the run's reported
    per-fault cost (both derive from the same durations)."""
    from repro.obs.summary import summarize

    _, tel = traced_run
    write_trace_dir(tmp_path / "trc", tel, {"experiments": ["x"]})
    text = summarize(tmp_path / "trc")
    assert "per-phase timings" in text
    assert "pagefault_latency_s" in text
    hist = merged_histogram("pagefault_latency_s", tel.events)
    reported_mean_ms = (
        tel.runs[0]["fault_time_s"] / tel.runs[0]["faults"] * 1e3
    )
    assert hist.mean * 1e3 == pytest.approx(reported_mean_ms)
    assert f"mean {reported_mean_ms:.3f} ms" in text


def test_trace_summarizer_renders_byte_histograms_in_bytes(tmp_path, traced_run):
    from repro.obs.summary import summarize

    _, tel = traced_run
    write_trace_dir(tmp_path / "trc", tel, {"experiments": ["x"]})
    text = summarize(tmp_path / "trc", "message_size_bytes")
    hist = merged_histogram("message_size_bytes", tel.events)
    assert hist is not None and hist.count > 0
    assert (
        f"mean {hist.mean:.3f} B, min {hist.min:.3f} B, max {hist.max:.3f} B"
        in text
    )
    assert " ms" not in text.split("message_size_bytes", 1)[1].splitlines()[0]
