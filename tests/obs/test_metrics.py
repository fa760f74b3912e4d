"""Tests for the metrics fold: counters, gauges and histograms derived
from an event list by ``metrics_of`` / ``merged_histogram``."""

import numpy as np
import pytest

from repro.errors import HarnessError
from repro.obs import (
    Histogram,
    LATENCY_BUCKETS_S,
    ObsEvent,
    merged_histogram,
    metrics_of,
)


def _ev(kind, node=0, *, time=0.0, run=0, detail="", **fields):
    return ObsEvent(time=time, node_id=node, kind=kind, detail=detail,
                    run=run, fields=fields)


def _series(payload, section, name):
    """{sorted label items: entry} for every series of ``name``."""
    return {
        tuple(sorted(e["labels"].items())): e
        for e in payload[section] if e["name"] == name
    }


def test_counter_monotonic():
    events = [
        _ev("fault", 2, source="disk", bytes=4096),
        _ev("fault", 2, source="disk", bytes=1),
    ]
    (entry,) = _series(metrics_of(events), "counters", "fault_bytes_in").values()
    assert entry["value"] == 4097
    # events.jsonl read back is outside input: a negative amount is refused.
    with pytest.raises(HarnessError):
        metrics_of(events + [_ev("fault", 2, source="disk", bytes=-1)])


def test_gauge_last_value():
    events = [
        _ev("monitor-broadcast", 8, available_bytes=10),
        _ev("monitor-broadcast", 8, available_bytes=3),
    ]
    (entry,) = metrics_of(events)["gauges"]
    assert (entry["value"], entry["n_sets"]) == (3, 2)


def test_histogram_bucket_assignment():
    h = Histogram((0.5, 1.0, 1.5, 4.0, 100.0), buckets=(1.0, 2.0, 5.0))
    # bisect_left: a value equal to a bound lands in that bound's bucket.
    assert h.bucket_counts == [2, 1, 1, 1]
    assert h.count == 5
    assert h.min == 0.5
    assert h.max == 100.0
    assert h.mean == pytest.approx(sum((0.5, 1.0, 1.5, 4.0, 100.0)) / 5)


def test_histogram_percentiles_match_numpy():
    rng = np.random.default_rng(7)
    samples = rng.exponential(0.003, size=500)
    h = Histogram((float(s) for s in samples), buckets=LATENCY_BUCKETS_S)
    for p in (0, 10, 50, 90, 99, 100):
        assert h.percentile(p) == pytest.approx(float(np.percentile(samples, p)))
    with pytest.raises(HarnessError):
        h.percentile(101)
    with pytest.raises(HarnessError):
        h.percentile(-1)


def test_histogram_empty_and_validation():
    h = Histogram((), buckets=(1.0,))
    assert h.count == 0
    assert h.mean == 0.0
    assert h.percentile(50) == 0.0
    with pytest.raises(HarnessError):
        Histogram((1.0,), buckets=())


def test_histogram_sum_keeps_sample_order():
    # Plain float += in the given order, not over the sorted samples
    # (which would give 1.0000000000000002 here).
    assert Histogram((1.0, 1e-16, 1e-16)).sum == 1.0
    events = [_ev("fault", 0, source="disk", duration_s=d)
              for d in (1.0, 1e-16, 1e-16)]
    (entry,) = metrics_of(events)["histograms"]
    assert entry["sum"] == 1.0


def test_registry_keyed_by_name_and_labels():
    events = [
        _ev("fault", 0, source="remote"),
        _ev("fault", 1, source="remote"),
        _ev("fault", 1, source="remote"),
    ]
    faults = _series(metrics_of(events), "counters", "pagefaults")
    assert faults[(("node", 0), ("source", "remote"))]["value"] == 1
    assert faults[(("node", 1), ("source", "remote"))]["value"] == 2
    assert (("node", 2), ("source", "remote")) not in faults
    assert len(faults) == 2


def test_registry_collect_and_to_dict():
    events = [_ev("net-msg", 0, channel="count") for _ in range(3)]
    events += [
        _ev("monitor-broadcast", 8, available_bytes=12345),
        _ev("fault", 0, source="disk", duration_s=0.002),
    ]
    payload = metrics_of(events)
    assert [(e["name"], e["labels"], e["value"]) for e in payload["counters"]] == [
        ("net_messages", {"channel": "count"}, 3),
        ("pagefaults", {"node": 0, "source": "disk"}, 1),
    ]
    assert [e["name"] for e in payload["gauges"]] == ["monitor_available_bytes"]
    (hist,) = payload["histograms"]
    assert hist["name"] == "pagefault_latency_s"
    assert hist["count"] == 1
    assert hist["percentiles"]["p50"] == pytest.approx(0.002)
    # A pure fold: the same list folds to the same payload again.
    assert metrics_of(events) == payload
    assert metrics_of([]) == {"counters": [], "gauges": [], "histograms": []}


def test_merged_histogram_folds_label_sets():
    events = [
        _ev("fault", 0, source="remote", duration_s=0.0005),
        _ev("fault", 1, source="remote", duration_s=0.005),
        _ev("fault", 1, source="disk", duration_s=0.5),
    ]
    merged = merged_histogram("pagefault_latency_s", events)
    assert merged.count == 3
    assert merged.bucket_counts == [1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0]
    assert merged_histogram("span_s", events) is None
