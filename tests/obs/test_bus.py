"""Tests for the event bus, the Telemetry runtime, and ambient sessions."""

import pytest

from repro.obs import (
    EventBus,
    ObsEvent,
    Telemetry,
    current_telemetry,
    merged_histogram,
    metrics_of,
    telemetry_session,
)


def test_multiple_subscribers_all_receive():
    bus = EventBus()
    seen_a, seen_b = [], []
    bus.subscribe(seen_a.append)
    bus.subscribe(seen_b.append)
    bus.emit("fault", 3, line=7, duration_s=0.002)
    assert len(seen_a) == len(seen_b) == 1
    ev = seen_a[0]
    assert (ev.kind, ev.node_id, ev.detail) == ("fault", 3, "")
    assert ev.fields == {"line": 7, "duration_s": 0.002}


def test_detail_is_keyword_only():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    with pytest.raises(TypeError):
        bus.emit("phase", -1, "pass2")
    bus.emit("phase", -1, detail="pass2")
    assert seen[0].detail == "pass2"


def test_unsubscribe_and_no_subscriber_fast_path():
    bus = EventBus()
    # No subscribers: emit is a no-op, not an error.
    bus.emit("fault", 0)
    seen = []
    fn = bus.subscribe(seen.append)
    bus.unsubscribe(fn)
    bus.unsubscribe(fn)  # unknown subscriber ignored
    bus.emit("fault", 0)
    assert seen == []
    assert bus.n_subscribers == 0


def test_clock_and_run_tagging():
    t = {"now": 1.5}
    bus = EventBus(clock=lambda: t["now"])
    seen = []
    bus.subscribe(seen.append)
    bus.emit("a", 0)
    bus.run = 1
    t["now"] = 0.25  # a new run's clock restarts
    bus.emit("b", 0)
    assert (seen[0].time, seen[0].run) == (1.5, -1)
    assert (seen[1].time, seen[1].run) == (0.25, 1)


def test_telemetry_derives_metrics_from_events():
    tel = Telemetry()
    # The event log is the one thing telemetry records.
    assert tel.bus.n_subscribers == 1
    tel.bus.emit("fault", 2, line=9, holder=8, source="remote",
                 duration_s=0.0023, bytes=4096)
    tel.bus.emit("fault", 2, line=4, source="disk",
                 duration_s=0.013, bytes=4096)
    tel.bus.emit("swap-out", 2, line=9, dst=8, source="remote", bytes=4096)
    tel.bus.emit("net-msg", 0, dst=1, channel="count",
                 size_bytes=4096, wire_bytes=4192, duration_s=0.001)
    tel.bus.emit("monitor-broadcast", 8, available_bytes=1 << 20)
    metrics = metrics_of(tel.events)
    values = {
        (e["name"], tuple(sorted(e["labels"].items()))): e["value"]
        for e in metrics["counters"] + metrics["gauges"]
    }
    assert values[("pagefaults", (("node", 2), ("source", "remote")))] == 1
    assert values[("pagefaults", (("node", 2), ("source", "disk")))] == 1
    assert values[("fault_bytes_in", (("node", 2),))] == 8192
    assert values[("swap_outs", (("node", 2), ("source", "remote")))] == 1
    assert values[("net_messages", (("channel", "count"),))] == 1
    assert values[("monitor_available_bytes", (("node", 8),))] == 1 << 20
    (hist,) = [
        h for h in metrics["histograms"]
        if h["name"] == "pagefault_latency_s"
        and h["labels"] == {"node": 2, "source": "remote"}
    ]
    assert hist["count"] == 1 and hist["mean"] == pytest.approx(0.0023)
    assert tel.counts_by_kind() == {
        "fault": 2, "swap-out": 1, "net-msg": 1, "monitor-broadcast": 1,
    }
    assert len(tel.events_of_kind("fault")) == 2


def test_phase_span_and_timer():
    tel = Telemetry()
    tel.phase_mark("pass 2 start")
    tel.span("pass2/counting", 1.0, 3.5)
    spans = tel.events_of_kind("span")
    assert spans[0].detail == "pass2/counting"
    assert spans[0].fields["duration_s"] == pytest.approx(2.5)
    assert tel.events_of_kind("phase")[0].detail == "pass 2 start"
    # Spans also fold into the span_s histogram.
    merged = merged_histogram("span_s", tel.events)
    assert merged.count == 1


def test_begin_and_end_run_bookkeeping():
    tel = Telemetry()

    class FakeEnv:
        now = 7.0

    run_id = tel.begin_run(FakeEnv(), {"driver": "hpa"})
    assert run_id == 0
    tel.bus.emit("fault", 0)
    tel.end_run(total_time_s=12.5, faults=1)
    assert tel.runs[0]["driver"] == "hpa"
    assert tel.runs[0]["total_time_s"] == 12.5
    assert tel.events[0].time == 7.0
    assert tel.begin_run(FakeEnv(), None) == 1
    assert tel.bus.run == 1


def test_host_side_events_carry_no_run():
    """Outside a run — before the first and after ``end_run`` — the bus
    stamps run -1 and time 0.0, never the last run's id and clock."""
    tel = Telemetry()

    class FakeEnv:
        now = 7.0

    tel.bus.emit("sweep-start", -1)
    tel.begin_run(FakeEnv(), None)
    tel.bus.emit("fault", 0)
    tel.end_run()
    tel.bus.emit("sweep-run", -1)
    assert [(e.kind, e.run, e.time) for e in tel.events] == [
        ("sweep-start", -1, 0.0), ("fault", 0, 7.0), ("sweep-run", -1, 0.0),
    ]


def test_telemetry_session_is_ambient_and_nests():
    assert current_telemetry() is None
    outer, inner = Telemetry(), Telemetry()
    with telemetry_session(outer) as t:
        assert t is outer
        assert current_telemetry() is outer
        with telemetry_session(inner):
            assert current_telemetry() is inner
        assert current_telemetry() is outer
    assert current_telemetry() is None
