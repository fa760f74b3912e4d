"""Tests for the availability monitor and client."""

import pytest

from repro.core import PredictivePlacement
from repro.core.monitor import AvailabilityInfo
from tests.core.helpers import make_rig


def test_broadcasts_arrive_periodically():
    rig = make_rig(n_app=2, n_mem=2, pager_kind="none", limit_bytes=None)
    rig.env.run(until=10.0)
    # Interval 3 s: broadcasts at t=0, 3, 6, 9 -> 4 per monitor per client.
    assert all(m.interval_s == 3.0 for m in rig.monitors.values())  # §5.1
    for a in rig.app_ids:
        client = rig.clients[a]
        assert set(client.table) == set(rig.mem_ids)
        assert client.reports_received == 4 * len(rig.mem_ids)


def test_reported_availability_tracks_ledger():
    rig = make_rig(n_app=1, n_mem=1, pager_kind="none", limit_bytes=None)
    m = rig.mem_ids[0]
    rig.env.run(until=1.0)
    first = rig.clients[0].available_bytes(m)
    assert first == rig.cluster[m].memory.available_bytes
    # Claim memory on the node; next broadcast reflects it.
    rig.cluster[m].memory.allocate(10_000_000)
    rig.env.run(until=4.0)
    assert rig.clients[0].available_bytes(m) == first - 10_000_000


def test_shortage_signal_broadcasts_immediately():
    rig = make_rig(n_app=1, n_mem=2, pager_kind="none", limit_bytes=None)
    m = rig.mem_ids[0]
    seen = []

    def watch(env):
        yield env.timeout(1.0)
        rig.monitors[m].signal_shortage()
        yield env.timeout(0.1)  # far less than the 3 s interval
        seen.append(rig.clients[0].available_bytes(m))
        seen.append(rig.clients[0].table[m].shortage)

    rig.env.process(watch(rig.env))
    rig.env.run(until=2.0)
    assert seen == [0, True]


def test_shortage_handler_fires_once():
    rig = make_rig(n_app=1, n_mem=1, pager_kind="none", limit_bytes=None)
    m = rig.mem_ids[0]
    fired = []

    def handler(node_id):
        fired.append((node_id, rig.env.now))
        return
        yield  # pragma: no cover

    rig.clients[0].shortage_handlers.append(handler)

    def trigger(env):
        yield env.timeout(1.0)
        rig.monitors[m].signal_shortage()

    rig.env.process(trigger(rig.env))
    rig.env.run(until=10.0)  # several broadcast intervals with shortage on
    assert len(fired) == 1
    assert fired[0][0] == m
    assert fired[0][1] == pytest.approx(1.0, abs=0.1)


def test_clear_shortage_restores_availability():
    rig = make_rig(n_app=1, n_mem=1, pager_kind="none", limit_bytes=None)
    m = rig.mem_ids[0]

    def script(env):
        yield env.timeout(1.0)
        rig.monitors[m].signal_shortage()
        yield env.timeout(1.0)
        rig.monitors[m].clear_shortage()

    rig.env.process(script(rig.env))
    rig.env.run(until=7.0)
    assert rig.clients[0].available_bytes(m) > 0
    assert not rig.clients[0].table[m].shortage


def test_mark_full_is_local_until_next_broadcast():
    rig = make_rig(n_app=1, n_mem=1, pager_kind="none", limit_bytes=None)
    m = rig.mem_ids[0]
    rig.env.run(until=1.0)
    assert rig.clients[0].available_bytes(m) > 0
    rig.clients[0].mark_full(m)
    assert rig.clients[0].available_bytes(m) == 0
    rig.env.run(until=4.0)  # next broadcast refreshes the truth
    assert rig.clients[0].available_bytes(m) > 0


def test_stop_halts_monitor():
    rig = make_rig(n_app=1, n_mem=1, pager_kind="none", limit_bytes=None)
    m = rig.mem_ids[0]
    rig.env.run(until=1.0)
    count = rig.clients[0].reports_received
    rig.monitors[m].stop()
    rig.env.run(until=10.0)
    assert rig.clients[0].reports_received == count


def test_monitor_interval_validation():
    with pytest.raises(ValueError):
        make_rig(n_app=1, n_mem=1, pager_kind="none", limit_bytes=None,
                 monitor_interval=0.0)


def test_shorter_interval_more_broadcasts():
    rig_fast = make_rig(n_app=1, n_mem=1, pager_kind="none", limit_bytes=None,
                        monitor_interval=1.0)
    rig_fast.env.run(until=9.5)
    rig_slow = make_rig(n_app=1, n_mem=1, pager_kind="none", limit_bytes=None,
                        monitor_interval=3.0)
    rig_slow.env.run(until=9.5)
    m_fast = rig_fast.monitors[rig_fast.mem_ids[0]]
    m_slow = rig_slow.monitors[rig_slow.mem_ids[0]]
    assert m_fast.broadcasts_sent > 2 * m_slow.broadcasts_sent


# -- the availability estimate: a received report plus local corrections ----


def report(node_id, available, seq, *, ts=0.0, shortage=False):
    return AvailabilityInfo(
        node_id=node_id, available_bytes=available, shortage=shortage,
        seq=seq, timestamp=ts,
    )


def quiet_client():
    """A client no broadcast has reached (the rig is never run)."""
    rig = make_rig(n_app=1, n_mem=2, pager_kind="none", limit_bytes=None)
    return rig.clients[0], rig.mem_ids


def test_estimate_clamps_at_zero_at_each_adjustment():
    client, (m, _) = quiet_client()
    client.receive(report(m, 1000, seq=1))
    client.adjust_estimate(m, -1500)
    assert client.available_bytes(m) == 0
    # Clamped per step, not a running sum (which would still be -300).
    client.adjust_estimate(m, +1200)
    assert client.available_bytes(m) == 1200


def test_fresh_broadcast_discards_local_corrections():
    client, (m, _) = quiet_client()
    first = report(m, 1000, seq=5)
    client.receive(first)
    client.adjust_estimate(m, -400)
    assert client.available_bytes(m) == 600
    assert client.table[m] is first  # the report itself stays as received
    client.receive(report(m, 900, seq=5))  # an equal seq is fresh enough
    assert client.available_bytes(m) == 900
    client.adjust_estimate(m, -100)
    client.receive(report(m, 50, seq=4))  # stale: ignored, corrections kept
    assert client.available_bytes(m) == 800
    assert client.table[m].seq == 5
    client.receive(report(m, 700, seq=6))
    assert client.available_bytes(m) == 700


def test_adjusting_an_unheard_node_does_nothing():
    client, (m, other) = quiet_client()
    client.adjust_estimate(other, +500)
    client.mark_full(other)
    assert client.available_bytes(other) == 0
    assert other not in client.table
    client.receive(report(other, 300, seq=0))
    assert client.available_bytes(other) == 300  # no correction carried over


def test_mark_full_zeroes_until_the_next_report():
    client, (m, _) = quiet_client()
    client.receive(report(m, 1000, seq=1))
    client.mark_full(m)
    assert client.available_bytes(m) == 0
    client.adjust_estimate(m, +100)  # a fault-in frees bytes again
    assert client.available_bytes(m) == 100
    client.receive(report(m, 1000, seq=2))
    assert client.available_bytes(m) == 1000


def test_predictive_placement_folds_the_adjusted_estimate():
    client, (m, _) = quiet_client()
    pol = PredictivePlacement()
    client.receive(report(m, 200_000, seq=1, ts=0.0))
    client.adjust_estimate(m, -50_000)
    pol.choose(client, 100)
    assert pol._last[m] == (0.0, 150_000.0)
    # Corrections alone are not a new broadcast: nothing is re-folded.
    client.adjust_estimate(m, -100_000)
    pol.choose(client, 100)
    assert pol._last[m] == (0.0, 150_000.0)
    client.receive(report(m, 100_000, seq=2, ts=1.0))
    client.adjust_estimate(m, -20_000)
    pol.choose(client, 100)
    assert pol._last[m] == (1.0, 0.5 * 80_000 + 0.5 * 150_000)
