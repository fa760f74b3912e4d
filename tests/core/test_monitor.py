"""Tests for the availability monitor and client."""

import pytest

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
