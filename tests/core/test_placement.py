"""Tests for swap-destination placement policies."""

import pytest

from repro.core import (
    MigrateAheadPlacement,
    MostAvailableFirst,
    PredictivePlacement,
    RoundRobinPlacement,
    make_placement,
)
from repro.core.monitor import AvailabilityInfo
from repro.errors import NoMemoryAvailable
from tests.core.helpers import make_rig


def primed_rig(n_mem=3):
    rig = make_rig(n_app=1, n_mem=n_mem, pager_kind="none", limit_bytes=None)
    rig.env.run(until=0.5)  # let first broadcasts land
    return rig


def feed(client, node_id, available, seq, *, ts=0.0, shortage=False):
    """Hand a broadcast to ``client`` as if the monitor had sent it."""
    client.receive(AvailabilityInfo(
        node_id=node_id,
        available_bytes=available,
        shortage=shortage,
        seq=seq,
        timestamp=ts,
    ))


def test_most_available_picks_max():
    rig = primed_rig()
    client = rig.clients[0]
    m0, m1, m2 = rig.mem_ids
    client.adjust_estimate(m0, -10_000)
    client.adjust_estimate(m2, -20_000)
    assert MostAvailableFirst().choose(client, 100) == m1


def test_most_available_respects_exclude():
    rig = primed_rig()
    client = rig.clients[0]
    best = MostAvailableFirst().choose(client, 100)
    second = MostAvailableFirst().choose(client, 100, exclude={best})
    assert second != best


def test_no_candidates_raises():
    rig = make_rig(n_app=1, n_mem=1, pager_kind="none", limit_bytes=None)
    # No broadcasts received yet at t=0.
    with pytest.raises(NoMemoryAvailable):
        MostAvailableFirst().choose(rig.clients[0], 100)


def test_needed_bytes_filters():
    rig = primed_rig(n_mem=2)
    client = rig.clients[0]
    m0, m1 = rig.mem_ids
    cap = client.available_bytes(m0)
    client.adjust_estimate(m0, -(cap - 10))  # m0 has only 10 bytes left
    assert MostAvailableFirst().choose(client, 100) == m1
    with pytest.raises(NoMemoryAvailable):
        MostAvailableFirst().choose(client, 100, exclude={m1})


def test_shortage_nodes_skipped():
    rig = primed_rig(n_mem=2)
    m0, m1 = rig.mem_ids

    def proc(env):
        rig.monitors[m0].signal_shortage()
        yield env.timeout(0.2)

    rig.env.process(proc(rig.env))
    rig.env.run(until=1.0)
    choice = MostAvailableFirst().choose(rig.clients[0], 100)
    assert choice == m1


def test_round_robin_cycles():
    rig = primed_rig(n_mem=3)
    client = rig.clients[0]
    rr = RoundRobinPlacement()
    picks = [rr.choose(client, 100) for _ in range(6)]
    assert picks[:3] == sorted(rig.mem_ids)
    assert picks[3:] == sorted(rig.mem_ids)


def test_predictive_smooths_over_broadcasts():
    rig = primed_rig(n_mem=2)
    client = rig.clients[0]
    m0, m1 = rig.mem_ids
    pol = PredictivePlacement()
    now = rig.env.now
    feed(client, m0, 200_000, seq=50, ts=now)
    feed(client, m1, 100_000, seq=50, ts=now)
    pol.choose(client, 100)  # fold the first broadcasts
    # m0 crashes to 60k; the smoothed estimate (130k) still beats m1's
    # steady 100k, while the raw table now prefers m1.
    feed(client, m0, 60_000, seq=51, ts=now)
    feed(client, m1, 100_000, seq=51, ts=now)
    assert MostAvailableFirst().choose(client, 100) == m1
    assert pol.choose(client, 100) == m0


def test_predictive_staleness_decay():
    rig = primed_rig(n_mem=2)
    client = rig.clients[0]
    m0, m1 = rig.mem_ids
    pol = PredictivePlacement()
    now = rig.env.now
    # m0's bigger estimate is ten tau old; m1's smaller one is fresh.
    feed(client, m0, 500_000, seq=50, ts=now - 5.0)
    feed(client, m1, 100_000, seq=50, ts=now)
    assert pol.choose(client, 100) == m1


class FakePager:
    def __init__(self):
        self.calls = []

    def migrate_from(self, node_id):
        # Record eagerly: the policy wraps the generator in a process
        # that the test environment never steps.
        self.calls.append(node_id)

        def _noop():
            return
            yield  # pragma: no cover - generator marker

        return _noop()


def test_migrate_ahead_evacuates_predicted_full_node():
    rig = primed_rig(n_mem=2)
    client = rig.clients[0]
    m0, m1 = rig.mem_ids
    pol = MigrateAheadPlacement()
    pager = FakePager()
    pol.attach_pager(pager)
    now = rig.env.now
    feed(client, m0, 100_000, seq=50, ts=now - 0.01)
    feed(client, m1, 90_000, seq=50, ts=now - 0.01)
    pol.choose(client, 100)
    # m0 plunges: the smoothed trajectory extrapolates below zero
    # within the horizon -> proactive evacuation, m0 avoided.
    feed(client, m0, 10_000, seq=51, ts=now)
    feed(client, m1, 90_000, seq=51, ts=now)
    assert pol.choose(client, 100) == m1
    assert pager.calls == [m0]
    assert m0 in pol._evacuated
    # The trigger fires once per decline, not on every choice.
    assert pol.choose(client, 100) == m1
    assert pager.calls == [m0]
    # A recovering trajectory re-arms the node.
    feed(client, m0, 80_000, seq=52, ts=now + 0.01)
    feed(client, m1, 90_000, seq=52, ts=now + 0.01)
    pol.choose(client, 100)
    assert m0 not in pol._evacuated


def test_migrate_ahead_without_pager_degrades_to_predictive():
    rig = primed_rig(n_mem=2)
    client = rig.clients[0]
    m0, m1 = rig.mem_ids
    pol = MigrateAheadPlacement()
    now = rig.env.now
    feed(client, m0, 100_000, seq=50, ts=now - 0.01)
    feed(client, m1, 90_000, seq=50, ts=now - 0.01)
    pol.choose(client, 100)
    feed(client, m0, 10_000, seq=51, ts=now)
    feed(client, m1, 90_000, seq=51, ts=now)
    assert pol.choose(client, 100) == m1
    assert not pol._evacuated


@pytest.mark.parametrize(
    "name", ["most-available", "round-robin", "predictive", "migrate-ahead"]
)
def test_all_policies_skip_shortage_nodes(name):
    rig = primed_rig(n_mem=2)
    m0, m1 = rig.mem_ids

    def proc(env):
        rig.monitors[m0].signal_shortage()
        yield env.timeout(0.2)

    rig.env.process(proc(rig.env))
    rig.env.run(until=1.0)
    assert make_placement(name).choose(rig.clients[0], 100) == m1


def test_make_placement():
    assert isinstance(make_placement("most-available"), MostAvailableFirst)
    assert isinstance(make_placement("round-robin"), RoundRobinPlacement)
    assert isinstance(make_placement("predictive"), PredictivePlacement)
    assert isinstance(make_placement("migrate-ahead"), MigrateAheadPlacement)
    # migrate-ahead extends predictive; the registry must keep the
    # subclass addressable under its own name only.
    assert type(make_placement("predictive")) is PredictivePlacement
    with pytest.raises(ValueError):
        make_placement("nope")
