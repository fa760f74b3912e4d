"""Tests for the cluster availability-dynamics layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.dynamics import (
    BurstyTrace,
    ClusterDynamics,
    ConstantTrace,
    FailureEvent,
    LoadTrace,
    NodeDynamics,
    SawtoothTrace,
    NodeDynamics as _NodeDynamics,  # noqa: F401 - re-export sanity
    parse_trace,
    scripted_shortage,
)
from repro.errors import ConfigError, MiningError
from tests.core.helpers import make_rig


# ---------------------------------------------------------------------------
# parse_trace
# ---------------------------------------------------------------------------

def test_parse_none_returns_none():
    assert parse_trace("none") is None


@pytest.mark.parametrize(
    "spec, cls",
    [
        ("constant", ConstantTrace),
        ("constant:frac=0.5", ConstantTrace),
        ("sawtooth", SawtoothTrace),
        ("sawtooth:period=0.04,low=0.1,high=0.9", SawtoothTrace),
        ("sawtooth:period=0.12,low=0.2,high=1,steps=6,stagger=1", SawtoothTrace),
        ("bursty", BurstyTrace),
        ("bursty:gap=0.05,hold=0.015,frac=1", BurstyTrace),
    ],
)
def test_parse_valid_specs(spec, cls):
    trace = parse_trace(spec)
    assert isinstance(trace, cls)
    # The canonical spec round-trips to an equal trace.
    assert parse_trace(trace.spec()) == trace


@pytest.mark.parametrize(
    "spec",
    [
        "",
        "wobble",
        "none:frac=1",
        "constant:frac",
        "constant:frac=x",
        "constant:frac=1.5",
        "constant:level=0.5",
        "sawtooth:period=0",
        "sawtooth:low=0.9,high=0.1",
        "sawtooth:steps=1",
        "bursty:gap=0",
        "bursty:frac=2",
    ],
)
def test_parse_rejects_malformed(spec):
    with pytest.raises(ConfigError):
        parse_trace(spec)


def test_sawtooth_staircase_shape():
    trace = SawtoothTrace(period_s=0.08, low=0.2, high=1.0, n_steps=5)
    rng = np.random.default_rng(0)
    it = trace.steps(rng)
    first = [next(it) for _ in range(5)]
    fracs = [f for _, f in first]
    assert fracs == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])
    assert all(h == pytest.approx(0.08 / 5) for h, _ in first)
    # Periodic: the next step restarts the ramp.
    assert next(it)[1] == pytest.approx(0.2)


def test_sawtooth_stagger_draws_phase_from_rng():
    trace = SawtoothTrace(period_s=0.1, low=0.2, high=0.9, stagger=True)
    a = next(trace.steps(np.random.default_rng(1)))
    b = next(trace.steps(np.random.default_rng(2)))
    assert a[1] == b[1] == 0.2  # both hold the floor during the offset
    assert a[0] != b[0]  # ...for node-specific durations
    assert 0.0 <= a[0] < 0.1 and 0.0 <= b[0] < 0.1


def test_bursty_is_deterministic_per_seed():
    trace = BurstyTrace(gap_s=0.05, hold_s=0.015, frac=1.0)

    def take(seed, n=6):
        it = trace.steps(np.random.default_rng((seed, 3)))
        return [next(it) for _ in range(n)]

    assert take(7) == take(7)
    assert take(7) != take(8)


# ---------------------------------------------------------------------------
# NodeDynamics against a live monitor
# ---------------------------------------------------------------------------

def dynamics_rig(trace, n_mem=1, seed=0):
    rig = make_rig(
        n_app=1, n_mem=n_mem, pager_kind="none", limit_bytes=None,
        monitor_interval=0.05,
    )
    nds = []
    for i, m in enumerate(rig.mem_ids):
        nd = NodeDynamics(
            rig.monitors[m], trace, np.random.default_rng((seed, m))
        )
        nd.start()
        nds.append(nd)
    return rig, nds


def test_constant_trace_applies_pressure():
    rig, _ = dynamics_rig(ConstantTrace(fraction=0.5))
    rig.env.run(until=0.3)
    mem = rig.cluster[rig.mem_ids[0]].memory
    assert mem.external_pressure_bytes == round(0.5 * mem.capacity_bytes)
    # The broadcast truth reflects the pressure.
    client = rig.clients[0]
    assert client.available_bytes(rig.mem_ids[0]) <= mem.capacity_bytes // 2


def test_full_pressure_signals_and_clears_shortage():
    # Two steps of 0.1 s each: 30 % pressure, then a full reclaim.
    rig, _ = dynamics_rig(
        SawtoothTrace(period_s=0.2, low=0.3, high=1.0, n_steps=2)
    )
    m0 = rig.mem_ids[0]
    monitor = rig.monitors[m0]

    rig.env.run(until=0.09)
    assert not monitor.shortage
    rig.env.run(until=0.15)
    assert monitor.shortage
    assert rig.clients[0].table[m0].shortage
    rig.env.run(until=0.28)
    assert not monitor.shortage
    assert not rig.clients[0].table[m0].shortage
    mem = rig.cluster[m0].memory
    assert mem.external_pressure_bytes == round(0.3 * mem.capacity_bytes)


def test_apply_fraction_clamps():
    rig, nds = dynamics_rig(ConstantTrace(fraction=0.0))
    nd = nds[0]
    mem = rig.cluster[rig.mem_ids[0]].memory
    assert nd.apply_fraction(-2.5) == 0
    assert mem.external_pressure_bytes == 0
    level = nd.apply_fraction(7.0)
    assert level == mem.capacity_bytes
    assert rig.monitors[rig.mem_ids[0]].shortage
    nd.apply_fraction(0.25)
    assert not rig.monitors[rig.mem_ids[0]].shortage


# ---------------------------------------------------------------------------
# ClusterDynamics
# ---------------------------------------------------------------------------

def test_no_churn_no_failures_is_inert():
    rig = make_rig(n_app=1, n_mem=2, pager_kind="none", limit_bytes=None)
    dyn = ClusterDynamics(rig.env, rig.monitors, rig.mem_ids, churn="none")
    assert not dyn.active
    assert dyn.node_dynamics == []
    before = rig.env.now
    dyn.start()  # creates no processes
    dyn.stop()
    assert rig.env.now == before


def test_churn_spawns_one_process_per_memory_node():
    rig = make_rig(n_app=1, n_mem=3, pager_kind="none", limit_bytes=None)
    dyn = ClusterDynamics(
        rig.env, rig.monitors, rig.mem_ids, churn="constant:frac=0.4"
    )
    assert dyn.active
    assert len(dyn.node_dynamics) == 3
    dyn.start()
    rig.env.run(until=0.1)
    for m in rig.mem_ids:
        mem = rig.cluster[m].memory
        assert mem.external_pressure_bytes == round(0.4 * mem.capacity_bytes)


def test_failure_and_recovery():
    rig = make_rig(n_app=1, n_mem=2, pager_kind="none", limit_bytes=None)
    dyn = ClusterDynamics(
        rig.env, rig.monitors, rig.mem_ids,
        failures=(FailureEvent(at_s=0.05, node_index=1, down_s=0.04),),
    )
    assert dyn.active
    dyn.start()
    m1 = rig.mem_ids[1]
    rig.env.run(until=0.07)
    assert rig.monitors[m1].shortage
    assert not rig.monitors[rig.mem_ids[0]].shortage
    rig.env.run(until=0.2)
    assert not rig.monitors[m1].shortage


def test_failure_bad_index_raises_in_sim():
    rig = make_rig(n_app=1, n_mem=1, pager_kind="none", limit_bytes=None)
    dyn = ClusterDynamics(
        rig.env, rig.monitors, rig.mem_ids,
        failures=(FailureEvent(at_s=0.01, node_index=5, down_s=0.1),),
    )
    dyn.start()
    with pytest.raises(MiningError):
        rig.env.run(until=0.1)


# ---------------------------------------------------------------------------
# scripted_shortage — the degenerate trace behind the goldens
# ---------------------------------------------------------------------------

def test_scripted_shortage_signals_at_time():
    rig = make_rig(n_app=1, n_mem=1, pager_kind="none", limit_bytes=None)
    m0 = rig.mem_ids[0]
    rig.env.process(scripted_shortage(rig.env, rig.monitors, 0.05, m0))
    rig.env.run(until=0.04)
    assert not rig.monitors[m0].shortage
    rig.env.run(until=0.1)
    assert rig.monitors[m0].shortage


def test_scripted_shortage_unknown_node_raises():
    rig = make_rig(n_app=1, n_mem=1, pager_kind="none", limit_bytes=None)
    rig.env.process(scripted_shortage(rig.env, rig.monitors, 0.01, 99))
    with pytest.raises(MiningError):
        rig.env.run(until=0.1)


# ---------------------------------------------------------------------------
# Property: no trace can drive a ledger outside [0, capacity]
# ---------------------------------------------------------------------------

class _ArbitraryTrace(LoadTrace):
    """Replays hypothesis-provided (hold, fraction) steps verbatim —
    including fractions far outside [0, 1]."""

    kind = "arbitrary"

    def __init__(self, steps):
        self._steps = steps

    def steps(self, rng):
        yield from self._steps


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.floats(min_value=0.001, max_value=0.05),
            st.floats(
                min_value=-10.0, max_value=10.0,
                allow_nan=False, allow_infinity=False,
            ),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_trace_driven_ledger_stays_in_bounds(steps):
    rig = make_rig(n_app=1, n_mem=1, pager_kind="none", limit_bytes=None)
    m0 = rig.mem_ids[0]
    mem = rig.cluster[m0].memory
    nd = NodeDynamics(
        rig.monitors[m0], _ArbitraryTrace(steps), np.random.default_rng(0)
    )
    seen = []
    mem.on_change = lambda ledger: seen.append(
        (ledger.external_pressure_bytes, ledger.available_bytes)
    )
    nd.start()
    rig.env.run(until=sum(h for h, _ in steps) + 0.1)
    assert seen
    for external, available in seen:
        assert 0 <= external <= mem.capacity_bytes
        assert 0 <= available <= mem.capacity_bytes
    assert 0 <= mem.external_pressure_bytes <= mem.capacity_bytes
    assert 0 <= mem.available_bytes <= mem.capacity_bytes
