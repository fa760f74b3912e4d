"""Property-based tests for the simulation kernel.

Invariants: stores conserve items under arbitrary producer/consumer
schedules and hand them out in put order, and every put succeeds at
once; resources never exceed capacity and serve every request; the
clock never runs backwards.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource, Store


@settings(max_examples=40, deadline=None)
@given(
    puts=st.lists(
        st.tuples(st.floats(0, 10), st.integers(0, 999)), min_size=1, max_size=30
    ),
    n_consumers=st.integers(1, 5),
)
def test_store_conserves_items(puts, n_consumers):
    env = Environment()
    store = Store(env)
    received = []

    def producer(env, delay, item):
        yield env.timeout(delay)
        yield store.put(item)

    def consumer(env, quota):
        for _ in range(quota):
            item = yield store.get()
            received.append(item)

    for delay, item in puts:
        env.process(producer(env, delay, item))
    base, extra = divmod(len(puts), n_consumers)
    for i in range(n_consumers):
        env.process(consumer(env, base + (1 if i < extra else 0)))
    env.run()
    assert sorted(received) == sorted(item for _, item in puts)
    assert len(store) == 0


#: Delays from a tiny set, so same-instant put/get floods are common.
_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0])


@settings(max_examples=80, deadline=None)
@given(
    putters=st.lists(st.lists(_DELAYS, min_size=1, max_size=4), min_size=1, max_size=5),
    getters=st.lists(st.lists(_DELAYS, min_size=1, max_size=4), min_size=1, max_size=5),
)
def test_store_is_a_fifo_with_ordered_handoffs(putters, getters):
    """Random programs of putters and getters against the direct FIFO.

    Items are numbered in put-call order.  They must come out exactly
    once and in that order; every put succeeds at once; and when a put
    feeds a waiting getter, the putter resumes before the getter (the
    lane order the runtime goldens rely on)."""
    env = Environment()
    store = Store(env)
    seq = itertools.count()
    log = []           # resumptions, in the order processes resume

    def putter(delays):
        for delay in delays:
            yield env.timeout(delay)
            item = next(seq)
            event = store.put(item)
            assert event.triggered
            yield event
            log.append(("put", item))

    def getter(delays):
        for delay in delays:
            yield env.timeout(delay)
            event = store.get()
            waited = not event.triggered
            item = yield event
            log.append(("got", item, waited))

    for delays in putters:
        env.process(putter(delays))
    for delays in getters:
        env.process(getter(delays))
    env.run()

    n_items = next(seq)
    assert n_items == sum(map(len, putters))
    got = [entry[1] for entry in log if entry[0] == "got"]
    assert got == list(range(len(got)))
    assert len(got) + len(store) == n_items
    if sum(map(len, getters)) >= n_items:
        assert len(got) == n_items
    for index, entry in enumerate(log):
        if entry[0] == "got" and entry[2]:
            assert log.index(("put", entry[1])) < index


@settings(max_examples=40, deadline=None)
@given(
    jobs=st.lists(
        st.tuples(st.floats(0, 5), st.floats(0.01, 2)), min_size=1, max_size=25
    ),
    capacity=st.integers(1, 4),
)
def test_resource_never_oversubscribed_and_serves_all(jobs, capacity):
    env = Environment()
    res = Resource(env, capacity=capacity)
    served = []
    max_seen = [0]

    def job(env, arrive, hold):
        yield env.timeout(arrive)
        with res.request() as req:
            yield req
            max_seen[0] = max(max_seen[0], res.count)
            assert res.count <= capacity
            yield env.timeout(hold)
        served.append(1)

    for arrive, hold in jobs:
        env.process(job(env, arrive, hold))
    env.run()
    assert len(served) == len(jobs)
    assert max_seen[0] <= capacity
    assert res.count == 0


@settings(max_examples=30, deadline=None)
@given(
    delays=st.lists(st.floats(0, 100), min_size=1, max_size=40),
)
def test_clock_monotone_under_any_schedule(delays):
    env = Environment()
    stamps = []

    def proc(env, d):
        yield env.timeout(d)
        stamps.append(env.now)

    for d in delays:
        env.process(proc(env, d))
    env.run()
    assert stamps == sorted(stamps)
    assert env.now == max(delays)


@settings(max_examples=30, deadline=None)
@given(
    chain=st.lists(st.floats(0.01, 3), min_size=1, max_size=15),
)
def test_process_chain_total_time(chain):
    """Sequential waits add exactly."""
    env = Environment()

    def proc(env):
        for d in chain:
            yield env.timeout(d)

    env.process(proc(env))
    env.run()
    assert abs(env.now - sum(chain)) < 1e-9 * max(1.0, sum(chain))
