"""Tests for Store."""

import pytest

from repro.sim import Environment, Store


def test_store_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env, store):
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1)

    def consumer(env, store):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert got == [0, 1, 2]


def test_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    times = []

    def consumer(env, store):
        item = yield store.get()
        times.append((item, env.now))

    def producer(env, store):
        yield env.timeout(5)
        yield store.put("late")

    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert times == [("late", 5)]


def test_bounded_store_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    trace = []

    def producer(env, store):
        yield store.put("a")
        trace.append(("a stored", env.now))
        yield store.put("b")
        trace.append(("b stored", env.now))

    def consumer(env, store):
        yield env.timeout(4)
        item = yield store.get()
        trace.append((f"got {item}", env.now))

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert ("a stored", 0) in trace
    assert ("b stored", 4) in trace


def test_store_capacity_positive():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_store_len():
    env = Environment()
    store = Store(env)

    def producer(env, store):
        yield store.put(1)
        yield store.put(2)

    env.process(producer(env, store))
    env.run()
    assert len(store) == 2


def test_multiple_consumers_fifo_service():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, store, name):
        item = yield store.get()
        got.append((name, item))

    def producer(env, store):
        yield env.timeout(1)
        yield store.put("x")
        yield store.put("y")

    env.process(consumer(env, store, "c1"))
    env.process(consumer(env, store, "c2"))
    env.process(producer(env, store))
    env.run()
    assert got == [("c1", "x"), ("c2", "y")]


def test_get_cancel():
    env = Environment()
    store = Store(env)

    def consumer(env, store):
        req = store.get()
        result = yield req | env.timeout(2)
        if req not in result:
            req.cancel()
        yield env.timeout(0)

    env.process(consumer(env, store))
    env.run()
    assert store._get_queue == []
