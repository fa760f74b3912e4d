"""Tests for Store."""

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
