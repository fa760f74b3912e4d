"""Tests for Resource."""

import pytest

from repro.sim import Environment, Resource


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    granted_at = {}

    def user(env, res, name, hold):
        req = res.request()
        yield req
        granted_at[name] = env.now
        yield env.timeout(hold)
        res.release(req)

    for i in range(4):
        env.process(user(env, res, f"u{i}", 10))
    env.run()
    assert granted_at == {"u0": 0, "u1": 0, "u2": 10, "u3": 10}


def test_resource_fifo_queue():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, res, name):
        with res.request() as req:
            yield req
            order.append(name)
            yield env.timeout(1)

    for name in ["first", "second", "third"]:
        env.process(user(env, res, name))
    env.run()
    assert order == ["first", "second", "third"]


def test_context_manager_releases():
    env = Environment()
    res = Resource(env, capacity=1)

    def user(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(1)

    env.process(user(env, res))
    env.run()
    assert res.count == 0


def test_release_without_hold_raises():
    env = Environment()
    res = Resource(env, capacity=1)

    def user(env, res):
        req = res.request()
        yield req
        res.release(req)
        with pytest.raises(RuntimeError):
            res.release(req)
        yield env.timeout(0)

    env.process(user(env, res))
    env.run()


def test_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_count_property():
    env = Environment()
    res = Resource(env, capacity=3)

    def holder(env, res):
        req = res.request()
        yield req
        yield env.timeout(10)
        res.release(req)

    for _ in range(2):
        env.process(holder(env, res))
    env.run(until=5)
    assert res.count == 2
    assert res.capacity == 3


def test_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    got = []

    def hog(env, res):
        req = res.request()
        yield req
        yield env.timeout(100)
        res.release(req)

    def impatient(env, res):
        req = res.request()
        result = yield req | env.timeout(5)
        if req not in result:
            req.cancel()
            got.append("gave up")
        yield env.timeout(0)

    def patient(env, res):
        yield env.timeout(1)
        req = res.request()
        yield req
        got.append(("patient got it", env.now))
        res.release(req)

    env.process(hog(env, res))
    env.process(impatient(env, res))
    env.process(patient(env, res))
    env.run()
    assert "gave up" in got
    assert ("patient got it", 100) in got
