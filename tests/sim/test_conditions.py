"""Tests for AllOf/AnyOf condition events."""

import pytest

from repro.sim import AllOf, Environment


def test_all_of_waits_for_all():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(3, value="b")
        result = yield env.all_of([t1, t2])
        return (env.now, result, t1.value, t2.value)

    p = env.process(proc(env))
    env.run()
    assert p.value == (3, None, "a", "b")


def test_any_of_fires_on_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(10, value="slow")
        result = yield env.any_of([t1, t2])
        return (env.now, result, t1.processed, t2.processed)

    p = env.process(proc(env))
    env.run(until=2)
    assert p.value == (1, None, True, False)


def test_empty_all_of_immediate():
    env = Environment()

    def proc(env):
        result = yield env.all_of([])
        return (env.now, result)

    p = env.process(proc(env))
    env.run()
    assert p.value == (0, None)


def test_failed_child_fails_condition():
    env = Environment()
    ev = env.event()
    caught = []

    def proc(env):
        try:
            yield env.all_of([env.timeout(5), ev])
        except ValueError as exc:
            caught.append(str(exc))

    def firer(env):
        yield env.timeout(1)
        ev.fail(ValueError("child failed"))

    env.process(proc(env))
    env.process(firer(env))
    env.run()
    assert caught == ["child failed"]


def test_cross_environment_events_rejected():
    env1 = Environment()
    env2 = Environment()
    t1 = env1.timeout(1)
    t2 = env2.timeout(1)
    with pytest.raises(ValueError):
        AllOf(env1, [t1, t2])
