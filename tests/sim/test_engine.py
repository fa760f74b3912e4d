"""Tests for the simulation environment and event loop."""

import pytest

from repro.errors import EmptySchedule
from repro.sim import Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_initial_time():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(3.5)

    env.process(proc(env))
    env.run()
    assert env.now == 3.5


def test_run_until_time_stops_early():
    env = Environment()
    log = []

    def proc(env):
        for _ in range(10):
            yield env.timeout(1.0)
            log.append(env.now)

    env.process(proc(env))
    env.run(until=4.5)
    assert env.now == 4.5
    assert log == [1.0, 2.0, 3.0, 4.0]


def test_run_until_time_in_past_raises():
    env = Environment(initial_time=10.0)
    with pytest.raises(EmptySchedule, match=r"until=5\.0 \(now=10\.0\)"):
        env.run(until=5.0)


def test_run_until_now_raises_empty_schedule():
    # until == now would run zero events; same failure mode (and message
    # shape) as stepping an empty schedule, not a bare ValueError.
    env = Environment(initial_time=3.0)
    with pytest.raises(EmptySchedule, match="no more events scheduled"):
        env.run(until=3.0)
    # The clock and schedule are untouched by the refused run.
    assert env.now == 3.0
    env.timeout(1.0)
    env.run()
    assert env.now == 4.0


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "result"

    p = env.process(proc(env))
    assert env.run(until=p) == "result"
    assert env.now == 2.0


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_run_empty_returns_none():
    env = Environment()
    assert env.run() is None


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1.0)
        order.append(name)

    for name in "abc":
        env.process(proc(env, name))
    env.run()
    assert order == ["a", "b", "c"]


def test_determinism_across_runs():
    def build():
        env = Environment()
        trace = []

        def worker(env, name, delay):
            yield env.timeout(delay)
            trace.append((env.now, name))
            yield env.timeout(delay * 2)
            trace.append((env.now, name))

        for i, d in enumerate([0.3, 0.1, 0.2]):
            env.process(worker(env, f"w{i}", d))
        env.run()
        return trace

    assert build() == build()


def test_unhandled_process_exception_propagates():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(bad(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    got = []

    def waiter(env):
        value = yield ev
        got.append(value)

    def firer(env):
        yield env.timeout(2.0)
        ev.succeed(42)

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert got == [42]


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter(env):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    def firer(env):
        yield env.timeout(1.0)
        ev.fail(RuntimeError("bang"))

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert caught == ["bang"]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_unwaited_failed_event_crashes_run():
    env = Environment()
    ev = env.event()
    ev.fail(KeyError("unseen"))
    with pytest.raises(KeyError):
        env.run()


def test_run_until_failed_event_raises():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise OSError("dead")

    p = env.process(bad(env))
    with pytest.raises(OSError):
        env.run(until=p)
