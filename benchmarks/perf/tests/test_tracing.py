"""The recorder must not change what the wrapped callables do, and its
self-time arithmetic must add up."""

import pytest

from perfbench import tracing
from perfbench.tracing import Tracer


@pytest.fixture
def ticking(monkeypatch):
    """A clock that advances only when told to."""
    now = [0.0]
    monkeypatch.setattr(tracing, "_clock", lambda: now[0])

    def advance(dt):
        now[0] += dt

    return advance


def echo():
    """Yields what it is sent; returns the sum; reports how it ended."""
    total = 0
    try:
        while True:
            got = yield total
            if got is None:
                return total
            total += got
    except KeyError:
        yield "caught"
        return "after-throw"


def test_proxy_preserves_send_and_return():
    gen = Tracer().wrap("g", echo)()
    assert next(gen) == 0
    assert gen.send(2) == 2
    assert gen.send(3) == 5
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == 5


def test_proxy_preserves_throw():
    tracer = Tracer()
    gen = tracer.wrap("g", echo)()
    next(gen)
    assert gen.throw(KeyError("x")) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "after-throw"
    # An exception the generator does not handle escapes unchanged.
    gen = tracer.wrap("g", echo)()
    next(gen)
    with pytest.raises(ValueError):
        gen.throw(ValueError("boom"))
    assert tracer.recording.totals["g"][0] == 2


def test_proxy_close_runs_finally_and_ends_the_span():
    closed = []

    def body():
        try:
            yield 1
        finally:
            closed.append(True)

    tracer = Tracer()
    gen = tracer.wrap("g", body)()
    next(gen)
    gen.close()
    assert closed == [True]
    assert tracer.recording.totals["g"][0] == 1
    gen.close()  # idempotent, like a real generator
    assert tracer.recording.totals["g"][0] == 1


def test_yield_from_delegates_through_the_proxy():
    tracer = Tracer()
    inner = tracer.wrap("inner", echo)

    def outer():
        result = yield from inner()
        return ("outer", result)

    gen = tracer.wrap("outer", outer)()
    assert next(gen) == 0
    assert gen.send(4) == 4
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == ("outer", 4)
    assert {n: t[0] for n, t in tracer.recording.totals.items()} == {
        "inner": 1, "outer": 1,
    }


def test_plain_function_and_optional_generator_results():
    tracer = Tracer()
    assert tracer.wrap("f", lambda x: x + 1)(1) == 2
    assert tracer.wrap("none", lambda: None)() is None
    with pytest.raises(ZeroDivisionError):
        tracer.wrap("raises", lambda: 1 / 0)()
    assert {n: t[0] for n, t in tracer.recording.totals.items()} == {
        "f": 1, "none": 1, "raises": 1,
    }


def test_nested_self_time_arithmetic(ticking):
    """root(10) = 2 self + a(5 = 3 self + b 2) + b(3): self times sum to
    the root's duration and parents are the enclosing slices."""
    tracer = Tracer()

    def b(dt):
        ticking(dt)

    b = tracer.wrap("b", b)

    def a():
        ticking(1)
        b(2)
        ticking(2)

    a = tracer.wrap("a", a)
    with tracer.span("root"):
        ticking(1)
        a()
        b(3)
        ticking(1)
    rec = tracer.recording
    assert rec.totals["root"] == [1, 10.0, 2.0]
    assert rec.totals["a"] == [1, 5.0, 3.0]
    assert rec.totals["b"] == [2, 5.0, 5.0]
    assert sum(t[2] for t in rec.totals.values()) == rec.busy_seconds("root")
    by_name = {s.name: s for s in rec.spans}
    assert by_name["a"].parent == by_name["root"].id
    assert by_name["root"].parent == -1
    assert [s.parent for s in rec.spans if s.name == "b"] == [
        by_name["a"].id, by_name["root"].id,
    ]


def test_generator_busy_time_is_the_sum_of_its_resumes(ticking):
    tracer = Tracer()

    def body():
        ticking(1)
        yield
        ticking(2)
        yield
        ticking(4)

    gen = tracer.wrap("g", body)()
    with tracer.span("root"):
        next(gen)
        ticking(10)  # suspended: not the generator's time
        next(gen)
        ticking(10)
        with pytest.raises(StopIteration):
            next(gen)
    span = next(s for s in tracer.recording.spans if s.name == "g")
    assert span.busy_s == 7.0
    assert span.end - span.start == 27.0
    assert tracer.recording.totals["root"] == [1, 27.0, 20.0]


def test_spans_collapse_into_totals_past_the_cap():
    tracer = Tracer(max_spans=3)
    f = tracer.wrap("f", lambda: None)
    for _ in range(10):
        f()
    rec = tracer.take()
    assert len(rec.spans) == 3 and rec.collapsed == 7
    assert rec.totals["f"][0] == 10
    assert rec.chrome_trace({"workload": "w"})["otherData"]["collapsed_spans"] == 7
    assert tracer.recording.totals == {}


def test_patching_is_undone():
    import repro.mining.candidates as candidates
    import repro.mining.hpa as hpa
    from repro.sim import Environment

    original_fn, original_run = candidates.generate_candidates, Environment.run
    tracer = Tracer()
    tracer.patch_function(candidates, "generate_candidates", "mining.candgen")
    tracer.patch_method(Environment, "run", "sim.run")
    # ``from ... import`` bindings in other modules are patched too.
    assert hpa.generate_candidates is candidates.generate_candidates is not original_fn
    assert candidates.generate_candidates([(1,), (2,)], 2) == [(1, 2)]
    assert tracer.recording.totals["mining.candgen"][0] == 1
    tracer.unpatch_all()
    assert hpa.generate_candidates is candidates.generate_candidates is original_fn
    assert Environment.run is original_run
