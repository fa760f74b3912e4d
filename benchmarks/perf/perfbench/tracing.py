"""Span recorder that wraps the program's public callables from outside.

The traced pass patches a fixed list of public functions and methods
(see :mod:`perfbench.layers`) with recorders; nothing under ``src/`` is
edited.  One *span* is one call.  A call that returns a generator (the
simulation's process bodies: ``Pager.fault_in``, ``Network.transfer``,
``Transport.send`` ...) stays open for the generator's lifetime and is
resumed through a proxy that forwards ``send``/``throw``/``close``
unchanged, so ``yield from`` and ``env.process`` behave exactly as
before — only each resume is timed.

Every moment a wrapped callable is on the host stack is a *slice*.
Slices nest, so a span's self time is the sum of its slices minus the
slices of wrapped callables that ran inside them; summed over all spans
the self times equal the root span's duration exactly.
"""

from __future__ import annotations

import sys
import time
from types import GeneratorType
from typing import Any, Callable, Optional

__all__ = ["Span", "Recording", "Tracer", "MAX_SPANS"]

#: Past this many recorded spans per tracer the individual records stop
#: (per-name totals keep counting, so counts stay exact).
MAX_SPANS = 200_000

_clock = time.perf_counter


class Span:
    """One call of a wrapped callable (one generator lifetime)."""

    __slots__ = (
        "id", "parent", "name", "start", "end", "busy_s", "self_s", "open",
    )

    def __init__(self, span_id: int, parent: int, name: str, start: float) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        #: Host time this span's slices were on the stack.
        self.busy_s = 0.0
        #: ``busy_s`` minus the wrapped callables that ran inside.
        self.self_s = 0.0
        self.open = True


class _GeneratorProxy:
    """Forwards the generator protocol, timing each resume as a slice."""

    __slots__ = ("_tracer", "_span", "_gen")

    def __init__(self, tracer: "Tracer", span: Span, gen: GeneratorType) -> None:
        self._tracer = tracer
        self._span = span
        self._gen = gen

    @property
    def __name__(self) -> str:  # Process takes its name from the generator
        return self._gen.__name__

    def __iter__(self) -> "_GeneratorProxy":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        tracer, span = self._tracer, self._span
        tracer.push(span)
        try:
            out = self._gen.send(value)
        except BaseException:  # StopIteration included: the span is over
            tracer.pop()
            tracer.finish(span)
            raise
        tracer.pop()
        return out

    def throw(self, *exc: Any) -> Any:
        tracer, span = self._tracer, self._span
        tracer.push(span)
        try:
            out = self._gen.throw(*exc)
        except BaseException:
            tracer.pop()
            tracer.finish(span)
            raise
        tracer.pop()
        return out

    def close(self) -> None:
        tracer, span = self._tracer, self._span
        tracer.push(span)
        try:
            self._gen.close()
        finally:
            tracer.pop()
            tracer.finish(span)

    def __del__(self) -> None:
        # A generator that is dropped unfinished (or never started).
        if self._span.open:
            self._tracer.finish(self._span)


class Recording:
    """What one traced rep left behind: per-name totals and the spans."""

    def __init__(self) -> None:
        #: name -> [calls, busy_s, self_s]; never truncated.
        self.totals: "dict[str, list]" = {}
        #: Finished spans, up to the tracer's ``max_spans``.
        self.spans: "list[Span]" = []
        #: Spans past the cap, kept only in ``totals``.
        self.collapsed = 0

    def self_seconds(self, prefix: str) -> float:
        """Σ self time of every span whose name starts with ``prefix``."""
        return sum(t[2] for n, t in self.totals.items() if n.startswith(prefix))

    def busy_seconds(self, prefix: str) -> float:
        return sum(t[1] for n, t in self.totals.items() if n.startswith(prefix))

    def calls(self, prefix: str = "") -> int:
        return sum(t[0] for n, t in self.totals.items() if n.startswith(prefix))

    def totals_dict(self) -> dict:
        return {
            n: {"calls": t[0], "busy_s": t[1], "self_s": t[2]}
            for n, t in sorted(self.totals.items())
        }

    def chrome_trace(self, tags: "Optional[dict]" = None) -> dict:
        """Chrome trace-event JSON (``X`` events; ``dur`` is the span's
        lifetime, ``args.busy_s`` its time on the host stack); ``tags``
        (workload / rep / op) ride on every event."""
        events = []
        origin = min((s.start for s in self.spans), default=0.0)
        for s in self.spans:
            events.append({
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": (s.start - origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "args": {
                    "id": s.id,
                    "parent": s.parent,
                    "busy_s": s.busy_s,
                    "self_s": s.self_s,
                    **(tags or {}),
                },
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "collapsed_spans": self.collapsed,
                "totals": self.totals_dict(),
            },
        }


class Tracer:
    """Span stack + the current recording + the patches installed."""

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.max_spans = max_spans
        self.recording = Recording()
        self._stack: "list[list]" = []  # [span, slice_start, child_s]
        self._next_id = 0
        self._patches: "list[tuple[object, str, object]]" = []

    # -- the span stack ----------------------------------------------------

    def begin(self, name: str) -> Span:
        """Open a span whose parent is the innermost running slice."""
        stack = self._stack
        parent = stack[-1][0].id if stack else -1
        self._next_id += 1
        return Span(self._next_id, parent, name, _clock())

    def push(self, span: Span) -> None:
        self._stack.append([span, _clock(), 0.0])

    def pop(self) -> None:
        span, started, child_s = self._stack.pop()
        now = _clock()
        dur = now - started
        span.busy_s += dur
        span.self_s += dur - child_s
        span.end = now
        if self._stack:
            self._stack[-1][2] += dur

    def finish(self, span: Span) -> None:
        if not span.open:
            return
        span.open = False
        rec = self.recording
        total = rec.totals.get(span.name)
        if total is None:
            rec.totals[span.name] = [1, span.busy_s, span.self_s]
        else:
            total[0] += 1
            total[1] += span.busy_s
            total[2] += span.self_s
        if len(rec.spans) < self.max_spans:
            rec.spans.append(span)
        else:
            rec.collapsed += 1

    def take(self) -> Recording:
        """The recording so far; a fresh one starts (patches stay)."""
        rec, self.recording = self.recording, Recording()
        return rec

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A recorder around ``fn``: the call is one slice; a returned
        generator keeps the span open and times every resume."""
        tracer = self

        def recorder(*args: Any, **kwargs: Any) -> Any:
            span = tracer.begin(name)
            tracer.push(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.pop()
                tracer.finish(span)
                raise
            tracer.pop()
            if type(out) is GeneratorType:
                return _GeneratorProxy(tracer, span, out)
            tracer.finish(span)
            return out

        recorder.__name__ = getattr(fn, "__name__", name)
        recorder.__doc__ = getattr(fn, "__doc__", None)
        recorder.__wrapped__ = fn  # type: ignore[attr-defined]
        # functools.lru_cache's management surface must survive wrapping.
        for extra in ("cache_clear", "cache_info"):
            if hasattr(fn, extra):
                setattr(recorder, extra, getattr(fn, extra))
        return recorder

    def span(self, name: str) -> "_SpanContext":
        """``with tracer.span("bench.rep"):`` — a span around a block."""
        return _SpanContext(self, name)

    # -- patching ----------------------------------------------------------

    def replace(self, owner: object, attr: str, new: object) -> None:
        """Set ``owner.attr = new``, remembering the original for
        :meth:`unpatch_all`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def patch_method(self, cls: type, attr: str, name: str) -> None:
        """Replace ``cls.attr`` (looked up on ``cls`` itself) with a recorder."""
        self.replace(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def patch_function(self, module: object, attr: str, name: str) -> None:
        """Replace a module-level function everywhere it is bound by
        name: ``from x import f`` copies the reference, so every loaded
        ``repro`` / ``perfbench`` module holding the same object is
        patched too."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(("repro", "perfbench")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, wrapped)

    def unpatch_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_span")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer.begin(self._name)
        self._tracer.push(self._span)
        return self._span

    def __exit__(self, *exc: object) -> None:
        assert self._span is not None
        self._tracer.pop()
        self._tracer.finish(self._span)
