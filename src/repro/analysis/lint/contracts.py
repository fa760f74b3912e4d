"""RPL301/RPL302 — the telemetry contract: every event kind and metric
name must be declared in the canonical vocabulary.

The event bus and the metrics fold are stringly-typed by design (emission
must stay cheap and decoupled), which means a typo'd event kind or metric
name is not an error anywhere — the event simply never matches a consumer
and silently vanishes from traces, dashboards, and the
``sweep_runs``-style accounting the CI jobs assert on.  The canonical
vocabulary lives in :data:`repro.obs.events.EVENT_KINDS` and
:data:`repro.obs.events.METRIC_NAMES`; these checkers hold every literal
call site to it.

Covered call shapes (first argument must be a string literal; forwarding
helpers that pass a variable through are exempt at the forwarding site —
their *callers'* literals are checked instead):

- ``bus.emit("kind", ...)`` / ``node.emit("kind", ...)`` /
  ``self._emit("kind", ...)`` / ``emit_ambient("kind", ...)``  -> RPL301
- ``counter("name", ...)`` / ``histogram`` / ``gauge`` (the accessors of
  the metrics fold) and ``merged_histogram("name", ...)`` -> RPL302
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.lint.framework import Checker, Finding, LintContext
from repro.obs.events import EVENT_KINDS, METRIC_NAMES

__all__ = ["EventKindChecker", "MetricNameChecker"]

#: Call names that emit a telemetry event with the kind first.
_EMIT_NAMES = frozenset({"emit", "_emit", "emit_ambient"})

#: Call names that create/look up a metric with the name first.
_METRIC_NAMES_ACCESSORS = frozenset({
    "counter", "histogram", "gauge", "merged_histogram",
})


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _literal_first_arg(node: ast.Call) -> Optional[str]:
    if node.args and isinstance(node.args[0], ast.Constant) \
            and isinstance(node.args[0].value, str):
        return node.args[0].value
    return None


class EventKindChecker(Checker):
    """Flag ``emit(...)`` calls with undeclared event kinds."""

    code = "RPL301"
    name = "undeclared-event-kind"
    hint = (
        "declare the kind in repro.obs.events.EVENT_KINDS; undeclared "
        "kinds reach no subscriber logic and silently vanish from traces"
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.in_repro

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node) not in _EMIT_NAMES:
                continue
            kind = _literal_first_arg(node)
            if kind is not None and kind not in EVENT_KINDS:
                yield self.finding(
                    ctx,
                    node,
                    f"event kind {kind!r} is not declared in "
                    f"repro.obs.events.EVENT_KINDS",
                )


class MetricNameChecker(Checker):
    """Flag metric accessors with undeclared metric names."""

    code = "RPL302"
    name = "undeclared-metric-name"
    hint = (
        "declare the name in repro.obs.events.METRIC_NAMES; an "
        "undeclared counter/histogram records into a series nothing "
        "exports or asserts on"
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.in_repro

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node) not in _METRIC_NAMES_ACCESSORS:
                continue
            name = _literal_first_arg(node)
            if name is not None and name not in METRIC_NAMES:
                yield self.finding(
                    ctx,
                    node,
                    f"metric name {name!r} is not declared in "
                    f"repro.obs.events.METRIC_NAMES",
                )
