"""Ambient telemetry session.

``repro-bench run --trace`` must observe runs constructed deep inside the
experiment functions without threading a telemetry object through every
signature.  A session set here is picked up by
:meth:`~repro.mining.hpa.HPARun.run` / :meth:`~repro.mining.npa.NPARun.run`
when no telemetry was attached explicitly.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.telemetry import Telemetry

__all__ = ["current_telemetry", "emit_ambient", "telemetry_session"]

_CURRENT: "Optional[Telemetry]" = None


def current_telemetry() -> "Optional[Telemetry]":
    """The ambient telemetry session, or ``None`` outside one."""
    return _CURRENT


def emit_ambient(kind: str, **fields: object) -> None:
    """Publish a cluster-wide event on the ambient session's bus (a
    no-op outside one) — how the host-side layers that own no simulation
    (sweep engine, report service) report.  Everything
    the event carries is a typed field; ``detail`` stays the name of a
    ``span`` / ``phase``."""
    if _CURRENT is not None:
        _CURRENT.bus.emit(kind, -1, **fields)


@contextmanager
def telemetry_session(telemetry: "Telemetry") -> "Iterator[Telemetry]":
    """Make ``telemetry`` ambient for the duration of the ``with`` block;
    sessions nest (the previous one is restored on exit)."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = telemetry
    try:
        yield telemetry
    finally:
        _CURRENT = previous
