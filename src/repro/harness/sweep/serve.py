"""Read-only HTTP mode over the result store (``repro-bench --serve``).

The serving half of the north star's heavy-traffic story: once sweeps
have populated a content-addressed store (scheduler + workers, or plain
serial runs), this module answers scenario-key and sweep-report queries
from that store as JSON — with **zero scenario executions**, ever.  A
query for a cell the store doesn't hold is a 409 listing the missing
grid keys, not a trigger to simulate; running the simulation stays the
scheduler/worker plane's job.

Built on the stdlib :mod:`http.server` (threaded), so a serve node
needs nothing beyond the store directory.  Endpoints::

    GET /healthz                     liveness + entry count
    GET /stats                       store counters, sizes, queue depth
    GET /sweeps                      the sweep registry (name, id, title)
    GET /scenario/<key>              one stored entry by content address
    GET /sweep/<name>?scale=S[&seed=N]         report + accounting wrapper
    GET /sweep/<name>/report?scale=S[&seed=N]  raw report JSON — byte-
                                               identical to ``repro-bench
                                               <name> --json`` output

Every answered request is published on the ambient telemetry bus as a
``serve-request`` event (folded into the ``serve_requests`` counter by
status), when a telemetry session is active.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.harness.sweep.queue import WorkQueue
from repro.harness.sweep.spec import ExperimentReport, Sweep
from repro.obs import current_telemetry
from repro.runtime.store import ResultStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.results import RunResult

__all__ = [
    "StoreHTTPServer",
    "make_server",
    "resolve_report_from_store",
    "serve_store",
]


def resolve_report_from_store(
    sweep: Sweep,
    scale: str,
    store: ResultStore,
    seed: Optional[int] = None,
) -> "Tuple[Optional[ExperimentReport], list[str]]":
    """Assemble ``sweep``'s report purely from stored results.

    Returns ``(report, missing)``: the report when every grid (and
    follow-up) cell resolves from ``store``, else ``(None, keys)`` with
    the grid keys that would require execution.  Nothing is ever
    executed — this is the serving plane's hard contract.
    """
    results: "dict[str, RunResult]" = {}
    missing: "list[str]" = []
    cells = sweep.scenarios(scale, seed)
    for key, scenario in cells.items():
        found = store.get(scenario)
        if found is None:
            missing.append(key)
        else:
            results[key] = found
    if missing:
        return None, missing
    if sweep.followups is not None:
        extra = sweep.followups(scale, results)
        if seed is not None:
            extra = {k: s.with_seed(seed) for k, s in extra.items()}
        for key, scenario in extra.items():
            found = store.get(scenario)
            if found is None:
                missing.append(key)
            else:
                results[key] = found
        if missing:
            return None, missing
    return sweep.report(scale, results), []


class StoreHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one read-only result store."""

    daemon_threads = True

    def __init__(self, address: "tuple[str, int]", store: ResultStore) -> None:
        super().__init__(address, _StoreRequestHandler)
        self.store = store
        from repro.harness.experiments import ALL_EXPERIMENTS

        #: Sweeps answerable from the store.
        self.sweeps = ALL_EXPERIMENTS


class _StoreRequestHandler(BaseHTTPRequestHandler):
    server: StoreHTTPServer

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Silence the default stderr access log; telemetry carries the
        per-request accounting instead."""

    def _respond(self, status: int, body: bytes,
                 content_type: str = "application/json") -> None:
        # Recorded before the body goes out: a client that holds its reply
        # may leave its telemetry session at once, and this runs on the
        # server thread.
        telemetry = current_telemetry()
        if telemetry is not None:
            telemetry.bus.emit(
                "serve-request", -1, self.path, status=status,
                bytes=len(body),
            )
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, status: int, payload: dict) -> None:
        self._respond(
            status,
            (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(),
        )

    def _error(self, status: int, message: str, **extra: object) -> None:
        self._json(status, {"error": message, **extra})

    # -- routing -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server convention
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        try:
            if parts == ["healthz"]:
                self._handle_healthz()
            elif parts == ["stats"]:
                self._handle_stats()
            elif parts == ["sweeps"]:
                self._handle_sweeps()
            elif len(parts) == 2 and parts[0] == "scenario":
                self._handle_scenario(parts[1])
            elif len(parts) == 2 and parts[0] == "sweep":
                self._handle_sweep(parts[1], query, raw=False)
            elif len(parts) == 3 and parts[0] == "sweep" \
                    and parts[2] == "report":
                self._handle_sweep(parts[1], query, raw=True)
            else:
                self._error(404, f"unknown path {url.path!r}")
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    # -- handlers ----------------------------------------------------------

    def _handle_healthz(self) -> None:
        store = self.server.store
        self._json(200, {"status": "ok", "entries": len(store)})

    def _handle_stats(self) -> None:
        store = self.server.store
        self._json(200, {
            "stats": store.stats(),
            "entry_stats": store.entry_stats(),
            "queue": WorkQueue(store).counts(),
        })

    def _handle_sweeps(self) -> None:
        self._json(200, {
            "sweeps": [
                {"name": s.name, "exp_id": s.exp_id, "title": s.title}
                for s in self.server.sweeps.values()
            ],
        })

    def _handle_scenario(self, key: str) -> None:
        payload = self.server.store.read_payload(key)
        if payload is None:
            self._error(404, f"no store entry for key {key!r}", key=key)
            return
        self._json(200, payload)

    def _handle_sweep(self, name: str, query: "dict[str, list[str]]",
                      raw: bool) -> None:
        sweep = self.server.sweeps.get(name)
        if sweep is None:
            self._error(
                404, f"unknown sweep {name!r}",
                sweeps=sorted(self.server.sweeps),
            )
            return
        scale = query.get("scale", ["small"])[0]
        seed: Optional[int] = None
        try:
            if "seed" in query:
                seed = int(query["seed"][0])
        except ValueError:
            self._error(400, f"bad seed {query['seed'][0]!r}")
            return
        try:
            report, missing = resolve_report_from_store(
                sweep, scale, self.server.store, seed
            )
        except Exception as exc:  # noqa: BLE001 - surface as HTTP error
            self._error(500, f"{type(exc).__name__}: {exc}")
            return
        if report is None:
            self._error(
                409,
                f"store is cold for sweep {name!r} at scale {scale!r}: "
                f"{len(missing)} cell(s) unresolved (serving never "
                "executes scenarios — run the sweep through the "
                "scheduler/workers first)",
                missing=missing, executed=0,
            )
            return
        if raw:
            # Byte-identical to the scheduler's --json artifact.
            self._respond(200, report.to_json().encode())
            return
        self._json(200, {
            "sweep": name,
            "exp_id": sweep.exp_id,
            "scale": scale,
            "seed": seed,
            "executed": 0,
            "source": "store",
            "report": json.loads(report.to_json()),
        })


def make_server(
    store: ResultStore, host: str = "127.0.0.1", port: int = 0
) -> StoreHTTPServer:
    """Bind (but don't run) a serve-mode server; ``port=0`` picks an
    ephemeral port (tests read it back from ``server_address``)."""
    return StoreHTTPServer((host, port), store)


def serve_store(
    store: ResultStore, host: str = "127.0.0.1", port: int = 8321
) -> int:
    """Blocking entry point behind ``repro-bench --serve``."""
    server = make_server(store, host, port)
    bound_host, bound_port = server.server_address[:2]
    print(
        f"[repro-bench --serve] read-only store {store.path} at "
        f"http://{bound_host}:{bound_port} "
        f"(endpoints: /healthz /stats /sweeps /scenario/<key> "
        f"/sweep/<name>?scale=S)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        server.server_close()
    return 0
