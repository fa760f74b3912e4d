"""Tests for the read-only HTTP mode over the result store."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.harness.experiments import ALL_SWEEPS
from repro.harness.sweep import run_sweep_outcome, shutdown_pools
from repro.harness.sweep.serve import make_server, resolve_report_from_store
from repro.obs import Telemetry, telemetry_session
from repro.runtime import ResultStore, Scenario, clear_cache, result_store_session
from repro.runtime.store import STORE_FORMAT


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A store warmed with the ``fig5`` sweep at tiny scale, plus the
    serial report bytes every serve answer must reproduce."""
    clear_cache()
    store = ResultStore(tmp_path_factory.mktemp("serve-store"))
    with result_store_session(store):
        outcome = run_sweep_outcome(ALL_SWEEPS["fig5"], "tiny")
    clear_cache()
    shutdown_pools()
    return store, outcome.report.to_json()


@pytest.fixture()
def base_url(warm):
    store, _ = warm
    server = make_server(store)  # port=0: ephemeral
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join()


def _get(url):
    """(status, body-bytes) without raising on HTTP errors."""
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def test_resolve_report_from_store_matches_serial(warm):
    store, expected = warm
    report, missing = resolve_report_from_store(
        ALL_SWEEPS["fig5"], "tiny", store
    )
    assert missing == []
    assert report is not None
    assert report.to_json() == expected


def test_resolve_report_from_cold_store_lists_missing(tmp_path, warm):
    report, missing = resolve_report_from_store(
        ALL_SWEEPS["fig5"], "tiny", ResultStore(tmp_path)
    )
    assert report is None
    assert len(missing) > 0


def test_healthz(base_url, warm):
    store, _ = warm
    status, body = _get(f"{base_url}/healthz")
    assert status == 200
    payload = json.loads(body)
    assert payload["status"] == "ok"
    assert payload["entries"] == len(store)


def test_stats_and_sweeps(base_url):
    status, body = _get(f"{base_url}/stats")
    assert status == 200
    payload = json.loads(body)
    assert payload["stats"]["entries"] > 0
    assert payload["queue"] == {"pending": 0, "leased": 0, "done": 0}

    status, body = _get(f"{base_url}/sweeps")
    assert status == 200
    names = {s["name"] for s in json.loads(body)["sweeps"]}
    assert names == set(ALL_SWEEPS)  # every registered sweep is servable


def test_sweep_report_bytes_identical_to_serial(base_url, warm):
    _, expected = warm
    status, body = _get(f"{base_url}/sweep/fig5/report?scale=tiny")
    assert status == 200
    assert body == expected.encode()


def test_sweep_wrapper_reports_zero_executions(base_url, warm, monkeypatch):
    _, expected = warm

    def _boom(self):
        raise AssertionError("serve mode must never execute a scenario")

    # Hard proof of the serving contract: any execution attempt fails
    # loudly, and the warm-store answer still comes back complete.
    monkeypatch.setattr(Scenario, "execute", _boom)
    status, body = _get(f"{base_url}/sweep/fig5?scale=tiny")
    assert status == 200
    payload = json.loads(body)
    assert payload["executed"] == 0
    assert payload["source"] == "store"
    assert payload["report"] == json.loads(expected)


def test_sweep_cold_scale_is_409_not_an_execution(base_url, monkeypatch):
    def _boom(self):
        raise AssertionError("serve mode must never execute a scenario")

    monkeypatch.setattr(Scenario, "execute", _boom)
    status, body = _get(f"{base_url}/sweep/fig5?scale=small")
    assert status == 409
    payload = json.loads(body)
    assert payload["executed"] == 0
    assert len(payload["missing"]) > 0


def test_scenario_lookup_by_content_address(base_url, warm):
    store, _ = warm
    key = store.keys()[0]
    status, body = _get(f"{base_url}/scenario/{key}")
    assert status == 200
    payload = json.loads(body)
    assert payload["format"] == STORE_FORMAT
    assert "scenario" in payload and "result" in payload

    status, _ = _get(f"{base_url}/scenario/{'0' * 64}")
    assert status == 404


def test_unknown_routes_and_bad_input(base_url):
    status, body = _get(f"{base_url}/sweep/nonesuch?scale=tiny")
    assert status == 404
    assert "disk" in json.loads(body)["sweeps"]

    status, _ = _get(f"{base_url}/nope")
    assert status == 404

    status, _ = _get(f"{base_url}/sweep/fig5?scale=tiny&seed=banana")
    assert status == 400


def test_serve_requests_reach_telemetry(base_url):
    telemetry = Telemetry()
    with telemetry_session(telemetry):
        _get(f"{base_url}/healthz")
        _get(f"{base_url}/nope")
    kinds = telemetry.counts_by_kind()
    assert kinds["serve-request"] == 2
    requests = telemetry.registry.collect("serve_requests")
    by_status = {labels["status"]: m.value for _, labels, m in requests}
    assert by_status == {"200": 1, "404": 1}


def test_serve_request_is_recorded_before_the_reply_is_written():
    """The handler runs on the server thread: a client that already has
    its reply can leave its telemetry session before an event emitted
    *after* the write lands (seen as ``assert 1 == 2`` above).  Every
    byte of the reply must find the event already on the bus."""
    from repro.harness.sweep.serve import _StoreRequestHandler

    telemetry = Telemetry()
    recorded_at_write = []

    class Wire:
        def write(self, data):
            recorded_at_write.append(
                telemetry.counts_by_kind().get("serve-request", 0)
            )

    handler = _StoreRequestHandler.__new__(_StoreRequestHandler)
    handler.path = "/healthz"
    handler.requestline = "GET /healthz HTTP/1.1"
    handler.request_version = "HTTP/1.1"
    handler.client_address = ("127.0.0.1", 0)
    handler.wfile = Wire()
    with telemetry_session(telemetry):
        handler._respond(200, b"{}")
    assert recorded_at_write and set(recorded_at_write) == {1}
