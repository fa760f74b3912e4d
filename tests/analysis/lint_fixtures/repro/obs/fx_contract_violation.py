"""RPL301/RPL302 fixture: undeclared telemetry event kinds and metric
names — the typo'd-name bug class that silently vanishes from traces.

Never imported — parsed by the repro-lint self-tests, which pin the
exact error codes and line numbers below.
"""


def record_fault(bus, registry, node_id, duration_s):
    bus.emit("fault", node_id, duration_s=duration_s)  # declared: clean
    bus.emit("falt", node_id, duration_s=duration_s)  # line 11: RPL301
    registry.counter("pagefaults", node=node_id).inc()  # declared: clean
    registry.counter("pagefault", node=node_id).inc()  # line 13: RPL302
    registry.histogram("pagefault_latency_sec").observe(  # line 14: RPL302
        duration_s
    )


def fold(events):
    def counter(name, amount=1, **labels):
        pass

    for _ in events:
        counter("scenario_cache_hit")  # line 24: RPL302 (typo'd)
