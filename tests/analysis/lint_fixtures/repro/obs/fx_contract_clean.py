"""RPL301/RPL302 clean twin: every kind and metric name is declared in
the canonical registry (repro.obs.events); forwarding helpers passing a
variable through are checked at their callers' literals instead."""


def record_fault(bus, registry, node_id, duration_s):
    bus.emit("fault", node_id, duration_s=duration_s)
    registry.counter("pagefaults", node=node_id).inc()
    registry.histogram("pagefault_latency_s").observe(duration_s)


def forward(bus, kind, node_id):
    bus.emit(kind, node_id)  # non-literal: the caller's literal is checked


def fold(events):
    def counter(name, amount=1, **labels):
        pass

    for _ in events:
        counter("scenario_cache_hits")
