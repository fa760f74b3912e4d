"""Layer boundaries: which public callables the traced pass wraps, which
counters it reads off a finished run, and how both become the per-layer
metrics of :data:`perfbench.spec.PER_LAYER`.

Span names are ``<layer>.<metric stem>[.<callable>]`` so a metric is a
prefix sum over the tracer's per-name totals.
"""

from __future__ import annotations

import importlib
import time
from typing import TYPE_CHECKING, Any

from perfbench.spec import PER_LAYER
from perfbench.tracing import Recording, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.driver import MiningDriver
    from repro.runtime.results import RunResult

__all__ = [
    "METHOD_TARGETS",
    "FUNCTION_TARGETS",
    "install",
    "RunCounters",
    "bare_sim_us_per_event",
    "layer_metrics",
]

#: ``(module, class, method, span name)``.  A method is patched on the
#: class that defines it, so subclasses that override it are listed too.
METHOD_TARGETS = (
    ("repro.datagen.quest", "QuestGenerator", "__init__", "datagen.generate.patterns"),
    ("repro.datagen.quest", "QuestGenerator", "generate", "datagen.generate.txns"),
    ("repro.datagen.corpus", "TransactionDatabase", "partition", "runtime.driver.partition"),
    ("repro.mining.partition", "HashPartitioner", "partition_counts", "mining.partition"),
    ("repro.mining.kernels", "CountingKernel", "__init__", "mining.kernel.build"),
    ("repro.mining.kernels", "CountingKernel", "pair_block", "mining.kernel.pair_block"),
    ("repro.mining.kernels", "CountingKernel", "count_resident_span", "mining.kernel.count_resident_span"),
    ("repro.mining.kernels", "CountingKernel", "apply_local_pairs", "mining.kernel.apply_local_pairs"),
    ("repro.mining.kernels", "PrefixIndex", "subsets_of", "mining.kernel.subsets_of"),
    ("repro.mining.kernels", "OwnerStreams", "extend", "mining.kernel.extend"),
    ("repro.sim.engine", "Environment", "run", "sim.run"),
    ("repro.cluster.network", "Network", "transfer", "cluster.transfer"),
    ("repro.cluster.transport", "Transport", "send", "cluster.send.send"),
    ("repro.cluster.transport", "Transport", "post", "cluster.send.post"),
    ("repro.cluster.transport", "Transport", "recv", "cluster.send.recv"),
    ("repro.cluster.disk", "Disk", "read", "cluster.disk.read"),
    ("repro.cluster.disk", "Disk", "write", "cluster.disk.write"),
    ("repro.core.remote_pager", "RemoteMemoryPager", "fault_in", "core.fault_in"),
    ("repro.core.disk_pager", "DiskPager", "fault_in", "core.fault_in"),
    ("repro.core.remote_pager", "RemoteMemoryPager", "evict", "core.evict"),
    ("repro.core.disk_pager", "DiskPager", "evict", "core.evict"),
    ("repro.core.remote_pager", "RemoteMemoryPager", "peek_line", "core.peek"),
    ("repro.core.disk_pager", "DiskPager", "peek_line", "core.peek"),
    ("repro.core.remote_pager", "RemoteMemoryPager", "migrate_from", "core.migrate"),
    ("repro.core.remote_pager", "RemoteUpdatePager", "buffer_update", "core.update.buffer_update"),
    ("repro.core.remote_pager", "RemoteUpdatePager", "drain", "core.update.drain"),
    ("repro.core.swap_manager", "SwapManager", "insert_candidate", "core.swap_count.insert_candidate"),
    ("repro.core.swap_manager", "SwapManager", "count_itemset", "core.swap_count.count_itemset"),
    ("repro.core.swap_manager", "SwapManager", "count_resident_bulk", "core.swap_count.count_resident_bulk"),
    ("repro.core.swap_manager", "SwapManager", "count_resident_batch", "core.swap_count.count_resident_batch"),
    ("repro.core.swap_manager", "SwapManager", "count_span_codes", "core.swap_count.count_span_codes"),
    ("repro.core.swap_manager", "SwapManager", "flush_span_counts", "core.swap_count.flush_span_counts"),
    ("repro.runtime.driver", "MiningDriver", "run", "runtime.driver.run"),
    ("repro.runtime.scenarios", "Scenario", "execute", "runtime.exec"),
    ("repro.runtime.store", "ResultStore", "put", "runtime.store_put"),
    ("repro.runtime.store", "ResultStore", "get", "runtime.store_get"),
    ("repro.analysis.report.experiment_results", "ExperimentResults", "artifacts", "report.results.artifacts"),
    ("repro.analysis.report.experiment_results", "ExperimentResults", "payload", "report.results.payload"),
)

#: ``(module, function, span name)``; patched wherever the function
#: object is bound by name.
FUNCTION_TARGETS = (
    ("repro.mining.apriori", "apriori", "mining.apriori"),
    ("repro.mining.candidates", "generate_candidates", "mining.candgen"),
    ("repro.mining.kernels", "count_candidates", "mining.kernel.count_candidates"),
    ("repro.mining.kernels", "eld_scores", "mining.kernel.eld_scores"),
    ("repro.runtime.builder", "build_runtime", "runtime.build"),
    ("repro.harness.scales", "prepare_workload", "harness.prepare"),
    ("repro.harness.sweep.engine", "run_sweep_outcome", "harness.sweep"),
    ("repro.analysis.report.stat_tests", "bootstrap_ci", "report.stats.bootstrap_ci"),
    ("repro.analysis.report.stat_tests", "mann_whitney_u", "report.stats.mann_whitney_u"),
    ("repro.analysis.report.stat_tests", "permutation_test", "report.stats.permutation_test"),
    ("repro.analysis.report.stat_tests", "summarize", "report.stats.summarize"),
    ("repro.analysis.report.rendering", "render_markdown", "report.render_md"),
    ("repro.analysis.report.rendering", "render_html", "report.render_html"),
)


class RunCounters:
    """Exact counters read off every driver run that finishes while
    installed (``MiningDriver.run`` is wrapped to call :meth:`harvest`)."""

    def __init__(self) -> None:
        self.values: "dict[str, float]" = {}
        self._fault_time_s = 0.0
        self._fast_counts = 0

    def reset(self) -> None:
        self.__init__()

    def _add(self, name: str, amount: float) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    def harvest(self, run: "MiningDriver", result: "RunResult") -> None:
        add = self._add
        add("sim.events", run.env.events_processed)
        for p in result.passes:
            if p.k == 2:
                add("sim.pass2_s", p.duration_s)
            if p.k >= 2:
                add("mining.candidates", p.n_candidates)
            add("mining.count_messages", p.count_messages)
        add("mining.large_itemsets", len(result.large_itemsets))
        net = run.cluster.network.stats
        add("cluster.messages", net.messages)
        add("cluster.wire_bytes", net.wire_bytes)
        add("cluster.retransmissions", net.retransmissions)
        for mbox in run.cluster.transport.stats().values():
            self.values["cluster.mailbox_peak_depth"] = max(
                self.values.get("cluster.mailbox_peak_depth", 0), mbox["peak_depth"]
            )
            add("cluster.blocked_puts", mbox["blocked_puts"])
        for node in run.cluster:
            add("cluster.disk_ios",
                node.swap_disk.stats.total_ios() + node.data_disk.stats.total_ios())
        for pager in run.runtime.pager_chains():
            s = pager.stats
            add("core.faults", s.faults)
            add("core.swap_outs", s.swap_outs)
            add("core.update_msgs", s.update_messages)
            add("core.lines_migrated", s.lines_migrated)
            add("core.placement_rejections", s.placement_rejections)
            self._fault_time_s += s.fault_time_s
        for manager in run.managers.values():
            add("core.swap_counts", manager.stats.counts)
            self._fast_counts += manager.stats.fast_counts

    def finalized(self) -> "dict[str, float]":
        out = dict(self.values)
        counts = out.get("core.swap_counts", 0)
        out["core.swap_fast_share"] = self._fast_counts / counts if counts else 0.0
        faults = out.get("core.faults", 0)
        out["core.sim_fault_ms_mean"] = (
            1e3 * self._fault_time_s / faults if faults else 0.0
        )
        return out


def install(tracer: Tracer, counters: RunCounters) -> None:
    """Patch every target with ``tracer`` recorders, then wrap
    ``MiningDriver.run`` once more so finished runs feed ``counters``.
    Undo with ``tracer.unpatch_all()``."""
    for module, cls_name, attr, span in METHOD_TARGETS:
        cls = getattr(importlib.import_module(module), cls_name)
        tracer.patch_method(cls, attr, span)
    for module, attr, span in FUNCTION_TARGETS:
        tracer.patch_function(importlib.import_module(module), attr, span)

    from repro.runtime.driver import MiningDriver

    traced_run = MiningDriver.__dict__["run"]

    def run_and_harvest(self: "MiningDriver") -> "RunResult":
        result = traced_run(self)
        counters.harvest(self, result)
        return result

    tracer.replace(MiningDriver, "run", run_and_harvest)


#: Events in the synthetic bare-kernel program (approximate: 200 k).
BARE_SIM_ROUNDS = 10_000


def bare_sim_us_per_event(rounds: int = BARE_SIM_ROUNDS) -> float:
    """Host microseconds per event of a fixed program on the bare
    :mod:`repro.sim` API: four workers contending for one ``Resource``
    around pooled timeouts, plus a two-process ``Store`` ping-pong."""
    from repro.sim import Environment, Resource, Store

    env = Environment()
    cpu = Resource(env, capacity=1)
    ping, pong = Store(env), Store(env)

    def worker(delay: float):
        for _ in range(rounds):
            with cpu.request() as grant:
                yield grant
                yield env.sleep(delay)

    def server():
        for _ in range(rounds):
            item = yield ping.get()
            yield pong.put(item)

    def client():
        for i in range(rounds):
            yield ping.put(i)
            yield pong.get()
            yield env.sleep(1e-6)

    for i in range(4):
        env.process(worker(1e-6 * (i + 1)))
    env.process(server())
    env.process(client())
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    return 1e6 * wall / env.events_processed


def layer_metrics(
    rec: Recording, counts: "dict[str, float]", extras: "dict[str, float]"
) -> "dict[str, float]":
    """Every :data:`~perfbench.spec.PER_LAYER` metric for one traced rep.

    ``counts`` are exact counters (harvested off runs and derived from
    the rep's outputs); ``extras`` are measurements the runner took
    itself (``bench.*``, ``obs.*``, phase walls, the bare-kernel figure).
    A metric that does not apply to the workload reads 0.
    """
    own, busy, calls = rec.self_seconds, rec.busy_seconds, rec.calls
    m: "dict[str, Any]" = {
        "datagen.generate_s": own("datagen.generate"),
        "mining.apriori_s": own("mining.apriori"),
        "mining.partition_s": own("mining.partition"),
        "mining.candgen_s": own("mining.candgen"),
        "mining.candgen_calls": calls("mining.candgen"),
        "mining.kernel_s": own("mining.kernel"),
        "mining.kernel_calls": calls("mining.kernel"),
        "sim.run_s": busy("sim.run"),
        "sim.run_self_s": own("sim.run"),
        "cluster.transfer_s": own("cluster.transfer"),
        "cluster.send_s": own("cluster.send"),
        "cluster.disk_s": own("cluster.disk"),
        "core.fault_in_s": own("core.fault_in"),
        "core.evict_s": own("core.evict"),
        "core.peek_s": own("core.peek"),
        "core.update_s": own("core.update"),
        "core.migrate_s": own("core.migrate"),
        "core.swap_count_s": own("core.swap_count"),
        "runtime.build_s": own("runtime.build"),
        "runtime.builds": calls("runtime.build"),
        "runtime.driver_s": own("runtime.driver"),
        "runtime.exec_s": busy("runtime.exec"),
        "runtime.store_put_s": own("runtime.store_put"),
        "runtime.store_puts": calls("runtime.store_put"),
        "runtime.store_get_s": own("runtime.store_get"),
        "runtime.store_gets": calls("runtime.store_get"),
        "harness.prepare_s": own("harness.prepare"),
        "harness.prepares": calls("harness.prepare"),
        "harness.sweep_s": busy("harness.sweep"),
        "harness.sweep_self_s": own("harness.sweep"),
        "report.results_s": own("report.results"),
        "report.stats_s": own("report.stats"),
        "report.render_md_s": own("report.render_md"),
        "report.render_html_s": own("report.render_html"),
        "bench.spans": calls(),
    }
    m.update(counts)
    m.update(extras)
    txn = m.get("datagen.txn", 0)
    m["datagen.us_per_txn"] = 1e6 * m["datagen.generate_s"] / txn if txn else 0.0
    events = m.get("sim.events", 0)
    m["sim.us_per_event"] = 1e6 * m["sim.run_s"] / events if events else 0.0
    faults = m.get("core.faults", 0)
    m["core.us_per_fault"] = 1e6 * m["core.fault_in_s"] / faults if faults else 0.0
    return {spec.name: m.get(spec.name, 0) for spec in PER_LAYER}
