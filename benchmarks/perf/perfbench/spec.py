"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root carries the part of this the
driver's contract allows (names, units, directions, bounds, one-line
whys); everything else — layers, kinds, units of work, and the
``moves`` arrows saying which end-to-end metric each layer metric should
move on which workload — lives here and in the README.  The self-tests
check that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "RUN_SECONDS",
    "SETUP_REPEATS",
    "Metric",
    "LayerMetric",
    "WorkloadSpec",
    "END_TO_END",
    "PER_LAYER",
    "WORKLOADS",
    "WORKLOAD_NAMES",
    "benchmark_json",
]

#: How long one run measures (``--seconds``); the driver's budget is
#: (4 + 22 x 6 workloads) runs in 3420 s, i.e. 25 s per run all told.
RUN_SECONDS = 15

#: Input builds per run; ``setup_s`` uses their median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    #: count | host_s | sim_s | ratio
    kind: str
    better: str
    meaning: str
    #: ``(end_to_end_metric, workload)`` pairs this metric should move.
    moves: "tuple[tuple[str, str], ...]" = ()

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    #: What one unit of work is (``units_per_s`` = units_per_rep / wall_s_min).
    unit: str
    units_per_rep: int
    #: ``units_per_rep`` under ``--smoke``.
    smoke_units_per_rep: int


END_TO_END = (
    Metric(
        "setup_s", "s", "lower", 0.25,
        "imports + median input build (DB, oracle, store fill) + the cold "
        "first rep: everything a run pays before timing starts",
    ),
    Metric(
        "wall_s_min", "s", "lower", 0.25,
        "host seconds for one rep: each op's fastest time over the reps, summed",
    ),
    Metric(
        "units_per_s", "1/s", "higher", 0.25,
        "the workload's input-defined units_per_rep / wall_s_min",
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", 0.10,
        "ru_maxrss of the workload process",
    ),
)

HPA = ("hpa-mine-k3", "hpa-swap-fault", "hpa-update-dynamic")
PAGED = ("hpa-swap-fault", "hpa-update-dynamic")


def _wall(*workloads: str) -> "tuple[tuple[str, str], ...]":
    return tuple(("wall_s_min", w) for w in workloads)


def _setup(*workloads: str) -> "tuple[tuple[str, str], ...]":
    return tuple(("setup_s", w) for w in workloads)


_L = LayerMetric

PER_LAYER = (
    # -- datagen -----------------------------------------------------------
    _L("datagen.generate_s", "s", "host_s", "lower",
       "QuestGenerator construction + generate()",
       _wall("prepare-cold", "report-warm") + _setup(*HPA)),
    _L("datagen.txn", "count", "count", "higher",
       "transactions generated in the rep (input-defined)"),
    _L("datagen.us_per_txn", "us", "host_s", "lower",
       "datagen.generate_s / datagen.txn", _wall("prepare-cold")),
    # -- mining ------------------------------------------------------------
    _L("mining.apriori_s", "s", "host_s", "lower",
       "serial apriori() self time (counting; candgen is separate)",
       _wall("prepare-cold", "report-warm")),
    _L("mining.partition_s", "s", "host_s", "lower",
       "HashPartitioner.partition_counts", _wall("prepare-cold")),
    _L("mining.candgen_s", "s", "host_s", "lower",
       "generate_candidates",
       _wall("hpa-mine-k3", "prepare-cold", "hpa-swap-fault")),
    _L("mining.candgen_calls", "count", "count", "lower",
       "generate_candidates calls"),
    _L("mining.candidates", "count", "count", "lower",
       "candidate k>=2 itemsets over the rep's runs (must not move)"),
    _L("mining.kernel_s", "s", "host_s", "lower",
       "public entry points of mining.kernels",
       _wall("hpa-mine-k3", "hpa-swap-fault")),
    _L("mining.kernel_calls", "count", "count", "lower",
       "calls into mining.kernels"),
    _L("mining.phase_candgen_s", "s", "host_s", "lower",
       "host time in the drivers' candidate-generation phases (bus stamps)",
       _wall(*HPA)),
    _L("mining.phase_counting_s", "s", "host_s", "lower",
       "host time in the counting phases", _wall(*HPA)),
    _L("mining.phase_determine_s", "s", "host_s", "lower",
       "host time in the determination phases", _wall(*HPA)),
    _L("mining.count_messages", "count", "count", "lower",
       "itemset count messages (must not move)"),
    _L("mining.large_itemsets", "count", "count", "higher",
       "large itemsets mined (must not move)"),
    # -- sim ---------------------------------------------------------------
    _L("sim.events", "count", "count", "lower",
       "events the kernel dispatched; fewer with sim.pass2_s and the hash "
       "unchanged (macro-events) is a legitimate gain: judge by wall_s_min",
       _wall("hpa-swap-fault", "hpa-update-dynamic", "sweep-cold")),
    _L("sim.pass2_s", "sim_s", "sim_s", "lower",
       "sum of pass-2 virtual time over the rep's runs: the paper's "
       "headline quantity; repeats exactly for one seed"),
    _L("sim.run_s", "s", "host_s", "lower",
       "Environment.run, inclusive", _wall(*HPA, "sweep-cold")),
    _L("sim.run_self_s", "s", "host_s", "lower",
       "Environment.run minus every wrapped callable inside it: dispatch, "
       "process resume and the drivers' own generator bodies",
       _wall("hpa-swap-fault", "hpa-update-dynamic", "sweep-cold")),
    _L("sim.us_per_event", "us", "host_s", "lower",
       "sim.run_s / sim.events"),
    _L("sim.bare_us_per_event", "us", "host_s", "lower",
       "a fixed synthetic program (timeouts, one Resource, one Store "
       "ping-pong) on the bare repro.sim API: kernel ceremony without "
       "driver bodies", _wall("hpa-swap-fault", "hpa-update-dynamic")),
    # -- cluster -----------------------------------------------------------
    _L("cluster.messages", "count", "count", "lower",
       "NetworkStats.messages (a change must show in sim.pass2_s)"),
    _L("cluster.wire_bytes", "count", "count", "lower",
       "NetworkStats.wire_bytes"),
    _L("cluster.retransmissions", "count", "count", "lower",
       "NetworkStats.retransmissions"),
    _L("cluster.mailbox_peak_depth", "count", "count", "lower",
       "deepest mailbox over the rep's runs"),
    _L("cluster.blocked_puts", "count", "count", "lower",
       "mailbox puts that had to wait"),
    _L("cluster.disk_ios", "count", "count", "lower",
       "DiskStats.total_ios over every node's two disks"),
    _L("cluster.transfer_s", "s", "host_s", "lower",
       "Network.transfer", _wall(*PAGED, "sweep-cold")),
    _L("cluster.send_s", "s", "host_s", "lower",
       "Transport.send/post/recv", _wall(*PAGED, "sweep-cold")),
    _L("cluster.disk_s", "s", "host_s", "lower",
       "Disk.read/write", _wall("sweep-cold")),
    # -- core --------------------------------------------------------------
    _L("core.faults", "count", "count", "lower", "PagerStats.faults"),
    _L("core.swap_outs", "count", "count", "lower", "PagerStats.swap_outs"),
    _L("core.update_msgs", "count", "count", "lower",
       "PagerStats.update_messages"),
    _L("core.lines_migrated", "count", "count", "lower",
       "PagerStats.lines_migrated"),
    _L("core.placement_rejections", "count", "count", "lower",
       "PagerStats.placement_rejections"),
    _L("core.swap_counts", "count", "count", "lower",
       "SwapManagerStats.counts"),
    _L("core.swap_fast_share", "ratio", "ratio", "higher",
       "fast_counts / counts: counts that found their line resident"),
    _L("core.sim_fault_ms_mean", "sim_ms", "sim_s", "lower",
       "simulated mean pagefault service time (the paper's ~2.3 ms band)"),
    _L("core.fault_in_s", "s", "host_s", "lower",
       "Pager.fault_in", _wall("hpa-swap-fault", "sweep-cold")),
    _L("core.evict_s", "s", "host_s", "lower",
       "Pager.evict", _wall("hpa-swap-fault", "sweep-cold")),
    _L("core.peek_s", "s", "host_s", "lower",
       "Pager.peek_line (determination reads of swapped lines)",
       _wall(*PAGED)),
    _L("core.us_per_fault", "us", "host_s", "lower",
       "core.fault_in_s / core.faults", _wall("hpa-swap-fault")),
    _L("core.update_s", "s", "host_s", "lower",
       "Pager.buffer_update + drain", _wall("hpa-update-dynamic")),
    _L("core.migrate_s", "s", "host_s", "lower",
       "Pager.migrate_from", _wall("hpa-update-dynamic")),
    _L("core.swap_count_s", "s", "host_s", "lower",
       "SwapManager.count_* / insert_candidate", _wall(*PAGED)),
    # -- runtime -----------------------------------------------------------
    _L("runtime.build_s", "s", "host_s", "lower",
       "build_runtime", _wall("sweep-cold", *HPA)),
    _L("runtime.builds", "count", "count", "lower", "build_runtime calls"),
    _L("runtime.driver_s", "s", "host_s", "lower",
       "driver construction (DB partitioning) + MiningDriver.run outside "
       "Environment.run", _wall("sweep-cold", *HPA)),
    _L("runtime.exec_s", "s", "host_s", "lower",
       "Scenario.execute, inclusive", _wall("sweep-cold")),
    _L("runtime.store_put_s", "s", "host_s", "lower",
       "ResultStore.put", _wall("sweep-cold") + _setup("report-warm")),
    _L("runtime.store_puts", "count", "count", "lower", "ResultStore.put calls"),
    _L("runtime.store_bytes", "count", "count", "lower",
       "bytes of store entries after the rep"),
    _L("runtime.store_get_s", "s", "host_s", "lower",
       "ResultStore.get", _wall("report-warm")),
    _L("runtime.store_gets", "count", "count", "lower", "ResultStore.get calls"),
    _L("runtime.store_hit_share", "ratio", "ratio", "higher",
       "store hits / (hits + misses) during the rep"),
    _L("runtime.cache_hit_share", "ratio", "ratio", "higher",
       "ScenarioCache hits / (hits + misses) during the rep"),
    # -- harness -----------------------------------------------------------
    _L("harness.prepare_s", "s", "host_s", "lower",
       "prepare_workload self time", _wall("prepare-cold")),
    _L("harness.prepares", "count", "count", "lower", "prepare_workload calls"),
    _L("harness.sweep_s", "s", "host_s", "lower",
       "run_sweep_outcome, inclusive", _wall("sweep-cold", "report-warm")),
    _L("harness.sweep_self_s", "s", "host_s", "lower",
       "run_sweep_outcome self time: grid expansion, dedupe, report builders",
       _wall("sweep-cold", "report-warm")),
    _L("harness.cells", "count", "count", "higher", "sweep cells resolved"),
    _L("harness.cells_executed", "count", "count", "lower",
       "cells that ran a simulation"),
    _L("harness.cells_cached", "count", "count", "higher",
       "cells served by a cache tier"),
    # -- report ------------------------------------------------------------
    _L("report.results_s", "s", "host_s", "lower",
       "ExperimentResults.artifacts/payload self time", _wall("report-warm")),
    _L("report.stats_s", "s", "host_s", "lower",
       "bootstrap_ci, mann_whitney_u, permutation_test, summarize",
       _wall("report-warm")),
    _L("report.render_md_s", "s", "host_s", "lower",
       "render_markdown", _wall("report-warm")),
    _L("report.render_html_s", "s", "host_s", "lower",
       "render_html", _wall("report-warm")),
    _L("report.cells", "count", "count", "higher",
       "statistic cells in the rendered payloads"),
    _L("report.bytes_out", "count", "count", "lower",
       "bytes of markdown + HTML + JSON rendered"),
    # -- obs ---------------------------------------------------------------
    _L("obs.telemetry_on_ratio", "ratio", "ratio", "lower",
       "an hpa-update-dynamic rep with enable_telemetry() / the lean rep "
       "(ROADMAP item 5 budgets 1.05)"),
    _L("obs.events_emitted", "count", "count", "lower",
       "bus events in that telemetry-on rep"),
    # -- bench -------------------------------------------------------------
    _L("bench.lean_wall_s", "s", "host_s", "lower",
       "fastest untraced rep in the traced run (the overhead ratio's base)"),
    _L("bench.traced_wall_s", "s", "host_s", "lower",
       "the traced rep the per-layer numbers come from"),
    _L("bench.trace_overhead_ratio", "ratio", "ratio", "lower",
       "bench.traced_wall_s / bench.lean_wall_s"),
    _L("bench.unattributed_share", "ratio", "ratio", "lower",
       "share of the traced rep spent outside every wrapped callable"),
    _L("bench.spans", "count", "count", "lower",
       "spans recorded in the traced rep"),
)

WORKLOADS = (
    WorkloadSpec(
        "prepare-cold",
        "datagen plus serial apriori with memoisation dropped and no "
        "simulation: the stand-in for the 120 s paper-scale prepare",
        "transactions", 16_000, 600,
    ),
    WorkloadSpec(
        "hpa-mine-k3",
        "3-pass HPA with no pager: candgen and counting kernels dominate, "
        "few events, so sim-kernel work barely shows",
        "transactions", 3_000, 240,
    ),
    WorkloadSpec(
        "hpa-swap-fault",
        "simple swapping at a 90% limit on 16+4 nodes: event dispatch, "
        "process resume, transport round-trips, fault_in/evict",
        "transactions", 3_000, 240,
    ),
    WorkloadSpec(
        "hpa-update-dynamic",
        "remote update under mid-pass shortages and under churn: one-way "
        "updates, monitors, placement, migration instead of faults",
        "transactions", 6_000, 480,
    ),
    WorkloadSpec(
        "sweep-cold",
        "four tiny-scale sweeps into an empty store: every pager, NPA, "
        "loss and migration pay build, execute, put and report building",
        "cells", 37, 24,
    ),
    WorkloadSpec(
        "report-warm",
        "multi-seed report rendered from a warm store: store reads, "
        "stat tests, rendering; no simulation, so sim work leaves it flat",
        "renders", 6, 1,
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


def benchmark_json() -> dict:
    """The root ``BENCHMARK.json`` this spec implies."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
