"""One run of one workload in this process: build the inputs, warm up,
measure for ``--seconds``, check every output.

``trace=False`` is the end-to-end pass: nothing is patched.
``trace=True`` spends part of the time on lean reps (the base of the
overhead ratio), then installs the recorders of :mod:`perfbench.layers`
and reports the per-layer metrics of its fastest traced rep.

Timing statistic.  Host speed on a shared box drifts by +-15 % over
seconds, so the end-to-end wall is a floor estimate: each op's fastest
time over the reps, summed over the rep's ops.  Median and quartiles of
the whole-rep walls are printed as diagnostics only.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from perfbench import layers
from perfbench.spec import END_TO_END, HPA, PER_LAYER, SETUP_REPEATS
from perfbench.tracing import Recording, Tracer
from perfbench.workloads import OpFailure, Workload, make_workload

__all__ = ["RunSettings", "RunOutcome", "run_workload"]

_clock = time.perf_counter

#: Workloads that run the simulation kernel (they also report the
#: bare-kernel figure).
SIMULATING = HPA + ("sweep-cold",)

#: The workload whose traced run also measures the cost of telemetry.
TELEMETRY_WORKLOAD = "hpa-update-dynamic"


@dataclass(frozen=True)
class RunSettings:
    workload: str
    seed: int
    seconds: float
    trace: bool
    #: Fixed rep count per phase instead of the time budget (``--reps``).
    reps: Optional[int] = None
    smoke: bool = False
    trace_dir: Optional[str] = None


@dataclass
class RunOutcome:
    """The contract's result object plus the diagnostics the artifact keeps."""

    correct: bool
    attempted: int
    failed: int
    metrics: "dict[str, dict]"
    detail: "dict[str, Any]" = field(default_factory=dict)

    def result_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


@dataclass
class _Rep:
    walls: "dict[str, float]"
    counts: "dict[str, float]"

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


class _Session:
    """Reps of one workload plus the running tally of checked ops."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: "list[str]" = []

    def rep(self, tracer: Optional[Tracer] = None) -> _Rep:
        wl = self.workload
        gc.collect()
        wl.before_rep()
        try:
            outputs: "dict[str, Any]" = {}
            walls: "dict[str, float]" = {}
            with tracer.span("bench.rep") if tracer is not None else nullcontext():
                for op, call in wl.ops():
                    start = _clock()
                    try:
                        out = call()
                    except Exception as exc:  # an op that raises is a failed op
                        out = OpFailure(exc)
                    walls[op] = _clock() - start
                    outputs[op] = out
            verdicts = wl.check(outputs)
            ok = all(verdicts.values())
            counts = wl.counts(outputs) if ok else {}
        finally:
            wl.after_rep()
        self.attempted += len(verdicts)
        for op, passed in verdicts.items():
            if not passed:
                self.failed += 1
                self.failures.append(f"{op}: {outputs[op]!r}"[:200])
        return _Rep(walls, counts)

    def reps_for(
        self, budget_s: float, fixed: Optional[int], at_least: int,
        tracer: Optional[Tracer] = None,
        after: "Optional[Callable[[_Rep], None]]" = None,
    ) -> "list[_Rep]":
        """Reps until ``budget_s`` is spent (or exactly ``fixed`` reps);
        ``after`` sees each rep as it finishes."""
        out: "list[_Rep]" = []
        start = _clock()
        while True:
            out.append(self.rep(tracer))
            if after is not None:
                after(out[-1])
            if fixed is not None:
                if len(out) >= fixed:
                    return out
            elif len(out) >= at_least and _clock() - start >= budget_s:
                return out


def _floor_wall(reps: "list[_Rep]") -> float:
    """Σ over ops of the op's fastest time across ``reps``."""
    return sum(min(r.walls[op] for r in reps) for op in reps[0].walls)


def _rep_diagnostics(reps: "list[_Rep]") -> dict:
    walls = sorted(r.wall for r in reps)
    quartiles = (
        statistics.quantiles(walls, n=4) if len(walls) >= 2 else [walls[0]] * 3
    )
    return {
        "reps": len(walls),
        "rep_wall_s": [r.wall for r in reps],
        "rep_wall_min_s": walls[0],
        "rep_wall_median_s": statistics.median(walls),
        "rep_wall_q1_s": quartiles[0],
        "rep_wall_q3_s": quartiles[2],
        "op_wall_min_s": {op: min(r.walls[op] for r in reps) for op in reps[0].walls},
    }


def _metric_values(values: "dict[str, float]", specs: tuple) -> "dict[str, dict]":
    return {s.name: {"value": values[s.name], "unit": s.unit} for s in specs}


def run_workload(settings: RunSettings, import_s: float, tmp_root: Path) -> RunOutcome:
    """Run one pass of one workload; ``import_s`` is what the process
    spent importing the program before calling this."""
    tmp_root.mkdir(parents=True, exist_ok=True)
    wl = make_workload(settings.workload, settings.seed, settings.smoke, tmp_root)
    session = _Session(wl)
    try:
        # Set-up, several times: build the inputs, then one rep.  The
        # first rep is the cold one (lazy imports, first-call caches);
        # the later ones are ordinary reps and join the timed ones.
        n_builds = 1 if (settings.trace or settings.smoke) else SETUP_REPEATS
        build_s, first_rep_s = [], []
        early: "list[_Rep]" = []
        for i in range(n_builds):
            start = _clock()
            wl.build()
            build_s.append(_clock() - start)
            rep = session.rep()
            first_rep_s.append(rep.wall)
            if i:
                early.append(rep)
        setup_s = import_s + statistics.median(
            b + r for b, r in zip(build_s, first_rep_s)
        )
        detail: "dict[str, Any]" = {
            "workload": wl.name,
            "seed": settings.seed,
            "smoke": settings.smoke,
            "units_per_rep": wl.units_per_rep,
            "import_s": import_s,
            "build_s": build_s,
            "first_rep_s": first_rep_s,
        }
        if settings.trace:
            values = _traced_pass(session, settings, detail)
            specs: tuple = PER_LAYER
        else:
            reps = early + session.reps_for(settings.seconds, settings.reps, at_least=3)
            detail.update(_rep_diagnostics(reps))
            wall = _floor_wall(reps)
            values = {
                "setup_s": setup_s,
                "wall_s_min": wall,
                "units_per_s": wl.units_per_rep / wall,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            specs = END_TO_END
        detail["output_hash"] = wl.output_hash()
        detail["failures"] = session.failures
    finally:
        wl.close()
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run's files, or ours after a crash
    return RunOutcome(
        correct=session.failed == 0,
        attempted=session.attempted,
        failed=session.failed,
        metrics=_metric_values(values, specs),
        detail=detail,
    )


def _traced_pass(
    session: _Session, settings: RunSettings, detail: "dict[str, Any]"
) -> "dict[str, float]":
    wl = session.workload
    with_telemetry = wl.name == TELEMETRY_WORKLOAD
    lean_share, tel_share = (0.25, 0.2) if with_telemetry else (0.3, 0.0)

    lean = session.reps_for(lean_share * settings.seconds, settings.reps, at_least=2)
    lean_wall = _floor_wall(lean)
    extras: "dict[str, float]" = {"bench.lean_wall_s": lean_wall}

    if with_telemetry:
        extras.update(_telemetry_reps(session, tel_share * settings.seconds,
                                      settings.reps, lean_wall))
    if wl.name in SIMULATING:
        extras["sim.bare_us_per_event"] = layers.bare_sim_us_per_event()

    # The traced reps: recorders on, phase clocks attached to every
    # driver run the workload constructs itself.
    from repro.harness.wallclock import PhaseWallClock

    tracer = Tracer()
    counters = layers.RunCounters()
    clocks: "list[PhaseWallClock]" = []
    wl.on_run = lambda run: clocks.append(PhaseWallClock().attach(run))
    layers.install(tracer, counters)
    # (rep, recording, run counters, phase walls, index) of the fastest.
    best: "Optional[tuple[_Rep, Recording, dict, dict, int]]" = None
    index = 0

    def keep_fastest(rep: _Rep) -> None:
        nonlocal best, index
        index += 1
        rec = tracer.take()
        if best is None or rep.wall < best[0].wall:
            best = (rep, rec, counters.finalized(), _phase_walls(clocks), index)
        counters.reset()
        clocks.clear()

    try:
        session.reps_for(
            (1.0 - lean_share - tel_share) * settings.seconds, settings.reps,
            at_least=1, tracer=tracer, after=keep_fastest,
        )
    finally:
        tracer.unpatch_all()
        wl.on_run = None
    assert best is not None
    rep, rec, run_counts, phases, best_index = best
    root_busy = rec.busy_seconds("bench.rep")
    extras.update(phases)
    extras.update({
        "bench.traced_wall_s": rep.wall,
        "bench.trace_overhead_ratio": rep.wall / lean_wall,
        "bench.unattributed_share": (
            rec.self_seconds("bench.rep") / root_busy if root_busy else 0.0
        ),
    })
    detail.update({
        "lean_reps": len(lean),
        "traced_reps": index,
        "layer_totals": rec.totals_dict(),
        "collapsed_spans": rec.collapsed,
    })
    if settings.trace_dir:
        os.makedirs(settings.trace_dir, exist_ok=True)
        tags = {"workload": wl.name, "seed": settings.seed, "rep": best_index}
        path = os.path.join(settings.trace_dir, f"{wl.name}.trace.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rec.chrome_trace(tags), fh)
        detail["trace_file"] = path
    return layers.layer_metrics(rec, {**run_counts, **rep.counts}, extras)


def _phase_walls(clocks: list) -> "dict[str, float]":
    """Host time per driver phase, summed over passes and runs."""
    out = {
        "mining.phase_candgen_s": 0.0,
        "mining.phase_counting_s": 0.0,
        "mining.phase_determine_s": 0.0,
    }
    for clock in clocks:
        for k in range(2, 16):
            walls = clock.pass_walls(k)
            if not any(walls.values()):
                break
            out["mining.phase_candgen_s"] += walls["candgen_wall_s"]
            out["mining.phase_counting_s"] += walls["counting_wall_s"]
            out["mining.phase_determine_s"] += walls["determine_wall_s"]
    return out


def _telemetry_reps(
    session: _Session, budget_s: float, fixed: Optional[int], lean_wall: float
) -> "dict[str, float]":
    """Reps with the full telemetry session attached to every run."""
    from repro.obs import Telemetry

    wl = session.workload
    sessions: "list[Telemetry]" = []

    def attach(run: Any) -> None:
        telemetry = Telemetry()
        sessions.append(telemetry)
        run.enable_telemetry(telemetry)

    events = 0

    def count_events(rep: _Rep) -> None:
        nonlocal events
        events = sum(len(t.events) for t in sessions)
        sessions.clear()  # one rep's event logs at a time

    wl.on_run = attach
    try:
        reps = session.reps_for(budget_s, fixed, at_least=2, after=count_events)
    finally:
        wl.on_run = None
    return {
        "obs.telemetry_on_ratio": _floor_wall(reps) / lean_wall,
        "obs.events_emitted": events,
    }
