#!/usr/bin/env python3
"""The repository benchmark (see README.md next to this file).

    python3 benchmarks/perf/run.py                       # all workloads, both passes, one artifact
    python3 benchmarks/perf/run.py --smoke               # the same at tiny sizes, 1 rep, < 30 s
    python3 benchmarks/perf/run.py --workload NAME       # one workload, both passes
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

The last form is one pass of one workload in this process; its last
line of output is the result object ``BENCHMARK.json``'s driver reads.
Without ``--trace`` every workload runs in its own subprocess, first
untraced (end-to-end metrics) then traced (per-layer metrics).

Exit codes: 0 ok, 1 a failed op or check (or ``--compare`` found a
``worse``), 2 usage, 3 the program's source tree is missing.
"""

from __future__ import annotations

import os
import sys
import time

_PROCESS_START = time.perf_counter()

# One thread per numeric library, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from perfbench import compare, provenance  # noqa: E402
from perfbench.spec import (  # noqa: E402
    END_TO_END, RUN_SECONDS, WORKLOAD_NAMES, WORKLOADS,
)

#: Scratch space for temp stores; inside the checkout, git-ignored.
TMP_ROOT = ROOT / ".bench_tmp"
DEFAULT_OUT = "perfbench-results.json"
DETAIL_PREFIX = "DETAIL "
SCHEMA = "perfbench/1"


def _parse(argv: "list[str]") -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                   help="how long one pass measures")
    p.add_argument("--reps", type=int,
                   help="a fixed number of reps per phase instead of --seconds")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="run one pass of --workload in this process: "
                        "0 end-to-end, 1 per-layer")
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, 1 rep: a schema-and-checks run")
    p.add_argument("--trace-dir", help="write Chrome trace-event JSON here")
    p.add_argument("--out", default=DEFAULT_OUT, help="where the artifact goes")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = p.parse_args(argv)
    if args.trace is not None and args.workload is None:
        p.error("--trace needs --workload")
    if args.reps is not None and args.reps < 1:
        p.error("--reps must be at least 1")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.smoke and args.reps is None:
        args.reps = 1
    return args


def _import_program() -> float:
    """Import the program from this checkout's ``src``; returns the
    seconds since process start (interpreter, numpy, the program)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        raise SystemExit(3)
    sys.path.insert(0, str(ROOT / "src"))
    import repro.analysis.report  # noqa: F401
    import repro.harness.experiments  # noqa: F401
    import repro.harness.sweep  # noqa: F401

    return time.perf_counter() - _PROCESS_START


def _print_metrics(title: str, metrics: "dict[str, dict]") -> None:
    print(title)
    for name, m in metrics.items():
        value = m["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<30} {text:>14} {m['unit']}")


def run_single(args: argparse.Namespace) -> int:
    """One pass of one workload here; the result object goes last."""
    import_s = _import_program()
    from perfbench.runner import RunSettings, run_workload

    outcome = run_workload(
        RunSettings(
            workload=args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), reps=args.reps, smoke=args.smoke,
            trace_dir=args.trace_dir,
        ),
        import_s, TMP_ROOT,
    )
    d = outcome.detail
    kind = "per-layer (traced)" if args.trace else "end-to-end (untraced)"
    _print_metrics(f"{args.workload} seed {args.seed}: {kind}", outcome.metrics)
    if "rep_wall_s" in d:
        print(f"  reps {d['reps']}: whole-rep wall min {d['rep_wall_min_s']:.4f} "
              f"q1 {d['rep_wall_q1_s']:.4f} median {d['rep_wall_median_s']:.4f} "
              f"q3 {d['rep_wall_q3_s']:.4f} s (diagnostic)")
    print(f"  ops attempted {outcome.attempted}, failed {outcome.failed}; "
          f"output_hash {d['output_hash']}")
    for failure in d["failures"]:
        print(f"  FAILED {failure}")
    print(DETAIL_PREFIX + json.dumps(d))
    print(json.dumps(outcome.result_line()))
    return 0 if outcome.correct else 1


def _child(args: argparse.Namespace, workload: str, trace: int) -> "tuple[dict, dict]":
    """Run one pass in a subprocess; returns ``(result, detail)``."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.reps is not None:
        cmd += ["--reps", str(args.reps)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace_dir and trace:
        cmd += ["--trace-dir", args.trace_dir]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = done.stdout.splitlines()
    detail_at = next(
        (i for i, line in enumerate(lines) if line.startswith(DETAIL_PREFIX)), None
    )
    if done.returncode not in (0, 1) or detail_at is None:
        sys.stderr.write(done.stdout + done.stderr)
        raise RuntimeError(f"{workload} --trace {trace} exited {done.returncode}")
    print("\n".join(lines[:detail_at]))
    return json.loads(lines[-1]), json.loads(lines[detail_at][len(DETAIL_PREFIX):])


def run_all(args: argparse.Namespace) -> int:
    """Every selected workload, untraced then traced, into one artifact."""
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    prov = provenance.collect(ROOT, {
        "seed": args.seed, "seconds": args.seconds, "reps": args.reps,
        "smoke": args.smoke,
    })
    warning = provenance.host_degraded(prov)
    if warning:
        print(f"WARNING {warning}")
    units = {w.name: w for w in WORKLOADS}
    artifact: dict = {"schema": SCHEMA, "provenance": prov, "workloads": {}}
    failed = False
    for name in names:
        lean, lean_detail = _child(args, name, 0)
        traced, traced_detail = _child(args, name, 1)
        hashes_agree = lean_detail["output_hash"] == traced_detail["output_hash"]
        if not hashes_agree:
            print(f"FAILED {name}: traced and untraced output hashes differ")
        ok = lean["correct"] and traced["correct"] and hashes_agree
        failed = failed or not ok
        attempted = lean["attempted"] + traced["attempted"]
        n_failed = lean["failed"] + traced["failed"]
        artifact["workloads"][name] = {
            "unit": units[name].unit,
            "units_per_rep": lean_detail["units_per_rep"],
            "correct": ok,
            "attempted": attempted,
            "failed": n_failed,
            "failed_share": n_failed / attempted,
            "output_hash": lean_detail["output_hash"],
            "traced_output_hash": traced_detail["output_hash"],
            "end_to_end": lean["metrics"],
            "per_layer": traced["metrics"],
            "reps": {k: v for k, v in lean_detail.items() if k.startswith(("rep", "op_"))},
            "setup": {k: lean_detail[k] for k in ("import_s", "build_s", "first_rep_s")},
            "layer_totals": traced_detail["layer_totals"],
        }
    prov["ended"] = provenance.now_iso()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=1)
        fh.write("\n")
    _print_summary(artifact)
    print(f"artifact: {args.out}")
    return 1 if failed else 0


def _print_summary(artifact: dict) -> None:
    header = f"{'workload':<20}" + "".join(f"{m.name + ' [' + m.unit + ']':>18}" for m in END_TO_END)
    print(header + f"{'failed_share':>14}")
    for name, w in artifact["workloads"].items():
        row = f"{name:<20}" + "".join(
            f"{w['end_to_end'][m.name]['value']:>18.4f}" for m in END_TO_END
        )
        print(row + f"{w['failed_share']:>14.3f}")


def main(argv: "list[str]") -> int:
    args = _parse(argv)
    if args.compare:
        return compare.main(*args.compare)
    if args.trace is not None:
        return run_single(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
