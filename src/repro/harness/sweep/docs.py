"""Generate ``EXPERIMENTS.md`` from the declarative sweep registry.

Each :class:`~repro.harness.sweep.spec.Sweep` carries its paper-vs-
measured narrative in its ``doc`` field, next to the grid it documents;
this module assembles those sections (plus the static preamble, summary,
and calibration epilogue) into the repository's ``EXPERIMENTS.md``.

    python -m repro.harness.sweep.docs            # rewrite the file
    python -m repro.harness.sweep.docs --check    # CI drift check
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Mapping, Optional

from repro.harness.sweep.spec import Sweep

__all__ = ["render_experiments_md"]

#: The paper's own artifacts (§5), in presentation order.
PAPER_SECTIONS = (
    "table2", "table3", "table4", "fig3", "fig4", "fig5",
    "disk", "monitor", "policy", "blocksize",
)

#: Our additions beyond the paper's artifacts.
EXTENSION_SECTIONS = ("churn", "eld", "loss", "npa", "scaling")

INTRO = """\
# EXPERIMENTS — paper vs. measured

<!-- Generated from the Sweep registry by
     `python -m repro.harness.sweep.docs`; edit the `doc` fields in
     src/repro/harness/experiments.py, not this file. -->

Every table and figure of the paper's evaluation (§5), reproduced on the
simulated cluster at the default **small** scale
(`T10.I4.D1K`, 250 items, minsup 1 %, 4 application nodes, 4 096 hash
lines; the paper: `T10-ish`, 1 M transactions, 5 000 items, minsup 0.1 %,
8 application nodes, 800 000 hash lines). Regenerate any row below with
`repro-bench <id> --scale small`; `REPRO_BENCH_SCALE=small pytest
tests/harness/test_paper_claims.py` asserts every shape (`tiny` in tier-1).
Add `--jobs N` to fan scenario executions out to worker processes and
`--resume` to reuse a previous invocation's persisted results — both
leave every number below byte-identical.

Absolute times are *virtual seconds on a scaled workload* and are not
expected to match the paper's wall clock; the claims under test are the
**shapes**: orderings, ratios, knees, and flatness. Per-operation time
constants (RTT, transmit, disk access, fault service) are the paper's
own measurements and are unscaled.

Memory-usage limits are quoted in the paper's MB values, mapped through
the busiest node's candidate footprint (the paper's 12–15 MB limits are
78–97 % of its busiest node's 15.39 MB; ours are the same fractions of
our busiest node's bytes).

Each number below is one deterministic run at the scale's default seed.
For means with 95 % bootstrap confidence intervals and rank tests over
several replication seeds, render the statistical report:
`repro-report --scale small --seeds 3 --store rs --out reports`
(see DESIGN.md §13).

---
"""

SUMMARY = """\
## Summary

| artifact | claim | held? |
|---|---|---|
| Table 2 | pass-2 candidate explosion, natural termination | yes |
| Table 3 | near-equal per-node candidates with skew | yes (milder skew) |
| Table 4 | PF ≈ RTT + transmit + service ≈ 2–3 ms | yes (+queueing) |
| Figure 3 | few memory nodes bottleneck; knee by 8–16 | yes |
| Figure 4 | disk ≫ simple ≫ remote update | yes |
| Figure 5 | migration overhead negligible | yes |
| §5.2 | disk ≥13 ms / ≥7.5 ms vs ~2.3 ms remote | exact |
| §5.4 | monitor interval 1–3 s free; <1 s degrades | 1–3 s yes; <1 s penalty **missed** (20 ms within ±2.2 % of 3 s) |

---

## Extensions beyond the paper's artifacts
"""

CALIBRATION = """\
### Calibration (`python -m repro.analysis.calibration`)

| quantity | simulated | paper | deviation |
|---|---|---|---|
| point-to-point RTT (64 B) | 0.521 ms | ~0.5 ms | +4.3 % |
| streaming throughput | 113 Mbps | ~120 Mbps | −5.5 % |
| 8-into-1 fan-in factor | 7.88× | 8× | −1.5 % |
| Barracuda random 4 KB read | 13.36 ms | ≥13.0 ms | +2.7 % |
| DK3E1T random 4 KB read | 7.76 ms | ≥7.5 ms | +3.5 % |
| remote pagefault (analytic) | 2.29 ms | 2.33 ms | −1.7 % |

All six primitives sit within tolerance of the paper's measurements;
`tests/analysis/test_calibration.py` enforces this permanently
(`tests/cluster/test_netperf.py` checks the measured network/disk
primitives against the paper's §5.2 figures directly).
"""


def _section(sweep: Sweep, level: str) -> str:
    body = sweep.doc.rstrip()
    return f"{level} {sweep.title} (`{sweep.name}`)\n\n{body}\n"


def render_experiments_md(
    sweeps: "Optional[Mapping[str, Sweep]]" = None,
) -> str:
    """The full EXPERIMENTS.md text for the given registry."""
    if sweeps is None:
        from repro.harness.experiments import ALL_SWEEPS

        sweeps = ALL_SWEEPS
    parts = [INTRO]
    parts.extend(_section(sweeps[name], "##") for name in PAPER_SECTIONS)
    parts.append(SUMMARY)
    parts.extend(_section(sweeps[name], "###") for name in EXTENSION_SECTIONS)
    parts.append(CALIBRATION)
    return "\n".join(parts)


def main(argv: "Optional[list[str]]" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.sweep.docs",
        description="Regenerate EXPERIMENTS.md from the sweep registry.",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parents[4] / "EXPERIMENTS.md"),
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if the file differs from the registry (no write)",
    )
    args = parser.parse_args(argv)
    text = render_experiments_md()
    out = Path(args.out)
    if args.check:
        current = out.read_text() if out.exists() else ""
        if current != text:
            print(f"{out} is stale; regenerate with "
                  "`python -m repro.harness.sweep.docs`")
            return 1
        print(f"{out} is in sync with the sweep registry")
        return 0
    out.write_text(text)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
