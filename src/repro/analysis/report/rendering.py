"""Render multi-seed artifact stats as markdown and standalone HTML.

Both renderers are pure functions of the
:class:`~repro.analysis.report.samples.ArtifactStats` they are given:
no host clocks, no generation timestamps, no environment sniffing —
re-rendering from a warm result store must reproduce the previous
output byte for byte (the CI ``report-smoke`` job diffs exactly that).

The HTML report is a single self-contained file (inline CSS, inline
SVG, system font stack).  Figure artifacts get an error-bar line chart:
series colors come from the validated categorical palette below in its
fixed slot order (never cycled), light and dark values swap via CSS
custom properties, whiskers span the 95 % bootstrap CI, and every
marker carries a native ``<title>`` tooltip.  The full stats table
always follows the chart, so identity and exact values never depend on
color alone.  Value/label text wears ink tokens, never series colors.

Each render emits one ``report-render`` event on the ambient telemetry
session (when present) so sweeps over report generation show up in the
same metrics registry as everything else.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from repro.analysis.report.samples import ArtifactStats, CellStats
from repro.obs import emit_ambient

__all__ = ["render_html", "render_markdown"]


# ---------------------------------------------------------------------------
# Shared formatting
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    """Human-facing number: integers plain, floats to 4 significant
    digits (fixed format => stable output)."""
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.4g}"


def _fmt_ci(c: CellStats) -> str:
    s = c.summary
    return f"[{_fmt(s.ci_low)}, {_fmt(s.ci_high)}]"


#: A table as its header and rows; both formats render the same two.
_Table = tuple[list[str], list[tuple[str, ...]]]


def _stats_table(art: ArtifactStats) -> _Table:
    """Header and rows of the per-cell stats table."""
    return ["series", art.x_label, "n", "mean", "95% CI", "std"], [
        (
            c.group, c.x, str(c.summary.n), _fmt(c.summary.mean),
            _fmt_ci(c), _fmt(c.summary.std),
        )
        for c in art.cells
    ]


def _rank_table(art: ArtifactStats) -> _Table:
    """Header and rows of the rank-test table."""
    return [
        art.x_label, "comparison", "mean A", "mean B", "A/B", "U",
        "p (Mann-Whitney)", "p (permutation)",
    ], [
        (
            c.x, f"{c.group_a} vs {c.group_b}", _fmt(c.mean_a),
            _fmt(c.mean_b), _fmt(c.ratio), _fmt(c.u_statistic),
            _fmt(c.p_mann_whitney), _fmt(c.p_permutation),
        )
        for c in art.comparisons
    ]


def _emit_render(fmt: str, artifacts: "Mapping[str, ArtifactStats]") -> None:
    emit_ambient(
        "report-render", fmt=fmt,
        n_cells=sum(len(a.cells) for a in artifacts.values()),
    )


# ---------------------------------------------------------------------------
# Markdown
# ---------------------------------------------------------------------------

def _md_table(header: "Sequence[str]", rows: "Iterable[Sequence[str]]") -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join(" --- " for _ in header) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _md_artifact(art: ArtifactStats) -> str:
    parts = [f"## {art.title} (`{art.artifact}`, {art.exp_id})", ""]
    parts.append(
        f"{art.metric} [{art.unit}] by {art.x_label}; mean over the "
        "replicate seeds with a 95% bootstrap CI."
    )
    parts.append("")
    parts.append(_md_table(*_stats_table(art)))
    if art.comparisons:
        parts.append("")
        parts.append("### Rank tests")
        parts.append("")
        parts.append(_md_table(*_rank_table(art)))
    if art.notes:
        parts.append("")
        for note in art.notes:
            parts.append(f"- {note}")
    return "\n".join(parts)


def render_markdown(
    scale: str,
    seeds: "Sequence[int]",
    artifacts: "Mapping[str, ArtifactStats]",
) -> str:
    """The markdown report for one scale/seed-set."""
    seed_list = ", ".join(str(s) for s in seeds)
    parts = [
        f"# Statistical report — {scale} scale, {len(seeds)} seed(s)",
        "",
        f"Replication seeds: {seed_list}.  Each seed regenerates the "
        "synthetic transaction database and re-runs every scenario; "
        "spread across seeds is workload variability, not measurement "
        "noise (the simulation itself is deterministic).",
    ]
    for art in artifacts.values():
        parts.append("")
        parts.append(_md_artifact(art))
    text = "\n".join(parts) + "\n"
    _emit_render("markdown", artifacts)
    return text


# ---------------------------------------------------------------------------
# HTML + SVG
# ---------------------------------------------------------------------------

#: Validated categorical palette (fixed slot order, never cycled):
#: light-surface and dark-surface steps of the same eight hues.
_SERIES_LIGHT = (
    "#2a78d6", "#eb6834", "#1baf7a", "#eda100",
    "#e87ba4", "#008300", "#4a3aa7", "#e34948",
)
_SERIES_DARK = (
    "#3987e5", "#d95926", "#199e70", "#c98500",
    "#d55181", "#008300", "#9085e9", "#e66767",
)

_CSS_TEMPLATE = """
:root { color-scheme: light dark; }
body {
  margin: 2rem auto; max-width: 60rem; padding: 0 1rem;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--ink);
}
.viz-root {
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --ink: #0b0b0b; --ink-2: #52514e; --ink-muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --warn-ink: #7a4c00; --warn-bg: #fdf3dd;
%LIGHT_SLOTS%
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    --page: #0d0d0d; --surface-1: #1a1a19;
    --ink: #ffffff; --ink-2: #c3c2b7; --ink-muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --warn-ink: #f0d9a6; --warn-bg: #33290f;
%DARK_SLOTS%
  }
}
:root[data-theme="dark"] .viz-root {
  --page: #0d0d0d; --surface-1: #1a1a19;
  --ink: #ffffff; --ink-2: #c3c2b7; --ink-muted: #898781;
  --grid: #2c2c2a; --axis: #383835;
  --warn-ink: #f0d9a6; --warn-bg: #33290f;
%DARK_SLOTS%
}
h1 { font-size: 1.4rem; }
h2 { font-size: 1.1rem; margin-top: 2.2rem; }
h3 { font-size: 0.95rem; color: var(--ink-2); }
p.meta { color: var(--ink-2); }
table {
  border-collapse: collapse; font-size: 0.85rem; margin: 0.8rem 0;
}
th, td {
  padding: 0.3rem 0.7rem; text-align: right;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
th { color: var(--ink-2); font-weight: 600; }
td:first-child, th:first-child { text-align: left; }
ul.notes { color: var(--ink-2); font-size: 0.85rem; }
.chart {
  background: var(--surface-1); border: 1px solid var(--grid);
  border-radius: 6px; padding: 0.8rem; margin: 0.8rem 0;
}
.legend {
  display: flex; flex-wrap: wrap; gap: 1rem;
  font-size: 0.8rem; color: var(--ink-2); margin-bottom: 0.4rem;
}
.legend .swatch {
  display: inline-block; width: 0.8rem; height: 0.8rem;
  border-radius: 3px; margin-right: 0.35rem; vertical-align: -0.1rem;
}
.warning {
  background: var(--warn-bg); color: var(--warn-ink);
  border-radius: 6px; padding: 0.6rem 0.9rem; font-size: 0.9rem;
}
svg text { font-family: inherit; }
"""


def _esc(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _slot_css(colors: "Sequence[str]", indent: str) -> str:
    return "\n".join(
        f"{indent}--series-{i + 1}: {c};" for i, c in enumerate(colors)
    )


def _nice_step(raw: float) -> float:
    """Round a raw tick interval up to a 1/2/2.5/5 x 10^k value."""
    if raw <= 0.0:
        return 1.0
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for factor in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= factor * magnitude:
            return factor * magnitude
    return 10.0 * magnitude


def _svg_chart(art: ArtifactStats) -> str:
    """Error-bar line chart: one polyline per series, CI whiskers, and
    ringed markers with native tooltips.  Coordinates are fixed-format
    (2 decimals) so output bytes are stable."""
    groups = art.groups()[: len(_SERIES_LIGHT)]
    xs = art.xs()
    width, height = 640.0, 300.0
    ml, mr, mt, mb = 58.0, 16.0, 12.0, 42.0
    plot_w, plot_h = width - ml - mr, height - mt - mb
    y_max = max(
        (max(c.summary.ci_high, c.summary.mean) for c in art.cells),
        default=1.0,
    )
    step = _nice_step(y_max / 4.0)
    n_ticks = int(y_max / step) + 1
    top = step * n_ticks if step * n_ticks >= y_max else step * (n_ticks + 1)

    def x_pos(i: int) -> float:
        return ml + (i + 0.5) * plot_w / max(1, len(xs))

    def y_pos(v: float) -> float:
        return mt + plot_h * (1.0 - v / top)

    parts = [
        f'<svg viewBox="0 0 {width:g} {height:g}" role="img" '
        f'aria-label="{_esc(art.title)}">'
    ]
    # Gridlines + y tick labels (muted ink, recessive hairlines).
    tick = 0.0
    while tick <= top + 1e-9:
        y = y_pos(tick)
        parts.append(
            f'<line x1="{ml:.2f}" y1="{y:.2f}" x2="{width - mr:.2f}" '
            f'y2="{y:.2f}" stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 8:.2f}" y="{y + 3.5:.2f}" text-anchor="end" '
            f'font-size="11" fill="var(--ink-muted)">{_fmt(tick)}</text>'
        )
        tick += step
    # Baseline axis.
    parts.append(
        f'<line x1="{ml:.2f}" y1="{y_pos(0.0):.2f}" x2="{width - mr:.2f}" '
        f'y2="{y_pos(0.0):.2f}" stroke="var(--axis)" stroke-width="1"/>'
    )
    # X tick labels.
    for i, x in enumerate(xs):
        parts.append(
            f'<text x="{x_pos(i):.2f}" y="{height - mb + 16:.2f}" '
            f'text-anchor="middle" font-size="11" '
            f'fill="var(--ink-muted)">{_esc(x)}</text>'
        )
    # Axis titles (secondary ink).
    parts.append(
        f'<text x="{ml + plot_w / 2:.2f}" y="{height - 6:.2f}" '
        f'text-anchor="middle" font-size="11" '
        f'fill="var(--ink-2)">{_esc(art.x_label)}</text>'
    )
    parts.append(
        f'<text x="12" y="{mt + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-size="11" fill="var(--ink-2)" '
        f'transform="rotate(-90 12 {mt + plot_h / 2:.2f})">'
        f'{_esc(art.metric)} [{_esc(art.unit)}]</text>'
    )
    # Series: line, CI whiskers, then ringed markers on top.
    for gi, group in enumerate(groups):
        color = f"var(--series-{gi + 1})"
        points = []
        for i, x in enumerate(xs):
            cell = art.cell(group, x)
            if cell is not None:
                points.append((i, cell))
        coords = " ".join(
            f"{x_pos(i):.2f},{y_pos(c.summary.mean):.2f}" for i, c in points
        )
        if len(points) > 1:
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="2"/>'
            )
        for i, cell in points:
            cx, s = x_pos(i), cell.summary
            y_lo, y_hi = y_pos(s.ci_low), y_pos(s.ci_high)
            if y_lo - y_hi > 0.5:
                parts.append(
                    f'<line x1="{cx:.2f}" y1="{y_hi:.2f}" x2="{cx:.2f}" '
                    f'y2="{y_lo:.2f}" stroke="{color}" stroke-width="1.5"/>'
                )
                for y_cap in (y_hi, y_lo):
                    parts.append(
                        f'<line x1="{cx - 4:.2f}" y1="{y_cap:.2f}" '
                        f'x2="{cx + 4:.2f}" y2="{y_cap:.2f}" '
                        f'stroke="{color}" stroke-width="1.5"/>'
                    )
            tooltip = (
                f"{group} @ {cell.x}: {_fmt(s.mean)} {art.unit} "
                f"(95% CI {_fmt(s.ci_low)}-{_fmt(s.ci_high)}, n={s.n})"
            )
            parts.append(
                f'<circle cx="{cx:.2f}" cy="{y_pos(s.mean):.2f}" r="4" '
                f'fill="{color}" stroke="var(--surface-1)" '
                f'stroke-width="2"><title>{_esc(tooltip)}</title></circle>'
            )
    parts.append("</svg>")
    return "".join(parts)


def _html_legend(groups: "Sequence[str]") -> str:
    items = "".join(
        f'<span><span class="swatch" '
        f'style="background:var(--series-{i + 1})"></span>'
        f"{_esc(g)}</span>"
        for i, g in enumerate(groups[: len(_SERIES_LIGHT)])
    )
    return f'<div class="legend">{items}</div>'


def _html_table(
    header: "Sequence[str]", rows: "Iterable[Sequence[str]]"
) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in header)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(v)}</td>" for v in row) + "</tr>"
        for row in rows
    )
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{body}</tbody></table>"
    )


def _html_artifact(art: ArtifactStats) -> str:
    parts = [
        f"<h2>{_esc(art.title)} "
        f"<code>({_esc(art.artifact)}, {_esc(art.exp_id)})</code></h2>",
        f'<p class="meta">{_esc(art.metric)} [{_esc(art.unit)}] by '
        f"{_esc(art.x_label)}; mean with 95% bootstrap CI.</p>",
    ]
    if art.kind == "figure":
        parts.append('<div class="chart">')
        parts.append(_html_legend(art.groups()))
        parts.append(_svg_chart(art))
        parts.append("</div>")
    parts.append(_html_table(*_stats_table(art)))
    if art.comparisons:
        parts.append("<h3>Rank tests</h3>")
        parts.append(_html_table(*_rank_table(art)))
    if art.notes:
        notes = "".join(f"<li>{_esc(n)}</li>" for n in art.notes)
        parts.append(f'<ul class="notes">{notes}</ul>')
    return "\n".join(parts)


def render_html(
    scale: str,
    seeds: "Sequence[int]",
    artifacts: "Mapping[str, ArtifactStats]",
) -> str:
    """The self-contained HTML report for one scale/seed-set."""
    css = (
        _CSS_TEMPLATE
        .replace("%LIGHT_SLOTS%", _slot_css(_SERIES_LIGHT, "  "))
        .replace("%DARK_SLOTS%", _slot_css(_SERIES_DARK, "    "))
    )
    seed_list = ", ".join(str(s) for s in seeds)
    body = [
        f"<h1>Statistical report — {_esc(scale)} scale, "
        f"{len(seeds)} seed(s)</h1>",
        f'<p class="meta">Replication seeds: {_esc(seed_list)}. '
        "Each seed regenerates the synthetic workload and re-runs every "
        "scenario; spread across seeds is workload variability, not "
        "measurement noise.</p>",
    ]
    for art in artifacts.values():
        body.append(_html_artifact(art))
    html = (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        f"<title>Statistical report — {_esc(scale)}</title>\n"
        f"<style>{css}</style>\n</head>\n"
        '<body class="viz-root">\n' + "\n".join(body) + "\n</body>\n</html>\n"
    )
    _emit_render("html", artifacts)
    return html
