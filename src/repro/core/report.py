"""Paper-style report generation from pipeline results.

Renders a :class:`~repro.core.pipeline.PipelineResult` into the artifacts
the paper presents: the Section-V selected-event listing, the Table-V/VIII
style metric tables (raw and rounded), the noise census, and an optional
markdown bundle on disk.  The CLI and the benchmark harness both go
through this module so human-facing output has one source of truth.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from repro.core.pipeline import PipelineResult
from repro.io.tables import format_float, render_markdown_table
from repro.viz.ascii import log_scatter
from repro.viz.series import fig2_series

__all__ = ["metric_table_rows", "render_report", "write_report"]


def metric_table_rows(
    result: PipelineResult, rounded: bool = False, coeff_floor: float = 1e-6
) -> List[List[str]]:
    """Rows for a paper-style 'Metric | Combination | Error' table.

    When the run was certified (guard enabled), a Trust column is
    appended; the raw and rounded tables share one trust stamp because
    certification covers the definition, not its cosmetic rounding.
    """
    source = result.rounded_metrics if rounded else result.metrics
    certified = any(m.trust is not None for m in result.metrics.values())
    rows: List[List[str]] = []
    for name, metric in source.items():
        terms = [
            f"{format_float(c, signed=True)} x {e}"
            for e, c in zip(metric.event_names, metric.coefficients)
            if abs(c) > coeff_floor
        ]
        combo = "  ".join(terms) if terms else "(no combination: uncomposable)"
        row = [metric.metric, combo, format_float(metric.error)]
        if certified:
            trust = result.metrics[name].trust
            row.append(trust.level if trust is not None else "-")
        rows.append(row)
    return rows


def _health_section(result: PipelineResult) -> List[str]:
    """The 'Numerical health & trust' report section (guarded runs only)."""
    qrcp_health = result.qrcp.health
    certified = any(m.trust is not None for m in result.metrics.values())
    if qrcp_health is None and not certified:
        return []
    lines: List[str] = ["", "## Numerical health & trust", ""]
    if qrcp_health is not None:
        lines.append(f"QRCP selection: {qrcp_health.describe()}")
        if qrcp_health.suspect_columns:
            suspects = ", ".join(
                result.selected_events[i]
                if i < len(result.selected_events)
                else f"pivot {i}"
                for i in qrcp_health.suspect_columns
            )
            lines.append(f"Suspect columns: {suspects}")
        lines.append("")
    if certified:
        rows = []
        for metric in result.metrics.values():
            trust = metric.trust
            if trust is None:
                continue
            rows.append(
                [
                    metric.metric,
                    trust.level,
                    format_float(trust.coefficient_spread),
                    format_float(trust.error_spread),
                    trust.n_holdouts,
                    "; ".join(trust.reasons) if trust.reasons else "-",
                ]
            )
        lines.append(
            render_markdown_table(
                [
                    "Metric",
                    "Trust",
                    "Coeff spread",
                    "Error spread",
                    "Holdouts",
                    "Reasons",
                ],
                rows,
            )
        )
    return lines


def render_report(result: PipelineResult, include_figures: bool = True) -> str:
    """Full textual report for one domain's analysis."""
    lines: List[str] = []
    lines.append(f"# Event analysis report — {result.domain}")
    lines.append("")
    lines.append("## Pipeline census")
    lines.append("")
    noise = result.noise
    census_rows = [
        ["events measured", noise.n_measured],
        ["discarded all-zero (footnote 1)", len(noise.discarded_zero)],
        [f"filtered noisy (tau={result.config.tau:g})", len(noise.noisy)],
        [
            f"rejected unrepresentable (> {result.config.representation_threshold:g})",
            len(result.representation.rejected),
        ],
        ["entered QRCP", len(result.representation.event_names)],
        [f"selected (alpha={result.config.alpha:g})", len(result.selected_events)],
    ]
    lines.append(render_markdown_table(["stage", "events"], census_rows))
    lines.append("")
    lines.append("## Selected events (Section V)")
    lines.append("")
    lines.append(
        render_markdown_table(
            ["pivot", "event"],
            [[i + 1, e] for i, e in enumerate(result.selected_events)],
        )
    )
    certified = any(m.trust is not None for m in result.metrics.values())
    metric_headers = ["Metric", "Combination of Raw Events", "Error"]
    if certified:
        metric_headers.append("Trust")
    lines.append("")
    lines.append("## Metric definitions (Section VI)")
    lines.append("")
    lines.append(
        render_markdown_table(metric_headers, metric_table_rows(result))
    )
    lines.append("")
    lines.append("## Rounded definitions (Section VI-D)")
    lines.append("")
    lines.append(
        render_markdown_table(
            metric_headers, metric_table_rows(result, rounded=True)
        )
    )
    health_lines = _health_section(result)
    if health_lines:
        lines.extend(health_lines)
    if include_figures:
        lines.append("")
        lines.append("## Event variability (Section IV / Figure 2)")
        lines.append("")
        series = fig2_series(noise)
        lines.append("```")
        lines.append(
            log_scatter(
                series.values,
                threshold=series.tau,
                title=f"Sorted max-RNMSE variabilities ({result.domain})",
            )
        )
        lines.append("```")
    lines.append("")
    return "\n".join(lines)


def write_report(
    result: PipelineResult,
    path: Union[str, Path],
    include_figures: bool = True,
) -> Path:
    """Write the rendered report to a markdown file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_report(result, include_figures=include_figures))
    return path
