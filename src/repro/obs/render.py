"""Rendering for traces: the ``repro-cat trace`` summary tree.

Turns a :class:`~repro.obs.trace.Trace` into the terminal view — span
tree with durations and attributes, then counter totals — and
a machine-readable JSON digest for ``repro-cat trace --json``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.trace import Span, Trace, _fmt_ns

__all__ = ["render_trace", "trace_json_digest"]


def _attr_suffix(span: Span) -> str:
    if not span.attrs:
        return ""
    parts = [f"{k}={span.attrs[k]}" for k in span.attrs]
    return "  " + " ".join(parts)


def _render_subtree(
    trace: Trace,
    span: Span,
    by_parent: Dict[Optional[str], List[Span]],
    prefix: str,
    lines: List[str],
    is_last: bool,
    is_root: bool,
) -> None:
    if is_root:
        connector, child_prefix = "", ""
    else:
        connector = "`- " if is_last else "|- "
        child_prefix = prefix + ("   " if is_last else "|  ")
    label = f"{prefix}{connector}{span.name}"
    lines.append(f"{label:<44} {_fmt_ns(span.duration_ns):>8}{_attr_suffix(span)}")
    children = by_parent.get(span.id, [])
    for i, child in enumerate(children):
        _render_subtree(
            trace,
            child,
            by_parent,
            child_prefix,
            lines,
            is_last=(i == len(children) - 1),
            is_root=False,
        )


def render_trace(trace: Trace, show_counters: bool = True) -> str:
    """The summary tree: spans with timings, then counter totals."""
    by_parent: Dict[Optional[str], List[Span]] = {}
    for span in trace.spans:
        by_parent.setdefault(span.parent, []).append(span)
    lines = [
        f"trace seed={trace.seed}: {len(trace.spans)} span(s), "
        f"{len(trace.counters)} counter(s)"
    ]
    roots = by_parent.get(None, [])
    if roots:
        lines.append("")
    for root in roots:
        _render_subtree(
            trace, root, by_parent, "", lines, is_last=True, is_root=True
        )
    if show_counters and trace.counters:
        lines.append("")
        lines.append("counters:")
        totals = trace.counter_totals()
        width = max(len(name) for name in totals)
        for name, value in totals.items():
            lines.append(f"  {name:<{width}}  {value}")
    return "\n".join(lines)


def trace_json_digest(trace: Trace) -> str:
    """Machine-readable digest for ``repro-cat trace --json``: stage
    timings, counter totals and span count, one canonical JSON object."""
    payload = {
        "counters": trace.counter_totals(),
        "seed": trace.seed,
        "spans": len(trace.spans),
        "stage_timings_ns": trace.stage_timings(),
    }
    return json.dumps(payload, sort_keys=True, indent=2)
