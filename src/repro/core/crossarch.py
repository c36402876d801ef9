"""Cross-architecture portability analysis.

The paper's motivating problem is that metric definitions do not transfer
between architectures.  This module quantifies the situation the pipeline
leaves us in: given analysis results for the same domain on several nodes,
it builds a *portability matrix* — metric x architecture -> composable or
not, with the backward error and the raw-event combination per cell — and
summarizes which concepts are universal, which are architecture-specific,
and which raw vocabularies realize them.

This is the artifact a middleware maintainer actually wants from the
automation: one table saying "PAPI_DP_OPS exists on SPR via FP_ARITH...,
does not exist on Zen 3, exists on MI250X via SQ_INSTS_VALU...".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.metrics import MetricDefinition
from repro.core.pipeline import PipelineResult
from repro.io.tables import render_markdown_table

__all__ = ["PortabilityCell", "PortabilityMatrix", "portability_matrix"]


@dataclass(frozen=True)
class PortabilityCell:
    """One (metric, architecture) outcome."""

    architecture: str
    metric: str
    error: float
    composable: bool
    events: Tuple[str, ...]

    def combination(self) -> str:
        if not self.composable:
            return "—"
        return " + ".join(self.events) if self.events else "(zero)"


@dataclass
class PortabilityMatrix:
    """Portability of a domain's metrics across architectures."""

    domain: str
    architectures: List[str]
    metrics: List[str]
    cells: Dict[Tuple[str, str], PortabilityCell]  # (metric, arch) -> cell

    def cell(self, metric: str, architecture: str) -> PortabilityCell:
        try:
            return self.cells[(metric, architecture)]
        except KeyError:
            raise KeyError(
                f"no cell for metric {metric!r} on {architecture!r}; "
                f"metrics: {self.metrics}, architectures: {self.architectures}"
            ) from None

    def universal_metrics(self) -> List[str]:
        """Metrics composable on every analyzed architecture."""
        return [
            m
            for m in self.metrics
            if all(self.cell(m, a).composable for a in self.architectures)
        ]

    def uncomposable_everywhere(self) -> List[str]:
        return [
            m
            for m in self.metrics
            if not any(self.cell(m, a).composable for a in self.architectures)
        ]

    def vocabulary_overlap(self) -> float:
        """Jaccard overlap of the raw-event vocabularies used across
        architectures (0 = completely disjoint — the expected case, and
        the reason the automation matters)."""
        vocabularies = []
        for arch in self.architectures:
            vocab = set()
            for m in self.metrics:
                vocab.update(self.cell(m, arch).events)
            vocabularies.append(vocab)
        union = set().union(*vocabularies) if vocabularies else set()
        if not union:
            return 1.0
        intersection = set(vocabularies[0])
        for v in vocabularies[1:]:
            intersection &= v
        return len(intersection) / len(union)

    def to_markdown(self) -> str:
        headers = ["Metric"] + [
            f"{arch} (error)" for arch in self.architectures
        ]
        rows = []
        for m in self.metrics:
            row: List[str] = [m]
            for arch in self.architectures:
                cell = self.cell(m, arch)
                mark = "yes" if cell.composable else "NO"
                row.append(f"{mark} ({cell.error:.1e})")
            rows.append(row)
        return render_markdown_table(headers, rows)


def portability_matrix(
    results: Sequence[Tuple[str, PipelineResult]],
    composable_threshold: float = 1e-3,
) -> PortabilityMatrix:
    """Build the portability matrix from per-architecture pipeline results.

    ``results`` are (architecture label, PipelineResult) pairs; all results
    should cover comparable metric sets (typically the same domain, but
    cross-domain comparisons — e.g. CPU-FLOPs vs GPU-FLOPs metrics — are
    allowed: missing metrics are recorded as uncomposable-with-error-1).
    """
    if not results:
        raise ValueError("need at least one pipeline result")
    architectures = [label for label, _ in results]
    if len(set(architectures)) != len(architectures):
        raise ValueError("architecture labels must be unique")
    metric_names: List[str] = []
    for _, result in results:
        for name in result.metrics:
            if name not in metric_names:
                metric_names.append(name)

    cells: Dict[Tuple[str, str], PortabilityCell] = {}
    for label, result in results:
        for name in metric_names:
            definition: Optional[MetricDefinition] = result.metrics.get(name)
            if definition is None:
                cells[(name, label)] = PortabilityCell(
                    architecture=label,
                    metric=name,
                    error=1.0,
                    composable=False,
                    events=(),
                )
                continue
            composable = definition.error <= composable_threshold
            events = tuple(
                e for e, c in definition.terms().items() if abs(c) > 1e-6
            )
            cells[(name, label)] = PortabilityCell(
                architecture=label,
                metric=name,
                error=definition.error,
                composable=composable,
                events=events if composable else (),
            )
    domain = results[0][1].domain
    return PortabilityMatrix(
        domain=domain,
        architectures=architectures,
        metrics=metric_names,
        cells=cells,
    )
