"""Dependency-tracked catalog refresh: recompute only what an edit broke.

The full sweep rebuilds every (system, domain) analysis whenever anything
changes.  This engine inverts that: each catalog entry records the
per-event digests of the registry slice it consumed
(:attr:`~repro.serve.catalog.CatalogEntry.event_digests`), so freshness
is a pure lookup — an entry is stale exactly when the current digests of
its domain's events differ from the recorded ones.  A registry edit
therefore invalidates only the domains that measure the edited event;
every other entry is proven fresh without measuring or solving anything.

Stale domains re-run the standard :class:`~repro.core.pipeline.AnalysisPipeline`
— same configs, same guard, same composition — but over a measurement
assembled by :func:`~repro.incr.delta.measure_with_deltas`, so even a
stale domain re-measures only its changed columns.  Refreshed entries go
through :meth:`MetricCatalogStore.put`, whose content dedup means a
recompute that lands on identical bits does not grow the version history.

Running :func:`refresh_catalog` against an empty store is simply a full
build through this same code path, which is what makes the bit-identity
contract testable: refresh-after-edit must equal build-from-scratch on
the edited registry, entry content digest for entry content digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import AnalysisPipeline, DOMAIN_CONFIGS, PipelineConfig
from repro.core.signatures import signatures_for
from repro.events.registry import EventRegistry
from repro.hardware.systems import MachineNode
from repro.incr.delta import DeltaReport, measure_with_deltas
from repro.io.cache import MeasurementCache
from repro.obs import get_tracer
from repro.serve.catalog import (
    CatalogEntry,
    MetricCatalogStore,
    analysis_config_digest,
    entries_from_result,
)

__all__ = [
    "RefreshReport",
    "domain_event_digests",
    "measured_event_domains",
    "refresh_catalog",
]


def measured_event_domains(domain: str) -> Tuple[str, ...]:
    """The event domains a benchmark domain's blind sweep measures.

    Read off the benchmark classes' ``measured_domains`` attribute so
    the dependency slice is, by construction, exactly what the runner
    would select.
    """
    if domain == "cpu_flops":
        from repro.cat import CPUFlopsBenchmark as cls
    elif domain == "gpu_flops":
        from repro.cat import GPUFlopsBenchmark as cls
    elif domain == "branch":
        from repro.cat import BranchBenchmark as cls
    elif domain == "dcache":
        from repro.cat import DCacheBenchmark as cls
    elif domain == "dtlb":
        from repro.cat.dtlb import DTLBBenchmark as cls
    else:
        raise KeyError(
            f"unknown domain {domain!r}; expected one of "
            "cpu_flops, gpu_flops, branch, dcache, dtlb"
        )
    return tuple(cls.measured_domains)


def domain_event_digests(
    registry: EventRegistry, domain: str
) -> Dict[str, str]:
    """Per-event dependency digests of one benchmark domain's slice.

    This map covers *all* events the domain's sweep would measure (not
    just the ones QRCP ends up selecting): an added or edited event can
    change the noise filter, the representation set, and hence the
    selection, so the dependency set must be the whole measured slice.
    """
    return registry.event_digests(domains=measured_event_domains(domain))


@dataclass
class RefreshReport:
    """What one :func:`refresh_catalog` invocation did."""

    arch: str
    seed: int
    #: (domain, metric) keys recomputed this refresh, with their stored
    #: entries (post-dedup, so ``version`` reflects the catalog's truth).
    refreshed: List[Tuple[str, str]] = field(default_factory=list)
    #: (domain, metric) keys proven fresh without recomputation.
    unchanged: List[Tuple[str, str]] = field(default_factory=list)
    entries: Dict[Tuple[str, str], CatalogEntry] = field(default_factory=dict)
    #: Per-domain measurement-reuse accounting (stale domains only).
    deltas: Dict[str, DeltaReport] = field(default_factory=dict)

    @property
    def stale_domains(self) -> List[str]:
        return sorted({domain for domain, _ in self.refreshed})

    def summary(self) -> str:
        lines = [
            f"refresh {self.arch} (seed {self.seed}): "
            f"{len(self.refreshed)} refreshed, {len(self.unchanged)} unchanged"
        ]
        for domain in self.stale_domains:
            delta = self.deltas.get(domain)
            reuse = (
                f" ({delta.reused}/{delta.total} columns reused)"
                if delta is not None
                else ""
            )
            metrics = sorted(m for d, m in self.refreshed if d == domain)
            lines.append(f"  {domain}{reuse}: {', '.join(metrics)}")
        return "\n".join(lines)


def refresh_catalog(
    store: MetricCatalogStore,
    node: MachineNode,
    domains: Sequence[str],
    *,
    registry: Optional[EventRegistry] = None,
    cache: Optional[MeasurementCache] = None,
    configs: Optional[Dict[str, PipelineConfig]] = None,
) -> RefreshReport:
    """Bring the catalog up to date with ``registry`` for ``domains``.

    ``registry`` defaults to the node's stock registry; pass the output
    of :func:`~repro.incr.registry_edit.apply_edits` to refresh against
    an edited one.  ``cache`` feeds the per-column measurement reuse
    (:func:`~repro.incr.delta.measure_with_deltas`); ``configs`` may
    override the per-domain pipeline configs (defaults to
    ``DOMAIN_CONFIGS``, digest-compatible with the metric service).

    Increments ``incr.entries_refreshed`` / ``incr.entries_unchanged``.
    """
    registry = registry if registry is not None else node.events
    full_digest = registry.content_digest()
    tracer = get_tracer()
    report = RefreshReport(arch=node.name, seed=node.seed)

    for domain in domains:
        config = (configs or {}).get(domain) or DOMAIN_CONFIGS[domain]
        config_digest = analysis_config_digest(domain, node.seed, config)
        dependencies = domain_event_digests(registry, domain)
        signatures = signatures_for(domain)

        cached = {
            signature.name: store.latest(
                node.name,
                signature.name,
                config_digest,
                # Entries with a recorded dependency map are checked
                # against it; legacy entries fall back to the coarse
                # whole-registry digest (stale on any edit, then
                # recomputed with the map — a one-refresh migration).
                events_digest=full_digest,
                event_digests=dependencies,
            )
            for signature in signatures
        }
        if all(entry is not None for entry in cached.values()):
            for name, entry in cached.items():
                report.unchanged.append((domain, name))
                report.entries[(domain, name)] = entry
            tracer.incr("incr.entries_unchanged", len(cached))
            continue

        pipeline = AnalysisPipeline.for_domain(domain, node, config=config)
        domain_registry = registry.select(
            domains=tuple(pipeline.benchmark.measured_domains)
        )
        measurement, delta = measure_with_deltas(
            node,
            pipeline.benchmark,
            events=domain_registry,
            repetitions=config.repetitions,
            cache=cache,
        )
        result = pipeline.run(measurement=measurement)
        entries = entries_from_result(
            result,
            arch=node.name,
            seed=node.seed,
            events_digest=full_digest,
            event_digests=dependencies,
        )
        for entry in entries:
            stored = store.put(entry)
            report.refreshed.append((domain, entry.metric))
            report.entries[(domain, entry.metric)] = stored
        report.deltas[domain] = delta
        tracer.incr("incr.entries_refreshed", len(entries))

    return report
