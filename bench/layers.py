"""Per-layer probes for the traced benchmark run.

The traced run installs wrappers around the public functions of the
layers the untraced run only sees end to end.  Each wrapper either opens
a :mod:`repro.obs` span (so it nests under the pipeline's own
``measure`` / ``noise-filter`` / ``qrcp`` / ``compose`` spans and its
time is subtracted from theirs) or only counts calls (for functions too
small and too frequent to span, such as the least-squares solver).

Wrappers are bound where callers look the function up: every module of
``repro`` (and of this package) whose global names the original object
is rebound, so ``from repro.linalg import lstsq_qr`` call sites are
covered as well as attribute lookups.  :meth:`LayerProbe.uninstall`
restores every binding.

Counts are kept on the probe, never as obs counters, so a wrapped run's
counter totals stay equal to an unwrapped run's (the golden fixtures pin
those totals).
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Tuple

from repro.obs import get_tracer

__all__ = ["LayerProbe"]

#: Span name -> per-layer metric its *self* time is charged to.  The
#: unprefixed names are the program's own spans; ``bench.*`` spans are
#: opened by the wrappers below.
SELF_TIME = {
    "runner-run": "cat.measure_ms",
    "bench.cache_sim": "hardware.cache_sim_ms",
    "noise-filter": "core.noise_filter_ms",
    "representation": "core.representation_ms",
    "qrcp": "core.qrcp_ms",
    "compose": "core.compose_ms",
    "lstsq": "core.compose_ms",
    "bench.certify": "guard.certify_ms",
    "bench.parse": "ingest.parse_ms",
    "bench.assemble": "ingest.assemble_ms",
    "bench.measure_deltas": "incr.measure_deltas_ms",
    "bench.catalog_put": "catalog.put_ms",
    "bench.catalog_latest": "catalog.latest_ms",
}

#: Call counts kept by the wrappers.
CALL_COUNTS = (
    "hardware.cache_sim_calls",
    "guard.certify_calls",
    "linalg.lstsq_calls",
    "linalg.qr_calls",
    "catalog.puts",
)

#: The program's own obs counters reported per op.
OBS_COUNTERS = {
    "catalog.hits": ("catalog.hits",),
    "catalog.dedup": ("catalog.dedup",),
    "incr.columns_reused": ("incr.columns_reused",),
    "incr.columns_measured": ("incr.columns_measured",),
    "incr.entries_refreshed": ("incr.entries_refreshed",),
    "incr.entries_unchanged": ("incr.entries_unchanged",),
}


def _rebind(original: Any, replacement: Any, saved: List[Tuple[Any, str, Any]]) -> None:
    """Point every ``repro``/``bench`` module global bound to ``original``
    at ``replacement``; remember each binding in ``saved``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (
            name == "repro" or name.startswith(("repro.", "bench."))
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                saved.append((module, attr, original))


class LayerProbe:
    """Installs the layer wrappers and aggregates one traced phase.

    Call :meth:`absorb` with each traced op's tracer; :meth:`metrics`
    then gives per-op means (times in ms per op, counts per op) plus the
    two reuse ratios.
    """

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ms: Dict[str, float] = defaultdict(float)
        self.counters: Counter = Counter()
        self.ops = 0
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- wrappers ------------------------------------------------------
    def _spanned(self, fn: Callable, span: str, count: str = "") -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count:
                calls[count] += 1
            with get_tracer().span(span):
                return fn(*args, **kwargs)

        return wrapper

    def _counted(self, fn: Callable, count: str) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[count] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch_attr(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> "LayerProbe":
        from repro.guard.certify import certify_metric
        from repro.hardware.cache import CacheHierarchy
        from repro.incr.engine import measure_with_deltas
        from repro.ingest.assemble import assemble
        from repro.ingest.papi import parse_papi_csv
        from repro.ingest.perf import parse_perf
        from repro.linalg.householder import HouseholderQR
        from repro.linalg.lstsq import lstsq_qr
        from repro.serve.catalog import MetricCatalogStore

        for original, span, count in (
            (certify_metric, "bench.certify", "guard.certify_calls"),
            (parse_perf, "bench.parse", ""),
            (parse_papi_csv, "bench.parse", ""),
            (assemble, "bench.assemble", ""),
            (measure_with_deltas, "bench.measure_deltas", ""),
        ):
            _rebind(original, self._spanned(original, span, count), self._saved)
        _rebind(lstsq_qr, self._counted(lstsq_qr, "linalg.lstsq_calls"), self._saved)
        self._patch_attr(
            CacheHierarchy,
            "cyclic_steady_state",
            self._spanned(
                CacheHierarchy.cyclic_steady_state,
                "bench.cache_sim",
                "hardware.cache_sim_calls",
            ),
        )
        self._patch_attr(
            HouseholderQR,
            "__init__",
            self._counted(HouseholderQR.__init__, "linalg.qr_calls"),
        )
        self._patch_attr(
            MetricCatalogStore,
            "put",
            self._spanned(MetricCatalogStore.put, "bench.catalog_put", "catalog.puts"),
        )
        self._patch_attr(
            MetricCatalogStore,
            "latest",
            self._spanned(MetricCatalogStore.latest, "bench.catalog_latest"),
        )
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------
    def absorb(self, tracer) -> None:
        """Fold one traced op's spans and counters into the totals."""
        self.ops += 1
        child_ns: Dict[str, int] = defaultdict(int)
        for span in tracer.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.duration_ns
        for span in tracer.spans:
            metric = SELF_TIME.get(span.name)
            if metric is not None:
                self.self_ms[metric] += (span.duration_ns - child_ns[span.id]) / 1e6
        self.counters.update(tracer.counters)

    def metrics(self) -> Dict[str, float]:
        ops = max(self.ops, 1)
        out: Dict[str, float] = {}
        for metric in sorted(set(SELF_TIME.values())):
            out[metric] = self.self_ms.get(metric, 0.0) / ops
        for metric in CALL_COUNTS:
            out[metric] = self.calls[metric] / ops
        for metric, names in OBS_COUNTERS.items():
            out[metric] = sum(self.counters[n] for n in names) / ops
        reused = self.counters["incr.columns_reused"]
        measured = self.counters["incr.columns_measured"]
        out["incr.column_reuse_ratio"] = _ratio(reused, reused + measured)
        hits = self.counters["cache.memory_hits"] + self.counters["cache.disk_hits"]
        out["io.cache_hit_ratio"] = _ratio(hits, hits + self.counters["cache.misses"])
        return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
