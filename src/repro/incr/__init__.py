"""Incremental recomputation: update, don't re-run.

The pipeline is deterministic and content-addressed end to end, which
makes minimal recomputation a bookkeeping problem rather than a
numerical gamble.  This package turns a registry or config edit into
the smallest recompute that provably reproduces a from-scratch run:

* :mod:`repro.incr.delta` — per-column measurement reuse: only events
  whose content digest changed are re-measured; the matrix is assembled
  from cached columns plus the delta run, bit-identical to a full sweep.
* :mod:`repro.incr.registry_edit` — declarative, replayable registry
  edits (remove / scale-response / set-weight / add) with mtime-cached
  JSON loading for the CLI and CI.
* :mod:`repro.incr.engine` — dependency-tracked catalog refresh: each
  entry records the digests of the events it consumed, so a refresh
  recomputes only the (arch, metric) entries an edit actually feeds
  (``repro-cat catalog refresh`` is the CLI verb on top).

A refresh re-runs the batch pipeline (noise filter, specialized QRCP,
composition) on each stale domain; the numerical stages are never
updated in place, so their output is the from-scratch output.

Counters (``repro.obs``): ``incr.columns_reused`` /
``incr.columns_measured`` (delta measurement),
``incr.entries_refreshed`` / ``incr.entries_unchanged`` (catalog
refresh).
"""

from repro.incr.delta import (
    DeltaReport,
    column_key,
    default_column_cache,
    measure_with_deltas,
)
from repro.incr.engine import (
    RefreshReport,
    domain_event_digests,
    measured_event_domains,
    refresh_catalog,
)
from repro.incr.registry_edit import (
    RegistryEdit,
    apply_edits,
    load_edits,
    parse_edits,
)

__all__ = [
    "DeltaReport",
    "RefreshReport",
    "RegistryEdit",
    "apply_edits",
    "column_key",
    "default_column_cache",
    "domain_event_digests",
    "load_edits",
    "measure_with_deltas",
    "measured_event_domains",
    "parse_edits",
    "refresh_catalog",
]
