"""repro.serve — versioned metric catalog + fault-tolerant metric service.

Layers, bottom up:

* :mod:`repro.serve.catalog` — a content-addressed, versioned on-disk
  store of served :class:`~repro.core.metrics.MetricDefinition` records
  (coefficients bit-exact, trust certification, guard stamps, lineage),
  published crash-consistently (fsync + staged rename) and repairable
  after a crash via :meth:`MetricCatalogStore.fsck`.  One store serves
  an unsharded root and an N-shard root alike, with a hot-entry
  read-replica cache invalidated on the events-registry digest.
* :mod:`repro.serve.service` / :mod:`repro.serve.http` — an asyncio
  service over the analysis pipeline with request coalescing, batched
  dispatch, bounded-queue backpressure, structured fault errors, and
  optional stale-serving degradation, fronted by a small stdlib HTTP
  server.
* :mod:`repro.serve.supervisor` — a supervised multi-worker front over
  the same catalog root: heartbeat crash/hang detection, backoff
  restarts under an intensity cap, re-dispatch of in-flight requests,
  stale fallback when the whole pool is down.
* :mod:`repro.serve.client` — the blocking :class:`CatalogClient`: one
  attempt by default, optionally retrying under a deadline; its
  transport is also the supervisor's hop to a worker.
* :mod:`repro.serve.shard` — the consistent-hash ring
  (:class:`ShardRing`) that routes each (architecture, metric) key of
  a sharded catalog root to one shard directory.
* :mod:`repro.serve.chaos` — the invariant's ground truth: the
  definition digest of a served payload and the in-process baseline
  every drill judges responses against.
* :mod:`repro.serve.load` — the one serving drill: open- and
  closed-loop workload models, deterministic per-client streams,
  latency percentiles, saturation sweeps over offered rps, an optional
  chaos fault plan with bounded recovery and a post-mortem ``fsck``,
  and the bit-identical / typed-rejection / explicit-stale invariant
  checked on every response.

See ``docs/serving.md`` (failure modes & recovery) and
``docs/robustness.md`` (the fault model).
"""

from repro.serve.catalog import (
    CatalogDiff,
    CatalogEntry,
    FsckReport,
    LogCompaction,
    MetricCatalogStore,
    analysis_config_digest,
    diff_entries,
    entries_from_result,
    metric_slug,
)
from repro.serve.chaos import baseline_digests, definition_digest
from repro.serve.client import (
    CatalogClient,
    DeadlineExceeded,
    RetryPolicy,
    idempotency_key,
)
from repro.serve.http import HttpMetricServer, run_server
from repro.serve.load import (
    LoadReport,
    LoadStep,
    LoadStepReport,
    RequestSpec,
    Workload,
    latency_percentile,
    run_load_drill,
)
from repro.serve.service import (
    AnalysisRequest,
    MetricService,
    ServedMetric,
    ServiceBusy,
    ServiceError,
    ServiceStats,
    TransportError,
)
from repro.serve.shard import ShardRing, shard_names
from repro.serve.supervisor import (
    ServiceSupervisor,
    SupervisorConfig,
    SupervisorServer,
)

__all__ = [
    "AnalysisRequest",
    "CatalogClient",
    "CatalogDiff",
    "CatalogEntry",
    "DeadlineExceeded",
    "FsckReport",
    "HttpMetricServer",
    "LoadReport",
    "LoadStep",
    "LoadStepReport",
    "LogCompaction",
    "MetricCatalogStore",
    "MetricService",
    "RequestSpec",
    "RetryPolicy",
    "ServedMetric",
    "ServiceBusy",
    "ServiceError",
    "ServiceStats",
    "ServiceSupervisor",
    "ShardRing",
    "SupervisorConfig",
    "SupervisorServer",
    "TransportError",
    "Workload",
    "analysis_config_digest",
    "baseline_digests",
    "definition_digest",
    "diff_entries",
    "entries_from_result",
    "idempotency_key",
    "latency_percentile",
    "metric_slug",
    "run_load_drill",
    "run_server",
    "shard_names",
]
