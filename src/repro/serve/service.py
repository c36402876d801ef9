"""The asyncio metric service: coalesced, batched, backpressured analyses.

One pipeline run produces every metric of a domain, takes a fraction of a
second, and is fully determined by ``(system, domain, seed, config)`` —
the perfect shape for a serving layer:

* **Catalog first.**  A request whose definition is already in the
  :class:`~repro.serve.catalog.MetricCatalogStore` (same key, same event
  registry) is answered without touching the pipeline at all.
* **Request coalescing.**  N concurrent requests for the same analysis
  key share one in-flight pipeline run; the run's result resolves all of
  them (``serve.coalesced`` counts the riders).
* **Batched dispatch.**  Distinct queued requests are drained in batches
  and handed to a bounded worker pool; each batch executes through the
  :class:`~repro.core.sweep.SweepEngine` (serial inside the batch, so the
  engine's retry/structured-error machinery is reused verbatim) with the
  shared :class:`~repro.io.cache.MeasurementCache` underneath.
* **Backpressure.**  The dispatch queue is bounded; when it is full a new
  analysis is rejected immediately with :class:`ServiceBusy` (HTTP 429),
  never queued invisibly — a heavily loaded service degrades loudly.
* **Fault transparency.**  Requests may carry a :mod:`repro.faults` spec;
  an injected worker crash surfaces as a structured error payload
  (exception type, message, attempts), never a hang.  Faulted requests
  bypass the catalog in both directions — diagnostics must not poison
  the store.

The service is transport-agnostic: :mod:`repro.serve.http` puts an
asyncio stream server in front of it, and the test suite drives the
async API directly.  All counters (``serve.*``, ``catalog.*``) are
incremented on the event-loop thread, so an :func:`repro.obs.tracing`
scope around the loop observes the whole service.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import DOMAIN_CONFIGS, PipelineConfig
from repro.core.sweep import (
    SWEEP_SYSTEMS,
    SYSTEM_DOMAINS,
    SweepEngine,
    SweepOutcome,
    SweepTask,
)
from repro.guard.validate import ValidationError, require_int
from repro.obs import get_tracer
from repro.serve.catalog import (
    CatalogEntry,
    MetricCatalogStore,
    analysis_config_digest,
    entries_from_result,
)

__all__ = [
    "AnalysisRequest",
    "MetricService",
    "ServedMetric",
    "ServiceBusy",
    "ServiceError",
    "ServiceStats",
    "TransportError",
    "request_identity",
    "serving_config",
]


def serving_config(domain: str) -> PipelineConfig:
    """The pipeline configuration every served analysis of ``domain`` runs."""
    return replace(DOMAIN_CONFIGS[domain], use_measurement_cache=True)


@lru_cache(maxsize=1024)
def request_identity(
    system: str, domain: str, seed: int
) -> Tuple[str, str, str, Dict[str, str]]:
    """``(arch, config digest, events digest, per-event dependency
    digests)`` of the analysis ``(system, domain, seed)``.

    The first two are the catalog key its entries are published under,
    the last two the freshness evidence they must carry.  Workers and the
    supervisor front both call this, so they can never disagree on which
    entry answers a request.  Deterministic and memoized: building the
    node is the expensive part.  Raises ``KeyError`` for an unknown
    system or domain.
    """
    from repro.incr.engine import domain_event_digests

    node = SWEEP_SYSTEMS[system](seed=seed)
    return (
        node.name,
        analysis_config_digest(domain, seed, serving_config(domain)),
        node.events.content_digest(),
        domain_event_digests(node.events, domain),
    )


class ServiceError(Exception):
    """A structured service failure: HTTP-style status + JSON payload."""

    def __init__(self, status: int, payload: Dict[str, Any]):
        self.status = status
        self.payload = payload
        super().__init__(payload.get("error", f"service error {status}"))

    @property
    def retryable(self) -> bool:
        """Whether a retry of the same request can plausibly succeed.

        The payload's explicit ``retry`` flag wins; otherwise
        backpressure (429) and unavailability (503) are retryable while
        validation (4xx) and deterministic analysis failures (500) are
        not — retrying a deterministic failure recomputes the same
        failure.
        """
        if "retry" in self.payload:
            return bool(self.payload["retry"])
        return self.status in (429, 503)


class ServiceBusy(ServiceError):
    """Backpressure rejection: the dispatch queue is full (HTTP 429)."""

    def __init__(self, queue_limit: int):
        super().__init__(
            429,
            {
                "error": "service overloaded: dispatch queue is full",
                "queue_limit": queue_limit,
                "retry": True,
            },
        )


class TransportError(ServiceError):
    """A client-side transport failure: the connection was refused,
    reset, or timed out before a response arrived.

    Raised by :class:`~repro.serve.client.CatalogClient` in place of raw
    socket exceptions so callers can distinguish retryable transport
    trouble from fatal application errors with one ``isinstance`` /
    ``retryable`` check.  Always retryable — though the caller cannot
    know whether the request executed, which is why retries must ride an
    idempotent key (the service's request-coalescing identity).
    """

    def __init__(self, detail: str, cause: Optional[BaseException] = None):
        super().__init__(
            503,
            {
                "error": f"transport failure: {detail}",
                "transport": True,
                "retry": True,
                "cause": type(cause).__name__ if cause is not None else None,
            },
        )


@dataclass(frozen=True)
class AnalysisRequest:
    """One analysis the service can run: a (system, domain, seed) pipeline.

    ``faults`` is an optional :func:`repro.faults.parse_fault_spec`
    string; faulted requests are diagnostic probes and never read or
    write the catalog.
    """

    system: str
    domain: str
    seed: int = 2024
    faults: Optional[str] = None

    def __post_init__(self) -> None:
        if self.system not in SWEEP_SYSTEMS:
            raise ValidationError(
                f"AnalysisRequest: unknown system {self.system!r}; expected "
                f"one of {sorted(SWEEP_SYSTEMS)}"
            )
        if self.domain not in SYSTEM_DOMAINS[self.system]:
            raise ValidationError(
                f"AnalysisRequest: domain {self.domain!r} is not measurable "
                f"on {self.system!r} (has: {SYSTEM_DOMAINS[self.system]})"
            )
        require_int(self.seed, "seed", "AnalysisRequest", minimum=0)
        if self.faults is not None:
            from repro.faults import parse_fault_spec

            parse_fault_spec(self.faults)  # raises ValueError on bad spec

    @property
    def key(self) -> Tuple[str, str, int, Optional[str]]:
        """The coalescing key: requests with equal keys share one run."""
        return (self.system, self.domain, self.seed, self.faults)


@dataclass
class ServiceStats:
    """Liveness counters exposed on the health endpoint."""

    requests: int = 0
    coalesced: int = 0
    catalog_hits: int = 0
    pipeline_runs: int = 0
    batches: int = 0
    rejected: int = 0
    errors: int = 0
    stale_served: int = 0

    def to_payload(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "coalesced": self.coalesced,
            "catalog_hits": self.catalog_hits,
            "pipeline_runs": self.pipeline_runs,
            "batches": self.batches,
            "rejected": self.rejected,
            "errors": self.errors,
            "stale_served": self.stale_served,
        }


@dataclass(frozen=True)
class ServedMetric:
    """One answer: the catalog entry plus where it came from.

    ``stale=True`` marks a degraded-mode answer: the service could not
    run (or reach) a fresh analysis and served the newest stored entry
    instead, within the configured freshness bound.  A stale answer is
    *explicitly* stale — the serving tier's invariant is that every
    response is bit-identical to the fault-free answer, marked stale, or
    a typed error; never a silently wrong coefficient.
    """

    entry: CatalogEntry
    source: str  # "catalog" | "pipeline"
    stale: bool = False
    stale_age: Optional[float] = None  # seconds since the entry was stored

    def to_payload(self) -> Dict[str, Any]:
        payload = self.entry.to_payload()
        payload["source"] = self.source
        payload["stale"] = self.stale
        if self.stale:
            payload["stale_age_seconds"] = self.stale_age
        return payload


@dataclass
class _Job:
    """One in-flight analysis: the request plus the future its riders await."""

    request: AnalysisRequest
    future: "asyncio.Future[Any]"
    entries: Dict[str, CatalogEntry] = field(default_factory=dict)


class MetricService:
    """Coalescing, batching, backpressured front-end over the pipeline.

    Parameters
    ----------
    store:
        The metric catalog; ``None`` serves from fresh pipeline runs only.
    workers:
        Threads in the bounded worker pool (each executes one batch at a
        time through a serial :class:`SweepEngine`).
    queue_limit:
        Dispatch-queue bound; a full queue rejects with
        :class:`ServiceBusy` instead of queueing invisibly.
    batch_size:
        Maximum distinct analyses drained into one engine dispatch.
    cache_dir:
        Shared on-disk measurement cache for the pipeline runs (None
        keeps caching in-memory per worker).
    retries:
        Passed to the :class:`SweepEngine` (bounded retry of crashed or
        injected-fault attempts).
    stale_max_age:
        Graceful-degradation gate: when the dispatch queue is full, an
        unfaulted request whose metrics exist in the catalog (any
        version no older than this many seconds, freshness checks
        waived) is answered with ``stale=True`` instead of a 429.
        ``None`` (default) disables stale serving — saturation rejects.
    runner:
        Test seam: a callable ``(List[SweepTask]) -> List[SweepOutcome]``
        replacing the engine dispatch.
    """

    def __init__(
        self,
        store: Optional[MetricCatalogStore] = None,
        *,
        workers: int = 2,
        queue_limit: int = 16,
        batch_size: int = 4,
        cache_dir: Optional[str] = None,
        retries: int = 1,
        stale_max_age: Optional[float] = None,
        runner=None,
    ):
        require_int(workers, "workers", "MetricService", minimum=1)
        require_int(queue_limit, "queue_limit", "MetricService", minimum=1)
        require_int(batch_size, "batch_size", "MetricService", minimum=1)
        self.store = store
        self.workers = workers
        self.queue_limit = queue_limit
        self.batch_size = batch_size
        self.cache_dir = cache_dir
        self.stale_max_age = stale_max_age
        self.stats = ServiceStats()
        self._engine = SweepEngine(executor="serial", max_retries=retries)
        self._runner = runner if runner is not None else self._run_batch
        self._pool: Optional[ThreadPoolExecutor] = None
        self._queue: Optional["asyncio.Queue[_Job]"] = None
        self._worker_tasks: List["asyncio.Task[None]"] = []
        self._inflight: Dict[Tuple, _Job] = {}
        self._started = False
        self._stopping = False
        # Unique per instance so stop() can join exactly this service's
        # worker threads by name.
        self._thread_prefix = f"repro-serve-{id(self):x}"
        #: Set by stop(): whether every worker thread joined within the
        #: drain timeout (None before the first stop).
        self.drained_clean: Optional[bool] = None

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Spawn the dispatch queue and worker tasks (idempotent)."""
        if self._started:
            return
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix=self._thread_prefix
        )
        self._worker_tasks = [
            asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
            for i in range(self.workers)
        ]
        self._started = True
        self._stopping = False

    async def stop(self, *, drain_timeout: float = 10.0) -> None:
        """Cancel workers, resolve every pending request with a
        structured shutdown error — a stopping service never hangs a
        client — then join the worker threads (bounded by
        ``drain_timeout``; ``drained_clean`` records whether every
        thread exited in time)."""
        if not self._started:
            return
        self._stopping = True
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []
        shutdown = ServiceError(503, {"error": "service shutting down"})
        while self._queue is not None and not self._queue.empty():
            job = self._queue.get_nowait()
            self._resolve_error(job, shutdown)
        for job in list(self._inflight.values()):
            self._resolve_error(job, shutdown)
        if self._pool is not None:
            pool = self._pool
            self._pool = None
            pool.shutdown(wait=False, cancel_futures=True)
            # Join off the loop thread: an in-flight batch may take a
            # moment to notice the shutdown, and blocking the loop here
            # would stall other servers sharing it.
            self.drained_clean = await asyncio.get_running_loop().run_in_executor(
                None, self._join_worker_threads, drain_timeout
            )
        self._started = False

    def _join_worker_threads(self, timeout: float) -> bool:
        """Join every pool thread of this service; True when all exited."""
        deadline = time.monotonic() + timeout
        for thread in threading.enumerate():
            if thread.name.startswith(self._thread_prefix):
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        return not any(
            thread.name.startswith(self._thread_prefix) and thread.is_alive()
            for thread in threading.enumerate()
        )

    @property
    def ready(self) -> bool:
        """Readiness: workers are up and the service is not draining."""
        return self._started and not self._stopping

    def health(self) -> Dict[str, Any]:
        """Liveness payload: stats, queue depth, and the ambient
        :mod:`repro.obs` counter totals (non-empty when the service runs
        inside a ``tracing`` scope)."""
        return {
            "status": "ok" if self.ready else "stopping",
            "ready": self.ready,
            "workers": self.workers,
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "queue_limit": self.queue_limit,
            "stats": self.stats.to_payload(),
            "counters": dict(get_tracer().counters),
            "catalog": self.store is not None,
        }

    # -- request paths -------------------------------------------------
    async def get_metric(
        self,
        system: str,
        domain: str,
        metric: str,
        seed: int = 2024,
        faults: Optional[str] = None,
    ) -> ServedMetric:
        """Serve one metric definition, from the catalog when possible.

        Raises :class:`ServiceBusy` under backpressure and
        :class:`ServiceError` for unknown metrics or failed analyses.
        """
        entries = await self._serve(
            AnalysisRequest(system=system, domain=domain, seed=seed, faults=faults)
        )
        served = entries.get(metric)
        if served is None:
            raise ServiceError(
                404,
                {
                    "error": f"metric {metric!r} is not composed by domain "
                    f"{domain!r}",
                    "available": sorted(entries),
                },
            )
        return served

    async def analyze(
        self,
        system: str,
        domain: str,
        seed: int = 2024,
        faults: Optional[str] = None,
    ) -> Dict[str, ServedMetric]:
        """Serve every metric of a domain (one pipeline run at most)."""
        return await self._serve(
            AnalysisRequest(system=system, domain=domain, seed=seed, faults=faults)
        )

    async def _serve(self, request: AnalysisRequest) -> Dict[str, ServedMetric]:
        if not self._started:
            raise ServiceError(503, {"error": "service is not started"})
        tracer = get_tracer()
        self.stats.requests += 1
        tracer.incr("serve.requests")

        if request.faults is None:
            cataloged = self._from_catalog(request)
            if cataloged is not None:
                self.stats.catalog_hits += 1
                tracer.incr("serve.catalog_hits")
                return {
                    name: ServedMetric(entry=entry, source="catalog")
                    for name, entry in cataloged.items()
                }

        job = self._inflight.get(request.key)
        if job is not None:
            self.stats.coalesced += 1
            tracer.incr("serve.coalesced")
        else:
            job = _Job(request=request, future=asyncio.get_running_loop().create_future())
            assert self._queue is not None
            try:
                self._queue.put_nowait(job)
            except asyncio.QueueFull:
                stale = self._stale_from_catalog(request)
                if stale is not None:
                    # Graceful degradation: a saturated service answers
                    # with the newest stored definition, explicitly
                    # marked stale, instead of turning load into 429s.
                    self.stats.stale_served += 1
                    tracer.incr("serve.stale_served")
                    return stale
                self.stats.rejected += 1
                tracer.incr("serve.rejected")
                raise ServiceBusy(self.queue_limit) from None
            self._inflight[request.key] = job
        outcome = await asyncio.shield(job.future)
        if isinstance(outcome, ServiceError):
            raise outcome
        return {
            name: ServedMetric(entry=entry, source="pipeline")
            for name, entry in outcome.items()
        }

    def _from_catalog(
        self, request: AnalysisRequest
    ) -> Optional[Dict[str, CatalogEntry]]:
        """Every metric of the requested domain, from the store — or None
        when any expected metric is missing or stale."""
        if self.store is None:
            return None
        from repro.core.signatures import signatures_for

        arch, config_digest, events_digest, dependencies = request_identity(
            request.system, request.domain, request.seed
        )
        entries: Dict[str, CatalogEntry] = {}
        for signature in signatures_for(request.domain):
            entry = self.store.latest(
                arch,
                signature.name,
                config_digest,
                events_digest=events_digest,
                event_digests=dependencies,
            )
            if entry is None:
                return None
            entries[signature.name] = entry
        return entries

    def _stale_from_catalog(
        self, request: AnalysisRequest
    ) -> Optional[Dict[str, ServedMetric]]:
        """Degraded-mode read: every metric of the domain from the
        newest loadable stored versions, freshness checks waived, gated
        by ``stale_max_age`` — or None when disabled, faulted, or any
        metric is missing/too old (the caller then fails loudly)."""
        if (
            self.store is None
            or self.stale_max_age is None
            or request.faults is not None
        ):
            return None
        from repro.core.signatures import signatures_for

        arch, config_digest, _, _ = request_identity(
            request.system, request.domain, request.seed
        )
        served: Dict[str, ServedMetric] = {}
        for signature in signatures_for(request.domain):
            found = self.store.stale_latest(
                arch, signature.name, config_digest, max_age=self.stale_max_age
            )
            if found is None:
                return None
            entry, age = found
            served[signature.name] = ServedMetric(
                entry=entry, source="catalog", stale=True, stale_age=age
            )
        return served

    # -- incremental refresh ---------------------------------------------
    async def refresh(
        self,
        system: str,
        seed: int = 2024,
        domains: Optional[Sequence[str]] = None,
        registry=None,
    ):
        """Bring the catalog up to date for a system without a full sweep.

        Runs :func:`repro.incr.refresh_catalog` on the worker pool: each
        domain whose per-event dependency digests still match its stored
        entries is proven fresh without recomputation; stale domains
        re-measure only changed columns and re-run the pipeline.  Pass
        ``registry`` (e.g. from :func:`repro.incr.apply_edits`) to refresh
        against an edited event registry.  Returns the
        :class:`~repro.incr.engine.RefreshReport`.
        """
        if self.store is None:
            raise ServiceError(
                400, {"error": "refresh needs a catalog store"}
            )
        if not self._started or self._pool is None:
            raise ServiceError(503, {"error": "service is not started"})
        if system not in SWEEP_SYSTEMS:
            raise ServiceError(
                404,
                {
                    "error": f"unknown system {system!r}",
                    "available": sorted(SWEEP_SYSTEMS),
                },
            )
        from repro.incr import refresh_catalog

        node = SWEEP_SYSTEMS[system](seed=seed)
        wanted = tuple(domains) if domains else SYSTEM_DOMAINS[system]
        for domain in wanted:
            if domain not in SYSTEM_DOMAINS[system]:
                raise ServiceError(
                    400,
                    {
                        "error": f"domain {domain!r} is not measurable on "
                        f"{system!r}",
                        "available": list(SYSTEM_DOMAINS[system]),
                    },
                )
        configs = {domain: serving_config(domain) for domain in wanted}
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            self._pool,
            lambda: refresh_catalog(
                self.store, node, wanted, registry=registry, configs=configs
            ),
        )
        get_tracer().incr("serve.refreshes")
        return report

    # -- dispatch ------------------------------------------------------
    async def _worker(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            batch = [job]
            while len(batch) < self.batch_size:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self.stats.batches += 1
            get_tracer().incr("serve.batches")
            tasks = [self._task_for(j.request) for j in batch]
            try:
                outcomes = await loop.run_in_executor(
                    self._pool, self._runner, tasks
                )
            except Exception as exc:  # noqa: BLE001 — resolve, never hang
                error = ServiceError(
                    500,
                    {
                        "error": f"batch dispatch failed: {exc}",
                        "error_type": type(exc).__name__,
                    },
                )
                for j in batch:
                    self._resolve_error(j, error)
                continue
            for j, outcome in zip(batch, outcomes):
                self._resolve(j, outcome)

    def _task_for(self, request: AnalysisRequest) -> SweepTask:
        faults = None
        if request.faults is not None:
            from repro.faults import parse_fault_spec

            faults = parse_fault_spec(request.faults)
        return SweepTask(
            system=request.system,
            domain=request.domain,
            seed=request.seed,
            config=serving_config(request.domain),
            cache_dir=self.cache_dir,
            faults=faults,
        )

    def _run_batch(self, tasks: List[SweepTask]) -> List[SweepOutcome]:
        """Worker-thread body: one serial engine dispatch per batch.

        The batch runs inside its own (thread-local) tracing scope; the
        finished trace is attached to every successful result so the
        catalog can stamp its digest as lineage.  The loop thread's
        ambient tracer is untouched."""
        from repro.obs import tracing

        with tracing(seed=tasks[0].seed if tasks else 0) as tracer:
            outcomes = self._engine.run(tasks)
        batch_trace = tracer.trace()
        for outcome in outcomes:
            if outcome.ok and outcome.result is not None:
                outcome.result.trace = batch_trace
        return outcomes

    def _resolve(self, job: _Job, outcome: Optional[SweepOutcome]) -> None:
        """Turn one engine outcome into the job's resolution (loop thread)."""
        tracer = get_tracer()
        if outcome is None or not outcome.ok:
            self.stats.errors += 1
            tracer.incr("serve.errors")
            payload: Dict[str, Any] = {
                "error": outcome.error if outcome else "analysis produced no outcome",
                "error_type": outcome.error_type if outcome else None,
                "attempts": outcome.attempts if outcome else 0,
                "request": {
                    "system": job.request.system,
                    "domain": job.request.domain,
                    "seed": job.request.seed,
                    "faults": job.request.faults,
                },
            }
            if outcome is not None and outcome.traceback:
                payload["traceback"] = outcome.traceback
            self._resolve_error(job, ServiceError(500, payload))
            return
        self.stats.pipeline_runs += 1
        tracer.incr("serve.pipeline_runs")
        result = outcome.result
        arch, _, events_digest, dependencies = request_identity(
            job.request.system, job.request.domain, job.request.seed
        )
        trace_digest = None
        if result.trace is not None:
            from repro.io.digest import sha256_hex
            from repro.obs import trace_json_digest

            trace_digest = sha256_hex(trace_json_digest(result.trace), length=16)
        entries = {
            entry.metric: entry
            for entry in entries_from_result(
                result,
                arch=arch,
                seed=job.request.seed,
                events_digest=events_digest,
                trace_digest=trace_digest,
                event_digests=dependencies,
            )
        }
        if self.store is not None and job.request.faults is None:
            try:
                entries = {
                    name: self.store.put(entry) for name, entry in entries.items()
                }
            except OSError:
                # A sick catalog disk must not fail a successful
                # analysis: serve the computed (unpersisted) entries and
                # count the store failure loudly.
                tracer.incr("serve.catalog_store_errors")
        self._inflight.pop(job.request.key, None)
        if not job.future.done():
            job.future.set_result(entries)

    def _resolve_error(self, job: _Job, error: ServiceError) -> None:
        self._inflight.pop(job.request.key, None)
        if not job.future.done():
            # Resolve with the error object (not set_exception) so every
            # coalesced rider observes it without "exception was never
            # retrieved" noise for the ones that were cancelled.
            job.future.set_result(error)
