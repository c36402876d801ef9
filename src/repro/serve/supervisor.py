"""Supervised multi-worker serving: crash detection, restart, degrade.

One :class:`MetricService` process is a single point of failure: a
SIGKILL, a wedged event loop, or an OOM takes the whole serving tier
down.  :class:`ServiceSupervisor` runs *N* worker processes — each a
full ``MetricService`` + ``HttpMetricServer`` on an ephemeral port over
the **same** catalog root and measurement cache (both are designed for
multi-process sharing: content-addressed files, atomic staged-rename
publication, torn-tail-tolerant logs) — behind one front listener:

* **Crash and hang detection.**  Each worker owns a shared-memory
  heartbeat it refreshes from an asyncio task every
  ``heartbeat_interval``; a dead process *or* a heartbeat older than
  ``heartbeat_timeout`` (a blocked loop beats its heart no better than a
  dead one) is SIGKILLed and restarted.
* **Restart with backoff and an intensity cap.**  Restarts back off
  exponentially (``backoff_base`` doubling to ``backoff_max``) and a
  slot that restarts more than ``restart_intensity`` times within
  ``restart_window`` seconds is marked *failed* and left down — a
  crash-looping worker must not burn the machine.  Counter:
  ``serve.restarts`` / ``serve.worker_failed``.
* **One routing rule.**  A keyed read whose stored entry carries full
  freshness evidence is answered by the front itself (``shard.front_serves``).
  Anything else goes to a live worker: a request with a coalescing
  identity ``(system, domain, seed, faults)`` — a keyed read or an
  analysis — sticks to the worker already running an identical one, so
  the worker's coalescing sees them as one computation; the rest go
  round-robin.
* **Re-dispatch of in-flight requests.**  A transport failure
  mid-request (the worker died under it) re-dispatches the same
  request to the next live worker — safe because every request is
  idempotent under the service's coalescing identity.  Counter:
  ``serve.redispatch``.
* **Graceful degradation.**  With zero live workers (all crashed or
  restarting), ``/v1/metric`` reads are answered from the supervisor's
  own read-only view of the catalog, stamped ``stale=True`` and gated
  by ``stale_max_age`` — an explicit degraded answer, never a silent
  one, never a silently wrong one.  Anything else gets a retryable 503.
* **Startup fsck.**  The supervisor runs ``catalog fsck`` before
  spawning workers, quarantining torn publications a previous crash
  left behind (see :meth:`MetricCatalogStore.fsck`).

Workers are spawned with the ``spawn`` multiprocessing context (the
parent runs threads; ``fork`` + threads is a deadlock lottery).  The
chaos seams (:mod:`repro.faults.chaos`) thread through: the supervisor
consults ``worker-kill`` at ``dispatch:<n>`` sites, workers consult
their injector at ``request:w<slot>:<n>`` sites and their store at
publication sites.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import multiprocessing as mp
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs import get_tracer
from repro.serve.catalog import FsckReport, MetricCatalogStore
from repro.serve.client import http_exchange
from repro.serve.http import Body, RenderedEntries, answer_connection, parse_analysis
from repro.serve.service import (
    ServedMetric,
    ServiceError,
    TransportError,
    request_identity,
)

__all__ = ["ServiceSupervisor", "SupervisorConfig", "SupervisorServer"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy plus the service knobs each worker inherits.

    ``restart_intensity`` restarts within ``restart_window`` seconds
    marks the slot failed (Erlang-style intensity cap).  The
    ``service_*`` fields are passed to each worker's
    :class:`~repro.serve.service.MetricService` verbatim.
    """

    workers: int = 2
    heartbeat_interval: float = 0.25
    heartbeat_timeout: float = 5.0
    backoff_base: float = 0.2
    backoff_max: float = 5.0
    restart_intensity: int = 5
    restart_window: float = 60.0
    worker_start_timeout: float = 60.0
    dispatch_attempts: int = 6
    service_workers: int = 2
    service_queue_limit: int = 16
    service_batch_size: int = 4
    service_retries: int = 1
    stale_max_age: Optional[float] = None
    #: Consistent-hash shard count of the catalog root (0 = unsharded).
    #: With shards, every worker opens the same sharded
    #: :class:`~repro.serve.catalog.MetricCatalogStore` root: any worker
    #: can read and publish any key, so routing ignores shard ownership.
    shards: int = 0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("SupervisorConfig.workers must be >= 1")
        if self.restart_intensity < 1:
            raise ValueError("restart_intensity must be >= 1")
        if self.shards < 0:
            raise ValueError("SupervisorConfig.shards must be >= 0")


def _worker_entry(
    slot: int,
    config: SupervisorConfig,
    catalog_root: Optional[str],
    cache_dir: Optional[str],
    chaos_spec: Optional[str],
    heartbeat: Any,
    port_conn: Any,
    stop_event: Any,
    exit_after: Optional[float],
) -> None:
    """Spawn target: one worker process = service + listener + heartbeat.

    Module-level (spawn needs a picklable target).  Reports its bound
    port over ``port_conn``, then beats ``heartbeat`` from an asyncio
    task until ``stop_event`` is set — a blocked event loop stops the
    heart, which is exactly the signal the supervisor watches for.
    """
    # Imports happen here (fresh interpreter under spawn).
    from repro.faults.chaos import ChaosInjector, parse_chaos_spec
    from repro.serve.http import HttpMetricServer
    from repro.serve.service import MetricService

    if exit_after is not None:
        # Test seam: self-destruct to exercise restart and intensity-cap
        # paths deterministically.  A Timer thread survives a blocked loop.
        threading.Timer(exit_after, lambda: os._exit(13)).start()

    chaos = None
    if chaos_spec:
        chaos = ChaosInjector(parse_chaos_spec(chaos_spec))

    store = None
    if catalog_root is not None:
        store = MetricCatalogStore(
            catalog_root,
            shards=config.shards,
            failpoint=chaos.catalog_failpoint if chaos is not None else None,
        )

    service = MetricService(
        store,
        workers=config.service_workers,
        queue_limit=config.service_queue_limit,
        batch_size=config.service_batch_size,
        cache_dir=cache_dir,
        retries=config.service_retries,
        stale_max_age=config.stale_max_age,
    )
    server = HttpMetricServer(
        service, port=0, chaos=chaos, chaos_scope=f"w{slot}"
    )
    interval = config.heartbeat_interval

    async def main() -> None:
        port = await server.start()
        heartbeat.value = time.time()
        port_conn.send(port)
        port_conn.close()
        try:
            while not stop_event.is_set():
                heartbeat.value = time.time()
                await asyncio.sleep(interval)
        finally:
            await server.stop()

    asyncio.run(main())


@dataclass
class _WorkerSlot:
    """Book-keeping for one supervised worker process."""

    index: int
    process: Optional[Any] = None
    port: Optional[int] = None
    heartbeat: Optional[Any] = None
    stop_event: Optional[Any] = None
    state: str = "down"  # down | starting | live | backoff | failed
    restart_at: float = 0.0
    restarts: Deque[float] = field(default_factory=deque)
    total_restarts: int = 0

    @property
    def live(self) -> bool:
        return (
            self.state == "live"
            and self.process is not None
            and self.process.is_alive()
            and self.port is not None
        )


class ServiceSupervisor:
    """Supervises N worker processes over one catalog root + cache.

    Synchronous process management (spawn/monitor/kill in a background
    thread); :meth:`dispatch` is the asyncio-facing proxy the
    :class:`SupervisorServer` front calls per request.
    """

    def __init__(
        self,
        catalog_root: Optional[str] = None,
        *,
        cache_dir: Optional[str] = None,
        config: Optional[SupervisorConfig] = None,
        chaos_spec: Optional[str] = None,
    ):
        self.catalog_root = catalog_root
        self.cache_dir = cache_dir
        self.config = config or SupervisorConfig()
        self.chaos_spec = chaos_spec
        self.fsck_report: Optional[FsckReport] = None
        self.slots: List[_WorkerSlot] = [
            _WorkerSlot(index=i) for i in range(self.config.workers)
        ]
        self._mp = mp.get_context("spawn")
        self._monitor: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._dispatched = 0
        self._redispatches = 0
        self._stale_fallbacks = 0
        self._front_serves = 0
        # Coalescing identity -> [slot index, in-flight count]: identical
        # concurrent requests stick to one worker (see dispatch).
        self._sticky: Dict[Tuple, List[Any]] = {}
        self._chaos = None
        if chaos_spec:
            from repro.faults.chaos import ChaosInjector, parse_chaos_spec

            self._chaos = ChaosInjector(parse_chaos_spec(chaos_spec))
        # Read-only catalog view for the degraded path (no failpoint:
        # the supervisor never publishes).  Creating the sharded store
        # here also publishes the topology manifest before any worker
        # spawns, so workers always open an agreed-upon ring.
        self._store = None
        if catalog_root is not None:
            self._store = MetricCatalogStore(
                catalog_root, shards=self.config.shards
            )
        self._rendered = RenderedEntries()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """fsck the catalog, spawn every worker, start the monitor."""
        if self.catalog_root is not None and self._store is not None:
            self.fsck_report = self._store.fsck(repair=True)
            if not self.fsck_report.clean:
                logger.warning(
                    "catalog fsck repaired damage on startup: %s",
                    self.fsck_report.summary(),
                )
        for slot in self.slots:
            self._spawn(slot)
        self._stopping.clear()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-supervisor", daemon=True
        )
        self._monitor.start()

    def stop(self) -> None:
        """Stop monitoring, ask workers to exit, kill stragglers."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=10)
            self._monitor = None
        for slot in self.slots:
            if slot.stop_event is not None:
                slot.stop_event.set()
        deadline = time.time() + 5.0
        for slot in self.slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=max(0.1, deadline - time.time()))
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
            slot.state = "down"

    # -- spawning and monitoring ---------------------------------------
    def _spawn(self, slot: _WorkerSlot) -> None:
        slot.state = "starting"
        slot.heartbeat = self._mp.Value("d", time.time())
        slot.stop_event = self._mp.Event()
        recv, send = self._mp.Pipe(duplex=False)
        slot.process = self._mp.Process(
            target=_worker_entry,
            args=(
                slot.index,
                self.config,
                self.catalog_root,
                self.cache_dir,
                self.chaos_spec,
                slot.heartbeat,
                send,
                slot.stop_event,
                getattr(self, "_exit_after", None),
            ),
            daemon=True,
            name=f"repro-serve-w{slot.index}",
        )
        slot.process.start()
        send.close()
        if recv.poll(self.config.worker_start_timeout):
            try:
                slot.port = recv.recv()
                slot.state = "live"
            except EOFError:
                slot.port = None
        if slot.state != "live":
            logger.error("worker %d failed to report a port", slot.index)
            self._schedule_restart(slot)

    def _schedule_restart(self, slot: _WorkerSlot) -> None:
        """Kill the process and either schedule a backoff restart or mark
        the slot failed when the intensity cap is blown."""
        process = slot.process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5.0)
        now = time.time()
        slot.restarts.append(now)
        while slot.restarts and now - slot.restarts[0] > self.config.restart_window:
            slot.restarts.popleft()
        if len(slot.restarts) > self.config.restart_intensity:
            slot.state = "failed"
            get_tracer().incr("serve.worker_failed")
            logger.error(
                "worker %d blew the restart budget (%d in %.0fs); leaving down",
                slot.index,
                len(slot.restarts),
                self.config.restart_window,
            )
            return
        backoff = min(
            self.config.backoff_max,
            self.config.backoff_base * (2 ** max(0, len(slot.restarts) - 1)),
        )
        slot.state = "backoff"
        slot.restart_at = now + backoff
        slot.total_restarts += 1
        get_tracer().incr("serve.restarts")

    def _monitor_loop(self) -> None:
        interval = self.config.heartbeat_interval
        while not self._stopping.wait(interval):
            now = time.time()
            for slot in self.slots:
                if slot.state == "failed":
                    continue
                if slot.state == "backoff":
                    if now >= slot.restart_at:
                        self._spawn(slot)
                    continue
                process = slot.process
                if process is None:
                    continue
                if not process.is_alive():
                    logger.warning(
                        "worker %d died (exit %s); restarting",
                        slot.index,
                        process.exitcode,
                    )
                    self._schedule_restart(slot)
                    continue
                beat = slot.heartbeat.value if slot.heartbeat is not None else now
                if slot.state == "live" and now - beat > self.config.heartbeat_timeout:
                    logger.warning(
                        "worker %d heartbeat is %.1fs stale; killing",
                        slot.index,
                        now - beat,
                    )
                    get_tracer().incr("serve.hang_kills")
                    self._schedule_restart(slot)

    # -- dispatch ------------------------------------------------------
    def _live_slots(self) -> List[_WorkerSlot]:
        return [slot for slot in self.slots if slot.live]

    def _keyed_read(
        self, method: str, target: str
    ) -> Optional[Tuple[str, str, str, int]]:
        """``(system, domain, metric, seed)`` of an unfaulted keyed read
        this front can look up in its catalog view, or None (the worker
        owns producing the structured 400/404 for malformed requests)."""
        if self._store is None:
            return None
        try:
            request = parse_analysis(method, target, b"")
        except (ServiceError, ValueError):
            return None
        if request is None or request[2] is None or request[4]:
            return None
        return request[:4]

    def _fresh_answer(self, method: str, target: str) -> Optional[bytes]:
        """Front-replica read: answer ``GET /v1/metric/...`` from the
        dispatcher's own catalog view when the stored entry carries the
        full freshness evidence — the exact check a worker's catalog
        hit makes, fronted by the shard store's read replicas, so a hot
        key skips the internal hop entirely.  Returns None on any miss
        or doubt (the request is then forwarded to the pool as usual);
        never serves stale or faulted requests.  The answer is the
        rendered response body."""
        parsed = self._keyed_read(method, target)
        if parsed is None:
            return None
        system, domain, metric, seed = parsed
        try:
            arch, config_digest, events_digest, dependencies = request_identity(
                system, domain, seed
            )
            entry = self._store.latest(
                arch,
                metric,
                config_digest,
                events_digest=events_digest,
                event_digests=dependencies,
            )
        except Exception:  # noqa: BLE001 — the fast path is advisory
            return None
        if entry is None:
            return None
        with self._lock:
            self._front_serves += 1
        get_tracer().incr("shard.front_serves")
        return self._rendered.metric_body(ServedMetric(entry=entry, source="catalog"))

    @staticmethod
    def _coalescing_identity(
        method: str, target: str, body: bytes
    ) -> Optional[Tuple]:
        """The sticky-dispatch key ``(system, domain, seed, faults)`` of
        a keyed read or an analysis: requests with equal identities
        share one worker *while one is in flight*, so the worker's
        request coalescing sees them as one computation.  Distinct
        identities carry no affinity (they round-robin for balance)."""
        try:
            request = parse_analysis(method, target, body)
        except Exception:  # noqa: BLE001 — malformed: no affinity
            return None
        if request is None:
            return None
        system, domain, _, seed, faults = request
        return system, domain, seed, faults or None

    async def dispatch(
        self, method: str, target: str, body: bytes, *, timeout: float = 60.0
    ) -> Tuple[int, Body]:
        """Proxy one request: fully-fresh keyed reads answered straight
        from the dispatcher's replica-fronted catalog view, then the
        worker already running an identical request, round-robin over
        live workers otherwise, re-dispatch on transport failure,
        degrade to a stale catalog read when no worker is live.  A
        worker's response body is forwarded as its bytes, undecoded."""
        loop = asyncio.get_running_loop()
        last_error: Optional[TransportError] = None
        if method == "GET":
            # Hot keyed reads are served straight off the dispatcher's
            # replica-fronted catalog view when fully fresh — no worker
            # hop at all (see _fresh_answer).
            fresh = await loop.run_in_executor(
                None, self._fresh_answer, method, target
            )
            if fresh is not None:
                return 200, fresh
        sticky = self._coalescing_identity(method, target, body)
        held: Optional[List[Any]] = None  # [slot index, in-flight count]
        try:
            for attempt in range(self.config.dispatch_attempts):
                with self._lock:
                    self._dispatched += 1
                    n = self._dispatched
                live = self._live_slots()
                if not live:
                    await asyncio.sleep(self.config.heartbeat_interval)
                    live = self._live_slots()
                if not live:
                    break
                slot = live[n % len(live)]
                if sticky is not None and attempt == 0:
                    # Ride the worker an identical in-flight request runs
                    # on (and its coalescing window), or publish this one
                    # as the place identical requests should go.
                    with self._lock:
                        held = self._sticky.setdefault(sticky, [slot.index, 0])
                        held[1] += 1
                    slot = next((s for s in live if s.index == held[0]), slot)
                if self._chaos is not None and self._chaos.fires(
                    "worker-kill", f"dispatch:{n}"
                ):
                    # Chaos: SIGKILL the worker shortly after handing it this
                    # request — it dies mid-batch and the request must be
                    # re-dispatched; the monitor must notice and restart it.
                    process = slot.process
                    if process is not None:
                        threading.Timer(0.05, process.kill).start()
                try:
                    return await loop.run_in_executor(
                        None,
                        http_exchange,
                        "127.0.0.1",
                        slot.port,
                        method,
                        target,
                        body,
                        timeout,
                    )
                except TransportError as exc:
                    last_error = exc
                    with self._lock:
                        self._redispatches += 1
                    get_tracer().incr("serve.redispatch")
                    continue
        finally:
            if held is not None:
                with self._lock:
                    held[1] -= 1
                    if held[1] <= 0:
                        del self._sticky[sticky]
        stale = await loop.run_in_executor(None, self._stale_answer, method, target)
        if stale is not None:
            return 200, stale
        payload = {
            "error": "no live workers and no fresh-enough stale answer",
            "retry": True,
            "degraded": True,
        }
        if last_error is not None:
            payload["last_error"] = last_error.payload
        return 503, payload

    def _stale_answer(self, method: str, target: str) -> Optional[Dict[str, Any]]:
        """Degraded mode: answer ``GET /v1/metric/...`` from the
        supervisor's own catalog view, stamped stale, inside the
        freshness bound — for exactly the requested
        ``(system, domain, seed)``, never an entry computed for another
        one.  Faulted requests get None (an unfaulted catalog entry
        would be a wrong answer for a diagnostics run).  Returns None
        when not applicable."""
        if self.config.stale_max_age is None:
            return None
        parsed = self._keyed_read(method, target)
        if parsed is None:
            return None
        system, domain, metric, seed = parsed
        try:
            arch, config_digest, _, _ = request_identity(system, domain, seed)
        except KeyError:
            return None
        found = self._store.stale_latest(
            arch, metric, config_digest, max_age=self.config.stale_max_age
        )
        if found is None:
            return None
        entry, age = found
        with self._lock:
            self._stale_fallbacks += 1
        get_tracer().incr("serve.stale_served")
        payload = ServedMetric(
            entry=entry, source="catalog", stale=True, stale_age=age
        ).to_payload()
        payload["degraded"] = "no live workers"
        return payload

    # -- status --------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        now = time.time()
        workers = []
        for slot in self.slots:
            process = slot.process
            beat = slot.heartbeat.value if slot.heartbeat is not None else None
            workers.append(
                {
                    "slot": slot.index,
                    "state": slot.state,
                    "pid": process.pid if process is not None else None,
                    "alive": process.is_alive() if process is not None else False,
                    "port": slot.port,
                    "restarts": slot.total_restarts,
                    "heartbeat_age": (
                        round(now - beat, 3) if beat is not None else None
                    ),
                }
            )
        return {
            "workers": workers,
            "live": len(self._live_slots()),
            "dispatched": self._dispatched,
            "redispatches": self._redispatches,
            "stale_fallbacks": self._stale_fallbacks,
            "front_serves": self._front_serves,
            "fsck": (
                dataclasses.asdict(self.fsck_report)
                if self.fsck_report is not None
                else None
            ),
            "config": {
                "workers": self.config.workers,
                "shards": self.config.shards,
                "heartbeat_timeout": self.config.heartbeat_timeout,
                "restart_intensity": self.config.restart_intensity,
                "restart_window": self.config.restart_window,
                "stale_max_age": self.config.stale_max_age,
            },
        }


class SupervisorServer:
    """The front listener: one asyncio server proxying to the pool.

    Speaks the same HTTP/1.0 JSON wire format as
    :class:`~repro.serve.http.HttpMetricServer` (it answers connections
    through the same handler), adds ``GET /supervisor/status``, and
    forwards everything else through :meth:`ServiceSupervisor.dispatch`.
    """

    def __init__(
        self,
        supervisor: ServiceSupervisor,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        proxy_timeout: float = 60.0,
    ):
        self.supervisor = supervisor
        self.host = host
        self.port = port
        self.proxy_timeout = proxy_timeout
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> int:
        """Start the worker pool (in a thread: spawn blocks) and the
        front listener; returns the bound port."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.supervisor.start)
        self._server = await asyncio.start_server(
            partial(answer_connection, route=self._route),
            host=self.host,
            port=self.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.supervisor.stop)

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Body]:
        if target.split("?")[0] == "/supervisor/status":
            return 200, self.supervisor.status()
        return await self.supervisor.dispatch(
            method, target, body, timeout=self.proxy_timeout
        )
