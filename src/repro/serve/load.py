"""The closed-loop serving drill.

:func:`run_load_drill` is the executable form of the serving tier's
contract.  It runs a deterministic workload against a serving target
and judges every response against the invariant:

    every answer is **bit-identical** (by
    :func:`~repro.serve.chaos.definition_digest`) to the single-process
    baseline, a **typed rejection** (a structured 429/503/504, or a
    typed transport error), or an **explicitly stale** degraded answer.
    Anything else is a recorded violation.

A *chaos drill* is the same drill with a fault plan: ``chaos_spec``
arms :mod:`repro.faults.chaos` in the supervised pool (worker kills,
hangs, torn publications, socket drops, latency), and a retrying client
drives one strictly sequential stream so the deterministic per-site
injection streams line up run to run.  After the drive, a supervised
drill waits for the pool to recover (:func:`await_recovery`), and a
drill with a catalog root runs the post-mortem: ``fsck(repair=True)``,
then every stored entry is compared with the baseline — torn
publications must be quarantined and survivors must still match.  With
a zero-rate spec the drill degenerates to the equivalence property:
the supervised multi-worker path answers bit-identically to
single-service serving.

The harness borrows ELAPS's methodology: sweep a workload parameter
(offered requests per second), measure latency percentiles at each
step, and let the resulting saturation curve — not an anecdote — show
where coalescing, batching, and backpressure stop holding.

Workload models
---------------
*Closed loop* — each of N clients issues its next request the moment
the previous one completes; concurrency is fixed at N and the achieved
throughput *is* the measurement.  *Open loop* — requests are fired on a
fixed global schedule (``offered_rps``) regardless of completions, so
queueing delay shows up as latency instead of silently throttling the
offered load.  Per-client request streams are derived from a seeded
RNG (client index + workload seed), so a drill replays bit-identically.

Every stream opens with a shared *rendezvous* request — all clients ask
for the same fresh analysis at once — which makes request coalescing
observable: one client computes, the riders wait, and the worker's
``serve.coalesced`` stat counts them.
"""

from __future__ import annotations

import asyncio
import functools
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.io.digest import sha256_hex
from repro.obs import get_tracer
from repro.serve.catalog import FsckReport, MetricCatalogStore
from repro.serve.chaos import Baseline, baseline_digests, definition_digest
from repro.serve.client import CatalogClient, RetryPolicy
from repro.serve.service import MetricService, ServiceError, TransportError
from repro.serve.supervisor import (
    ServiceSupervisor,
    SupervisorConfig,
    SupervisorServer,
)

__all__ = [
    "LoadReport",
    "LoadStep",
    "LoadStepReport",
    "RECOVERY_BUDGET",
    "RequestSpec",
    "Workload",
    "await_recovery",
    "latency_percentile",
    "run_load_drill",
]

#: Seconds a supervised pool gets to bring every worker slot back live
#: after the drive.
RECOVERY_BUDGET = 60.0


@dataclass(frozen=True)
class RequestSpec:
    """One planned request: a domain analysis or a single-metric read."""

    kind: str  # "analyze" | "metric"
    system: str
    domain: str
    seed: int
    metric: Optional[str] = None


@dataclass(frozen=True)
class LoadStep:
    """One step of a drill: a workload model plus (for open loop) the
    offered request rate the schedule is built from."""

    mode: str = "closed"  # "closed" | "open"
    offered_rps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError(f"LoadStep.mode must be closed|open, not {self.mode!r}")
        if self.mode == "open" and (
            self.offered_rps is None or self.offered_rps <= 0
        ):
            raise ValueError("open-loop LoadStep needs offered_rps > 0")

    def label(self) -> str:
        if self.mode == "closed":
            return "closed"
        return f"open@{self.offered_rps:g}rps"


@dataclass(frozen=True)
class Workload:
    """A deterministic request population.

    ``hot_fraction`` of each stream (after the rendezvous request) is
    single-metric ``GET`` reads against the rendezvous seed — catalog
    hits once the first analysis publishes — and the rest are domain
    analyses over ``seed_pool`` distinct seeds.
    """

    pairs: Sequence[Tuple[str, str]] = (("aurora", "branch"),)
    clients: int = 4
    requests_per_client: int = 6
    base_seed: int = 2024
    seed_pool: int = 2
    hot_fraction: float = 0.6

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("Workload.pairs must be non-empty")
        if self.clients < 1 or self.requests_per_client < 1:
            raise ValueError("Workload needs >= 1 client and >= 1 request each")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("Workload.hot_fraction must be in [0, 1]")
        if self.seed_pool < 1:
            raise ValueError("Workload.seed_pool must be >= 1")

    def universe(self) -> List[Tuple[str, str, int]]:
        """Every ``(system, domain, seed)`` analysis any stream can
        request — the baseline precomputes ground truth for all of it."""
        keys = [
            (system, domain, self.base_seed + offset)
            for system, domain in self.pairs
            for offset in range(self.seed_pool)
        ]
        return list(dict.fromkeys(keys))

    def _rng(self, client: int) -> random.Random:
        return random.Random(
            int(sha256_hex(f"load:{self.base_seed}:client:{client}", length=8), 16)
        )

    def client_stream(
        self, client: int, metric_names: Dict[Tuple[str, str], Sequence[str]]
    ) -> List[RequestSpec]:
        """Client ``client``'s full request stream — a pure function of
        the workload parameters, so drills replay bit-identically."""
        rng = self._rng(client)
        stream = [
            RequestSpec("analyze", *self.pairs[0], seed=self.base_seed)
        ]  # the rendezvous: every client, same fresh analysis, at once
        while len(stream) < self.requests_per_client:
            system, domain = self.pairs[rng.randrange(len(self.pairs))]
            if rng.random() < self.hot_fraction:
                names = metric_names[(system, domain)]
                stream.append(
                    RequestSpec(
                        "metric",
                        system,
                        domain,
                        seed=self.base_seed,
                        metric=names[rng.randrange(len(names))],
                    )
                )
            else:
                stream.append(
                    RequestSpec(
                        "analyze",
                        system,
                        domain,
                        seed=self.base_seed + rng.randrange(self.seed_pool),
                    )
                )
        return stream


def latency_percentile(latencies: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the load-testing convention: p99 is an
    observed sample, never an interpolated value that nobody saw)."""
    if not latencies:
        return 0.0
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], not {q}")
    ordered = sorted(latencies)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math import
    return ordered[int(rank) - 1]


@dataclass
class LoadStepReport:
    """Everything one step observed, judged against the invariant.

    ``identical`` and ``stale`` count per-*metric* verdicts — a domain
    analysis response carries every metric of its domain, each judged
    separately — so both can legitimately exceed ``requests``.
    """

    step: LoadStep
    requests: int = 0
    identical: int = 0
    stale: int = 0
    rejected: int = 0
    transport_rejected: int = 0
    violations: List[str] = field(default_factory=list)
    duration_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)

    @property
    def achieved_rps(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.requests / self.duration_seconds

    @property
    def p50_ms(self) -> float:
        return latency_percentile(self.latencies, 50) * 1000.0

    @property
    def p95_ms(self) -> float:
        return latency_percentile(self.latencies, 95) * 1000.0

    @property
    def p99_ms(self) -> float:
        return latency_percentile(self.latencies, 99) * 1000.0

    def to_row(self) -> Dict[str, Any]:
        return {
            "step": self.step.label(),
            "offered_rps": self.step.offered_rps,
            "achieved_rps": round(self.achieved_rps, 2),
            "requests": self.requests,
            "identical": self.identical,
            "stale": self.stale,
            "rejected": self.rejected,
            "violations": len(self.violations),
            "p50_ms": round(self.p50_ms, 1),
            "p95_ms": round(self.p95_ms, 1),
            "p99_ms": round(self.p99_ms, 1),
        }


@dataclass
class LoadReport:
    """One full drill: per-step reports plus pool-wide evidence.

    ``recovered`` is None when no supervisor ran; ``fsck`` is None when
    the drill had no catalog root.  ``catalog_violations`` are the
    post-mortem's findings: stored entries that are unloadable or differ
    from the baseline after ``fsck``.
    """

    target: str
    workload: Workload
    steps: List[LoadStepReport] = field(default_factory=list)
    coalesced: int = 0
    catalog_hits: int = 0
    supervisor_status: Optional[Dict[str, Any]] = None
    recovered: Optional[bool] = None
    recovery_seconds: Optional[float] = None
    fsck: Optional[FsckReport] = None
    catalog_violations: List[str] = field(default_factory=list)

    @property
    def requests(self) -> int:
        return sum(s.requests for s in self.steps)

    @property
    def identical(self) -> int:
        return sum(s.identical for s in self.steps)

    @property
    def stale(self) -> int:
        return sum(s.stale for s in self.steps)

    @property
    def rejected(self) -> int:
        return sum(s.rejected for s in self.steps)

    @property
    def violations(self) -> List[str]:
        return [v for s in self.steps for v in s.violations] + self.catalog_violations

    @property
    def ok(self) -> bool:
        """The invariant held: every response identical, explicitly
        stale, or a typed rejection, the catalog survived its fsck, and
        a supervised pool recovered."""
        return not self.violations and self.recovered is not False

    def summary(self) -> str:
        lines = [
            f"load drill [{self.target}]: {self.requests} request(s), "
            f"{len(self.violations)} violation(s), "
            f"coalesced={self.coalesced}, catalog_hits={self.catalog_hits}"
        ]
        for s in self.steps:
            lines.append(
                f"  {s.step.label()}: {s.requests} req in "
                f"{s.duration_seconds:.2f}s ({s.achieved_rps:.1f} rps) — "
                f"{s.identical} identical, {s.stale} stale, "
                f"{s.rejected} rejected; p50/p95/p99 = "
                f"{s.p50_ms:.0f}/{s.p95_ms:.0f}/{s.p99_ms:.0f} ms"
            )
        if self.recovered is not None:
            lines.append(
                f"  recovered={self.recovered}"
                + (
                    f" in {self.recovery_seconds:.1f}s"
                    if self.recovery_seconds is not None
                    else ""
                )
            )
        if self.fsck is not None:
            lines.append(f"  {self.fsck.summary()}")
        return "\n".join(lines)


def _drive_client(
    connect: Callable[[], CatalogClient],
    stream: Sequence[RequestSpec],
    *,
    mode: str,
    start_at: float,
    period: float,
    offset: float,
) -> List[Tuple[RequestSpec, str, Any, float]]:
    """One client's blocking drive loop (runs on an executor thread).

    Returns ``(spec, outcome, payload-or-exc, latency_seconds)`` rows;
    classification happens on the main thread so counter increments and
    report mutation stay single-threaded.
    """
    client = connect()
    rows: List[Tuple[RequestSpec, str, Any, float]] = []
    for i, spec in enumerate(stream):
        if mode == "open":
            due = start_at + offset + i * period
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        began = time.perf_counter()
        try:
            if spec.kind == "metric":
                payload = client.metric(
                    spec.system, spec.domain, spec.metric, seed=spec.seed
                )
                rows.append((spec, "metric", payload, time.perf_counter() - began))
            else:
                metrics = client.analyze(spec.system, spec.domain, seed=spec.seed)
                rows.append((spec, "analyze", metrics, time.perf_counter() - began))
        except Exception as exc:  # noqa: BLE001 — classified on the main thread
            rows.append((spec, "error", exc, time.perf_counter() - began))
    return rows


def _classify(
    report: LoadStepReport,
    spec: RequestSpec,
    outcome: str,
    payload: Any,
    baseline: Dict[Tuple[str, str, int], Dict[str, str]],
) -> None:
    """Judge one response against the invariant; mutates ``report``."""
    tracer = get_tracer()
    report.requests += 1
    tracer.incr("load.requests")
    expected = baseline.get((spec.system, spec.domain, spec.seed), {})
    if outcome == "error":
        exc = payload
        if isinstance(exc, TransportError):
            # Typed transport failure (connection refused/reset under
            # saturation) — within the contract, but tracked apart so a
            # flaky network path cannot masquerade as clean backpressure.
            report.rejected += 1
            report.transport_rejected += 1
            tracer.incr("load.rejected")
            return
        if isinstance(exc, ServiceError):
            structured = isinstance(exc.payload, dict) and "error" in exc.payload
            if exc.status in (429, 503, 504) and structured:
                report.rejected += 1
                tracer.incr("load.rejected")
            else:
                report.violations.append(
                    f"{spec}: untyped or non-retryable error "
                    f"{exc.status}: {exc.payload!r}"
                )
                tracer.incr("load.violations")
            return
        report.violations.append(
            f"{spec}: raw {type(exc).__name__} escaped the client: {exc}"
        )
        tracer.incr("load.violations")
        return
    pairs = (
        [(spec.metric, payload)] if outcome == "metric" else sorted(payload.items())
    )
    for name, metric_payload in pairs:
        if metric_payload.get("stale"):
            report.stale += 1
            tracer.incr("load.stale")
            continue
        got = definition_digest(metric_payload)
        want = expected.get(name)
        if got == want:
            report.identical += 1
            tracer.incr("load.identical")
        else:
            report.violations.append(
                f"{spec} {name}: definition digest {got} != baseline "
                f"{want} and not marked stale"
            )
            tracer.incr("load.violations")


async def _run_step(
    connect: Callable[[], CatalogClient],
    step: LoadStep,
    streams: Sequence[Sequence[RequestSpec]],
    baseline: Dict[Tuple[str, str, int], Dict[str, str]],
) -> LoadStepReport:
    report = LoadStepReport(step=step)
    loop = asyncio.get_running_loop()
    period = 0.0
    if step.mode == "open":
        # Global schedule: requests evenly spaced at offered_rps, client
        # i firing its j-th request at (j * clients + i) / rps.
        period = len(streams) / step.offered_rps
    pool = ThreadPoolExecutor(
        max_workers=len(streams), thread_name_prefix="repro-load"
    )
    began = time.perf_counter()
    try:
        start_at = time.monotonic()
        futures = [
            loop.run_in_executor(
                pool,
                lambda c=client, s=stream: _drive_client(
                    connect,
                    s,
                    mode=step.mode,
                    start_at=start_at,
                    period=period,
                    offset=(c * period / max(1, len(streams)))
                    if step.mode == "open"
                    else 0.0,
                ),
            )
            for client, stream in enumerate(streams)
        ]
        per_client = await asyncio.gather(*futures)
    finally:
        pool.shutdown(wait=True)
    report.duration_seconds = time.perf_counter() - began
    for rows in per_client:
        for spec, outcome, payload, latency in rows:
            report.latencies.append(latency)
            _classify(report, spec, outcome, payload, baseline)
    return report


def _pool_stats(
    port: int,
    supervisor: Optional[ServiceSupervisor],
    timeout: float,
) -> Tuple[int, int]:
    """Sum ``serve.coalesced`` / ``serve.catalog_hits`` across the pool
    — each worker's ``/healthz`` stats for the sharded tier, the single
    listener's own for the baseline tier."""
    coalesced = 0
    catalog_hits = 0
    ports = [port]
    if supervisor is not None:
        ports = [
            w["port"]
            for w in supervisor.status()["workers"]
            if w["port"] is not None
        ]
    for worker_port in ports:
        try:
            stats = CatalogClient(port=worker_port, timeout=timeout).health()[
                "stats"
            ]
        except Exception:  # noqa: BLE001 — a dead worker just contributes 0
            continue
        coalesced += int(stats.get("coalesced", 0))
        catalog_hits += int(stats.get("catalog_hits", 0))
    return coalesced, catalog_hits


async def await_recovery(
    status: Callable[[], Dict[str, Any]], budget: float = RECOVERY_BUDGET
) -> Optional[float]:
    """Seconds until every worker slot of ``status()`` is live, or None.

    None means the budget ran out, or some slot is ``failed``: the
    supervisor never restarts a failed slot, so waiting longer cannot
    bring the pool back to full strength.
    """
    start = time.monotonic()
    while True:
        current = status()
        if any(w["state"] == "failed" for w in current["workers"]):
            return None
        if current["live"] == len(current["workers"]):
            return time.monotonic() - start
        if time.monotonic() - start >= budget:
            return None
        await asyncio.sleep(0.2)


def _post_mortem(
    catalog_root: str, entry_digests: Dict[Tuple[str, str, str, int], str]
) -> Tuple[FsckReport, List[str]]:
    """Repair the drill's catalog, then compare every stored entry with
    the baseline.  Returns the fsck report and the violations found."""
    store = MetricCatalogStore(catalog_root)
    fsck = store.fsck(repair=True)
    violations: List[str] = []
    for row in store.list_entries():
        entry = store.get(
            row["arch"], row["metric"], row["config_digest"],
            version=row["latest_version"],
        )
        if entry is None:
            violations.append(
                f"catalog entry {row['metric']!r} v{row['latest_version']} "
                "listed but unloadable after fsck"
            )
            continue
        want = entry_digests.get(
            (entry.arch, entry.domain, entry.metric, entry.seed)
        )
        if want is None:
            continue  # a seed the baseline did not cover
        got = definition_digest(entry.to_payload())
        if got != want:
            violations.append(
                f"stored entry {entry.metric!r} v{entry.version} digest "
                f"{got} != baseline {want}: corruption survived fsck"
            )
    return fsck, violations


def run_load_drill(
    catalog_root: Optional[str] = None,
    *,
    target: str = "sharded",
    workers: int = 2,
    shards: int = 2,
    workload: Optional[Workload] = None,
    steps: Sequence[LoadStep] = (LoadStep("closed"),),
    cache_dir: Optional[str] = None,
    config: Optional[SupervisorConfig] = None,
    client_timeout: float = 60.0,
    baseline: Optional[Baseline] = None,
    chaos_spec: Optional[str] = None,
) -> LoadReport:
    """Drive the workload through a serving target, step by step.

    ``target`` selects the tier: ``"sharded"`` starts a
    :class:`ServiceSupervisor` pool (``workers`` processes over
    ``shards`` catalog shards) behind a :class:`SupervisorServer`
    front; ``"single"`` starts one in-process
    :class:`~repro.serve.http.HttpMetricServer` — the baseline the
    sharded tier's throughput is judged against.

    ``chaos_spec`` (sharded only) is the fault plan the pool runs
    under.  Without an explicit ``config`` it also selects the chaos
    supervisor timings (a 1.5 s heartbeat detects an injected hang), and
    the client retries with backoff under a 120 s deadline instead of
    making one attempt.  For a reproducible fault sequence use one
    client (``Workload(clients=1, hot_fraction=0.0)``).

    Ground truth is computed first (one plain service answers the whole
    workload universe), or passed in via ``baseline`` — the return value
    of :func:`~repro.serve.chaos.baseline_digests` — so a benchmark can
    amortise it across drills.  Returns a :class:`LoadReport`;
    ``report.ok`` is the invariant verdict.  ``catalog_root`` must be a
    fresh or disposable directory.
    """
    if target not in ("sharded", "single"):
        raise ValueError(f"target must be sharded|single, not {target!r}")
    if target == "sharded" and catalog_root is None:
        raise ValueError("the sharded target needs a catalog_root")
    if target == "single" and chaos_spec is not None:
        raise ValueError("a chaos_spec needs the sharded target")
    workload = workload or Workload()
    if not steps:
        raise ValueError("run_load_drill needs at least one LoadStep")
    universe = workload.universe()
    if baseline is None:
        baseline = baseline_digests(universe, cache_dir)
    digests, entry_digests = baseline
    metric_names = {}
    for system, domain, seed in universe:
        metric_names.setdefault(
            (system, domain), sorted(digests[(system, domain, seed)])
        )
    streams = [
        workload.client_stream(i, metric_names) for i in range(workload.clients)
    ]
    report = LoadReport(target=target, workload=workload)

    async def drive() -> None:
        supervisor: Optional[ServiceSupervisor] = None
        client_options: Dict[str, Any] = {"timeout": client_timeout}
        if target == "sharded":
            if chaos_spec is None:
                supervisor_config = config or SupervisorConfig(
                    workers=workers,
                    shards=shards,
                    heartbeat_timeout=5.0,
                    stale_max_age=3600.0,
                )
            else:
                supervisor_config = config or SupervisorConfig(
                    workers=workers,
                    shards=shards,
                    heartbeat_timeout=1.5,
                    backoff_base=0.1,
                    backoff_max=1.0,
                    restart_intensity=10,
                    stale_max_age=3600.0,
                )
                client_options.update(
                    retry=RetryPolicy(
                        max_attempts=6, backoff_base=0.05, backoff_cap=0.5
                    ),
                    deadline=120.0,
                )
            supervisor = ServiceSupervisor(
                catalog_root,
                cache_dir=cache_dir,
                config=supervisor_config,
                chaos_spec=chaos_spec,
            )
            front = SupervisorServer(supervisor)
            port = await front.start()
        else:
            from repro.serve.http import HttpMetricServer

            store = None
            if catalog_root is not None:
                store = MetricCatalogStore(catalog_root)
            service = MetricService(
                store, cache_dir=cache_dir, stale_max_age=3600.0
            )
            front = HttpMetricServer(service, port=0)
            port = await front.start()
        connect = functools.partial(CatalogClient, port=port, **client_options)
        try:
            for step in steps:
                report.steps.append(
                    await _run_step(connect, step, streams, digests)
                )
            loop = asyncio.get_running_loop()
            report.coalesced, report.catalog_hits = await loop.run_in_executor(
                None, lambda: _pool_stats(port, supervisor, client_timeout)
            )
            if supervisor is not None:
                report.recovery_seconds = await await_recovery(supervisor.status)
                report.recovered = report.recovery_seconds is not None
                report.supervisor_status = supervisor.status()
        finally:
            await front.stop()

    asyncio.run(drive())
    if catalog_root is not None:
        report.fsck, report.catalog_violations = _post_mortem(
            catalog_root, entry_digests
        )
    return report
