"""Blocking client for the metric service.

A thin :mod:`http.client` wrapper for scripts, tests, the CI smoke jobs
and the chaos drill — no asyncio required on the calling side.
Non-200 responses raise :class:`~repro.serve.service.ServiceError` (or
its :class:`~repro.serve.service.ServiceBusy` subclass for 429)
carrying the server's JSON payload; transport failures — connection
refused, reset, timeout, a torn response — raise the typed
:class:`~repro.serve.service.TransportError` instead of leaking raw
socket exceptions, so ``except ServiceError`` plus the ``retryable``
flag is the complete error-handling story.

By default :class:`CatalogClient` makes one attempt.  Its options add
the client half of the fault-tolerance contract: retries with
deterministic backoff jitter, a per-request deadline, a circuit breaker
per endpoint, and hedged reads against replicas.  Retrying and hedging
are safe because every request carries the service's request-coalescing
identity ``(system, domain, seed, faults)`` as its idempotency key: a
duplicate that arrives while the original runs coalesces onto the same
in-flight analysis, and one that arrives after it hits the catalog.

:func:`http_exchange` is the one transport: the client's attempts and
the supervisor's hop to a worker both go through it.
"""

from __future__ import annotations

import http.client
import json
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import quote, urlencode

from repro.io.digest import json_digest, sha256_hex
from repro.obs import get_tracer
from repro.serve.service import ServiceBusy, ServiceError, TransportError

__all__ = [
    "BreakerOpen",
    "CatalogClient",
    "CircuitBreaker",
    "DeadlineExceeded",
    "RetryPolicy",
    "http_exchange",
    "idempotency_key",
]

Endpoint = Tuple[str, int]


def http_exchange(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[bytes],
    timeout: float,
) -> Tuple[int, Any]:
    """One request on a fresh HTTP/1.0 connection: ``(status, JSON payload)``.

    Any failure to get a complete JSON response — refused, reset,
    timed out, torn — raises :class:`TransportError`; an HTTP error
    status is returned, not raised (the caller decides what it means).
    """
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    where = f"{host}:{port}"
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            conn.request(method, path, body=body or None, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except TimeoutError as exc:
            raise TransportError(
                f"no response from {where} within {timeout}s", exc
            ) from exc
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(
                f"{type(exc).__name__} talking to {where}: {exc}", exc
            ) from exc
        try:
            return response.status, json.loads(raw.decode() or "{}")
        except (UnicodeDecodeError, ValueError) as exc:
            raise TransportError(f"torn response from {where}", exc) from exc
    finally:
        conn.close()


def idempotency_key(
    system: str, domain: str, seed: int = 2024, faults: Optional[str] = None
) -> str:
    """The request's idempotency key: a digest of the service's
    request-coalescing identity.  Two calls with equal keys can never
    compute twice server-side (coalescing in flight, catalog after), so
    retrying or hedging under this key is always safe."""
    return json_digest(
        {"system": system, "domain": domain, "seed": seed, "faults": faults},
        length=16,
    )


class DeadlineExceeded(ServiceError):
    """The per-request time budget ran out before any attempt succeeded."""

    def __init__(self, budget: float, attempts: int, last_error: Optional[ServiceError]):
        super().__init__(
            504,
            {
                "error": f"deadline of {budget}s exceeded after "
                f"{attempts} attempt(s)",
                "retry": True,
                "last_error": last_error.payload if last_error else None,
            },
        )


class BreakerOpen(ServiceError):
    """Fast-fail: the endpoint's circuit breaker is open."""

    def __init__(self, endpoint: str, open_for: float):
        super().__init__(
            503,
            {
                "error": f"circuit breaker open for {endpoint}",
                "retry": True,
                "breaker": "open",
                "open_for_seconds": round(max(0.0, open_for), 3),
            },
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``delay(key, attempt)`` is a pure function: the base doubles per
    attempt up to ``backoff_cap`` and is scaled into ``[0.5, 1.0)`` of
    itself by a jitter fraction hashed from ``(key, attempt)``.  Same
    key, same schedule — reproducible tests; different keys decorrelate.
    """

    max_attempts: int = 4
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff values must be >= 0")

    def delay(self, key: str, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (the first retry is 1)."""
        base = min(self.backoff_cap, self.backoff_base * (2 ** max(0, attempt - 1)))
        fraction = int(sha256_hex(f"{key}:attempt{attempt}", length=8), 16) / 16**8
        return base * (0.5 + 0.5 * fraction)


class CircuitBreaker:
    """Classic three-state breaker over consecutive failures.

    *closed* — calls flow; ``failure_threshold`` consecutive failures
    trip to *open* (``breaker.opened``).  *open* — :meth:`allow` is
    False (fast-fail) until ``reset_after`` seconds pass, then one probe
    is admitted (*half-open*, ``breaker.half_open``).  A probe success
    re-closes (``breaker.closed``); a probe failure re-opens and the
    timer restarts.  Thread-compatible for the blocking client's usage
    (one logical request at a time per client instance).
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self._clock = clock
        self.state = "closed"
        self.failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def open_for(self) -> float:
        """Seconds until the breaker will admit a half-open probe."""
        if self.state != "open":
            return 0.0
        return max(0.0, self.reset_after - (self._clock() - self._opened_at))

    def allow(self) -> bool:
        """Whether a call may proceed now (admits the half-open probe)."""
        if self.state == "closed":
            return True
        if self.state == "open":
            if self._clock() - self._opened_at < self.reset_after:
                return False
            self.state = "half-open"
            self._probing = False
            get_tracer().incr("breaker.half_open")
        # half-open: exactly one probe at a time.
        if self._probing:
            return False
        self._probing = True
        return True

    def record_success(self) -> None:
        if self.state != "closed":
            get_tracer().incr("breaker.closed")
        self.state = "closed"
        self.failures = 0
        self._probing = False

    def record_failure(self) -> None:
        if self.state == "half-open":
            self._trip()
            return
        self.failures += 1
        if self.failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        if self.state != "open":
            get_tracer().incr("breaker.opened")
        self.state = "open"
        self._opened_at = self._clock()
        self.failures = 0
        self._probing = False


class CatalogClient:
    """Blocking HTTP client for one service or supervised pool.

    Parameters
    ----------
    host / port:
        The primary endpoint.
    timeout:
        Per-attempt socket timeout (clamped to the remaining deadline).
    replicas:
        Further ``(host, port)`` endpoints; attempt rotation and hedged
        reads use them.
    deadline:
        Per logical request time budget in seconds (``None``: each
        attempt is bounded by ``timeout`` alone).
    retry:
        The :class:`RetryPolicy`; only ``retryable`` errors are retried.
        ``None`` makes one attempt.
    breaker_factory:
        Builds one :class:`CircuitBreaker` per endpoint; ``None`` (the
        default) disables fast-fail.
    hedge_delay:
        When set and a replica exists, idempotent reads fire a hedged
        second attempt at a replica after this many seconds without a
        primary response; first success wins.
    accept_stale:
        When False, responses marked ``stale=True`` raise
        :class:`ServiceError` (503) instead of being returned — for
        callers that must never act on degraded answers.
    clock / sleep / transport:
        Test seams: monotonic clock, sleep function, and an
        :func:`http_exchange`-shaped transport.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8752,
        timeout: float = 30.0,
        *,
        replicas: Sequence[Endpoint] = (),
        deadline: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        breaker_factory: Optional[Callable[[], CircuitBreaker]] = None,
        hedge_delay: Optional[float] = None,
        accept_stale: bool = True,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        transport: Callable[..., Tuple[int, Any]] = http_exchange,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.endpoints: List[Endpoint] = [(host, port)] + [tuple(e) for e in replicas]
        self.deadline = deadline
        self.retry = retry if retry is not None else RetryPolicy(max_attempts=1)
        self.hedge_delay = hedge_delay
        self.accept_stale = accept_stale
        self._clock = clock
        self._sleep = sleep
        self._transport = transport
        self._breakers: Dict[Endpoint, Optional[CircuitBreaker]] = {
            endpoint: (breaker_factory() if breaker_factory is not None else None)
            for endpoint in self.endpoints
        }

    # -- plumbing ------------------------------------------------------
    def breaker(self, endpoint: Endpoint) -> Optional[CircuitBreaker]:
        return self._breakers[tuple(endpoint)]

    def _attempt(
        self,
        endpoint: Endpoint,
        method: str,
        path: str,
        body: Optional[bytes],
        timeout: float,
    ) -> Any:
        """One try at one endpoint, settling its breaker either way."""
        breaker = self._breakers[endpoint]
        if breaker is not None and not breaker.allow():
            raise BreakerOpen(f"{endpoint[0]}:{endpoint[1]}", breaker.open_for)
        try:
            status, payload = self._transport(
                endpoint[0], endpoint[1], method, path, body, timeout
            )
            if status == 429:
                raise ServiceBusy(int(payload.get("queue_limit", 0)) or 1)
            if status != 200:
                raise ServiceError(status, payload)
        except ServiceError as exc:
            if breaker is not None:
                # Transport trouble and server-side unavailability count
                # against the endpoint; application-level answers (404,
                # 400, even a 500 analysis failure) prove it is serving.
                if isinstance(exc, TransportError) or exc.status == 503:
                    breaker.record_failure()
                else:
                    breaker.record_success()
            raise
        except BaseException:
            # Any other exception must still settle the breaker: a
            # half-open probe that never reports back would leave
            # allow() False forever, bricking the endpoint.
            if breaker is not None:
                breaker.record_failure()
            raise
        if breaker is not None:
            breaker.record_success()
        return payload

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        *,
        key: Optional[Tuple] = None,
        hedgeable: bool = False,
    ) -> Any:
        """One logical request: attempts with rotation, backoff, deadline
        and hedging.  ``key`` is the request's coalescing identity; the
        backoff jitter is hashed from it (or from the path) only when a
        retry actually waits."""
        data = json.dumps(body).encode() if body is not None else None
        deadline_at = None if self.deadline is None else self._clock() + self.deadline
        hedge = hedgeable and self.hedge_delay is not None and len(self.endpoints) > 1
        last_error: Optional[ServiceError] = None
        attempts = 0
        for attempt in range(1, self.retry.max_attempts + 1):
            if attempt > 1:
                # Back off before a retry, never past the deadline.
                pause = self.retry.delay(
                    idempotency_key(*key) if key is not None else path, attempt - 1
                )
                if deadline_at is not None:
                    pause = min(pause, deadline_at - self._clock())
                if pause > 0:
                    self._sleep(pause)
            timeout = self.timeout
            if deadline_at is not None:
                remaining = deadline_at - self._clock()
                if remaining <= 0:
                    break
                timeout = max(0.001, min(timeout, remaining))
            endpoint = self.endpoints[(attempt - 1) % len(self.endpoints)]
            attempts += 1
            try:
                if hedge:
                    return self._hedged(endpoint, attempt, method, path, data, timeout)
                return self._attempt(endpoint, method, path, data, timeout)
            except ServiceError as exc:
                get_tracer().incr("client.attempt_errors")
                if not exc.retryable:
                    raise
                last_error = exc
        if last_error is not None and (
            deadline_at is None or self._clock() < deadline_at
        ):
            get_tracer().incr("client.exhausted_retries")
            raise last_error
        raise DeadlineExceeded(self.deadline, attempts, last_error)

    def _hedged(
        self,
        primary: Endpoint,
        attempt: int,
        *request: Any,
    ) -> Any:
        """Primary attempt plus a delayed replica hedge; first success
        wins, the loser's result is discarded (idempotency makes that
        safe)."""
        replica = self.endpoints[attempt % len(self.endpoints)]
        pool = ThreadPoolExecutor(max_workers=2)
        try:
            futures: List[Future] = [pool.submit(self._attempt, primary, *request)]
            done, _ = wait(futures, timeout=self.hedge_delay)
            if not done and replica != primary:
                get_tracer().incr("client.hedged_reads")
                futures.append(pool.submit(self._attempt, replica, *request))
            first_error: Optional[BaseException] = None
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    error = future.exception()
                    if error is None:
                        return future.result()
                    if first_error is None:
                        first_error = error
            assert first_error is not None
            raise first_error
        finally:
            # No wait: the winner must return even while the loser is
            # still hung on its socket (that's the whole point of the
            # hedge).  The discarded attempt's breaker bookkeeping still
            # runs to completion in its thread.
            pool.shutdown(wait=False)

    def _check_stale(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        if not self.accept_stale and isinstance(payload, dict) and payload.get("stale"):
            raise ServiceError(
                503,
                {
                    "error": "stale answer rejected (accept_stale=False)",
                    "retry": True,
                    "stale": True,
                },
            )
        return payload

    # -- endpoints -----------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz", hedgeable=True)

    def ready(self) -> bool:
        try:
            return bool(self._request("GET", "/readyz").get("ready"))
        except ServiceError as exc:
            if exc.status == 503:
                return False
            raise

    def metric(
        self,
        system: str,
        domain: str,
        metric: str,
        seed: int = 2024,
        faults: Optional[str] = None,
    ) -> Dict[str, Any]:
        """One served metric definition payload (raises on 4xx/5xx);
        stale-marked answers pass through unless ``accept_stale=False``."""
        query: Dict[str, Any] = {"seed": seed}
        if faults is not None:
            query["faults"] = faults
        path = (
            f"/v1/metric/{quote(system, safe='')}/{quote(domain, safe='')}/"
            f"{quote(metric, safe='')}?{urlencode(query)}"
        )
        payload = self._request(
            "GET", path, key=(system, domain, seed, faults), hedgeable=faults is None
        )
        return self._check_stale(payload)

    def analyze(
        self,
        system: str,
        domain: str,
        seed: int = 2024,
        faults: Optional[str] = None,
    ) -> Dict[str, Dict[str, Any]]:
        """Every metric of a domain; returns ``{metric: payload}``."""
        body: Dict[str, Any] = {"system": system, "domain": domain, "seed": seed}
        if faults is not None:
            body["faults"] = faults
        metrics = self._request(
            "POST",
            "/v1/analyze",
            body,
            key=(system, domain, seed, faults),
            hedgeable=faults is None,
        )["metrics"]
        if not self.accept_stale:
            for payload in metrics.values():
                self._check_stale(payload)
        return metrics

    def catalog_list(self, arch: Optional[str] = None) -> List[Dict[str, Any]]:
        path = "/v1/catalog"
        if arch is not None:
            path += "?" + urlencode({"arch": arch})
        return self._request("GET", path, hedgeable=True)["entries"]

    def catalog_entry(
        self,
        arch: str,
        metric: str,
        digest: Optional[str] = None,
        version: Optional[int] = None,
    ) -> Dict[str, Any]:
        query: Dict[str, Any] = {}
        if digest is not None:
            query["digest"] = digest
        if version is not None:
            query["version"] = version
        path = f"/v1/catalog/{quote(arch, safe='')}/{quote(metric, safe='')}"
        if query:
            path += "?" + urlencode(query)
        return self._request("GET", path, hedgeable=True)
