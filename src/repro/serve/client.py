"""Blocking client for the metric service.

A thin :mod:`http.client` wrapper for scripts, tests, the CI smoke jobs
and the serving drill — no asyncio required on the calling side.
Non-200 responses raise :class:`~repro.serve.service.ServiceError` (or
its :class:`~repro.serve.service.ServiceBusy` subclass for 429)
carrying the server's JSON payload; transport failures — connection
refused, reset, timeout, a torn response — raise the typed
:class:`~repro.serve.service.TransportError` instead of leaking raw
socket exceptions, so ``except ServiceError`` plus the ``retryable``
flag is the complete error-handling story.

By default :class:`CatalogClient` makes one attempt.  Its options add
the client half of the fault-tolerance contract: retries with
deterministic backoff jitter and a per-request deadline.  Retrying is
safe because every request carries the service's request-coalescing
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
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import quote, urlencode

from repro.io.digest import json_digest, sha256_hex
from repro.obs import get_tracer
from repro.serve.service import ServiceBusy, ServiceError, TransportError

__all__ = [
    "CatalogClient",
    "DeadlineExceeded",
    "RetryPolicy",
    "http_exchange",
    "idempotency_key",
]


def http_exchange(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[bytes],
    timeout: float,
) -> Tuple[int, bytes]:
    """One request on a fresh HTTP/1.0 connection: ``(status, raw body)``.

    Any failure to get a complete response — refused, reset, timed out,
    or a body shorter than its ``Content-Length`` — raises
    :class:`TransportError`; an HTTP error status is returned, not
    raised (the caller decides what it means).  The body is returned
    undecoded: the client decodes the JSON it uses, and the supervisor
    front forwards a worker's bytes as they are.
    """
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    where = f"{host}:{port}"
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            conn.request(method, path, body=body or None, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        except TimeoutError as exc:
            raise TransportError(
                f"no response from {where} within {timeout}s", exc
            ) from exc
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(
                f"{type(exc).__name__} talking to {where}: {exc}", exc
            ) from exc
    finally:
        conn.close()


def idempotency_key(
    system: str, domain: str, seed: int = 2024, faults: Optional[str] = None
) -> str:
    """The request's idempotency key: a digest of the service's
    request-coalescing identity.  Two calls with equal keys can never
    compute twice server-side (coalescing in flight, catalog after), so
    retrying under this key is always safe."""
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


class CatalogClient:
    """Blocking HTTP client for one service or supervised pool.

    Parameters
    ----------
    host / port:
        The endpoint.
    timeout:
        Per-attempt socket timeout (clamped to the remaining deadline).
    deadline:
        Per logical request time budget in seconds (``None``: each
        attempt is bounded by ``timeout`` alone).
    retry:
        The :class:`RetryPolicy`; only ``retryable`` errors are retried.
        ``None`` makes one attempt.
    clock / sleep / transport:
        Test seams: monotonic clock, sleep function, and an
        :func:`http_exchange`-shaped transport returning
        ``(status, raw JSON body)``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8752,
        timeout: float = 30.0,
        *,
        deadline: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        transport: Callable[..., Tuple[int, bytes]] = http_exchange,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.deadline = deadline
        self.retry = retry if retry is not None else RetryPolicy(max_attempts=1)
        self._clock = clock
        self._sleep = sleep
        self._transport = transport

    # -- plumbing ------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        *,
        key: Optional[Tuple] = None,
    ) -> Any:
        """One logical request: attempts with backoff under the deadline.
        ``key`` is the request's coalescing identity; the backoff jitter
        is hashed from it (or from the path) only when a retry actually
        waits."""
        data = json.dumps(body).encode() if body is not None else None
        deadline_at = None if self.deadline is None else self._clock() + self.deadline
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
            attempts += 1
            try:
                status, raw = self._transport(
                    self.host, self.port, method, path, data, timeout
                )
                try:
                    payload = json.loads(raw.decode() or "{}")
                except (UnicodeDecodeError, ValueError) as exc:
                    raise TransportError(
                        f"torn response from {self.host}:{self.port}", exc
                    ) from exc
                if status == 429:
                    raise ServiceBusy(int(payload.get("queue_limit", 0)) or 1)
                if status != 200:
                    raise ServiceError(status, payload)
                return payload
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

    # -- endpoints -----------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

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
        stale-marked answers pass through."""
        query: Dict[str, Any] = {"seed": seed}
        if faults is not None:
            query["faults"] = faults
        path = (
            f"/v1/metric/{quote(system, safe='')}/{quote(domain, safe='')}/"
            f"{quote(metric, safe='')}?{urlencode(query)}"
        )
        return self._request("GET", path, key=(system, domain, seed, faults))

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
        return self._request(
            "POST", "/v1/analyze", body, key=(system, domain, seed, faults)
        )["metrics"]

    def catalog_list(self, arch: Optional[str] = None) -> List[Dict[str, Any]]:
        path = "/v1/catalog"
        if arch is not None:
            path += "?" + urlencode({"arch": arch})
        return self._request("GET", path)["entries"]

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
        return self._request("GET", path)
