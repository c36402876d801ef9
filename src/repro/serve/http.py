"""Minimal stdlib HTTP front-end for the metric service.

A deliberately small HTTP/1.0 server over ``asyncio`` streams — no
framework, no dependency — exposing the service as JSON endpoints:

====================================================  =====================
``GET /healthz``                                      liveness: stats,
                                                      queue depth, obs
                                                      counters (always 200)
``GET /readyz``                                       readiness (200/503)
``GET /v1/metric/<system>/<domain>/<metric>``         one served definition
``POST /v1/analyze``                                  every metric of a
                                                      domain (JSON body:
                                                      system, domain,
                                                      seed, faults)
``GET /v1/catalog``                                   catalog summary rows
``GET /v1/catalog/<arch>/<metric>``                   stored entry /
                                                      history / diff
====================================================  =====================

``/v1/metric`` takes ``?seed=`` and ``?faults=`` query parameters;
``/v1/catalog/...`` takes ``?digest=`` (required when several config
digests exist), ``?version=``, ``?history=1``, and ``?diff=A..B``.
Metric segments are URL-encoded (metric names contain spaces).

Error envelope: every non-200 response is ``{"error": ..., ...}`` with
the HTTP status carrying the class — 400 validation, 404 unknown, 429
backpressure, 500 failed analysis, 503 not ready.  Connections are
closed after each response (HTTP/1.0 semantics): the clients this serves
are short-lived CLI/automation calls, not browsers.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from collections import OrderedDict
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, unquote, urlsplit

from repro.faults.chaos import ChaosInjector
from repro.guard.validate import ValidationError
from repro.serve.catalog import CatalogEntry
from repro.serve.service import MetricService, ServedMetric, ServiceError

__all__ = [
    "Body",
    "HttpMetricServer",
    "RenderedEntries",
    "answer_connection",
    "format_response",
    "parse_analysis",
    "run_server",
]

logger = logging.getLogger(__name__)

_MAX_REQUEST_BYTES = 1 << 20  # 1 MiB: analysis requests are tiny JSON


#: A route's answer: a payload to render, or a JSON body already
#: rendered exactly as :func:`format_response` would render one.
Body = Union[Dict[str, Any], bytes]


def format_response(status: int, payload: Body) -> bytes:
    """Render one HTTP/1.0 JSON response (a ``bytes`` payload is the
    rendered body, sent as is)."""
    body = (
        payload
        if isinstance(payload, bytes)
        else (json.dumps(payload, sort_keys=True) + "\n").encode()
    )
    reason = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        429: "Too Many Requests",
        500: "Internal Server Error",
        503: "Service Unavailable",
        504: "Gateway Timeout",
    }.get(status, "Error")
    head = (
        f"HTTP/1.0 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode()
    return head + body


class RenderedEntries:
    """Each served catalog entry's JSON text, rendered once per process.

    Catalog entries are immutable and the store's replica LRU hands out
    the same :class:`~repro.serve.catalog.CatalogEntry` object on every
    hit, so the text of ``ServedMetric(entry, "catalog").to_payload()``
    is kept in an LRU keyed by the entry object (held, and checked by
    identity).  Other answers are rendered every time: a stale answer's
    age changes, and a fresh pipeline answer is asked for again only by
    the requests coalesced onto it (its entry is the catalog's replica
    from then on).  The cache is bounded by total text size and holds
    a serving tier's hot set (12 keys of up to 7 metrics: ~1.4 MB).
    """

    #: Most characters of rendered text kept (ASCII: one byte each).
    _CAPACITY_CHARS = 2 << 20

    def __init__(self) -> None:
        self._texts: OrderedDict[int, Tuple[CatalogEntry, str]] = OrderedDict()
        self._chars = 0
        self._lock = threading.Lock()

    def text(self, served: ServedMetric) -> str:
        """``json.dumps(served.to_payload(), sort_keys=True)``."""
        if served.stale or served.source != "catalog":
            return json.dumps(served.to_payload(), sort_keys=True)
        key = id(served.entry)
        with self._lock:
            hit = self._texts.get(key)
            if hit is not None and hit[0] is served.entry:
                self._texts.move_to_end(key)
                return hit[1]
        text = json.dumps(served.to_payload(), sort_keys=True)
        with self._lock:
            old = self._texts.pop(key, None)
            if old is not None:
                self._chars -= len(old[1])
            self._texts[key] = (served.entry, text)
            self._chars += len(text)
            while self._chars > self._CAPACITY_CHARS:
                _, (_, evicted) = self._texts.popitem(last=False)
                self._chars -= len(evicted)
        return text

    def metric_body(self, served: ServedMetric) -> bytes:
        """The response body of one served metric."""
        return (self.text(served) + "\n").encode()

    def analysis_body(self, answers: Dict[str, ServedMetric]) -> bytes:
        """The response body ``{"metrics": {name: payload}}`` of an
        analysis, byte for byte what :func:`format_response` renders
        (sorted keys, default separators) from the cached texts."""
        items = ", ".join(
            f"{json.dumps(name)}: {self.text(answers[name])}"
            for name in sorted(answers)
        )
        return ('{"metrics": {' + items + "}}\n").encode()


def _split_target(target: str) -> Tuple[List[str], Dict[str, str]]:
    """A request target's unquoted path segments and query (last value
    per key)."""
    split = urlsplit(target)
    path = [unquote(p) for p in split.path.split("/") if p]
    return path, {k: v[-1] for k, v in parse_qs(split.query).items()}


def parse_analysis(
    method: str, target: str, body: bytes
) -> Optional[Tuple[str, str, Optional[str], int, Optional[str]]]:
    """``(system, domain, metric, seed, faults)`` of a keyed read
    ``GET /v1/metric/<system>/<domain>/<metric>`` or of an analysis
    ``POST /v1/analyze`` (``metric`` None); None for any other route.
    A wrong method raises a 405 and a malformed request a 400
    :class:`ServiceError` (or ``ValueError`` for a non-integer seed).
    Shared with the supervisor front, which routes on the same identity.
    """
    path, query = _split_target(target)
    if len(path) == 5 and path[:2] == ["v1", "metric"]:
        if method != "GET":
            raise ServiceError(405, {"error": "use GET for /v1/metric"})
        _, _, system, domain, metric = path
        seed = int(query.get("seed", 2024))
        return system, domain, metric, seed, query.get("faults")
    if path != ["v1", "analyze"]:
        return None
    if method != "POST":
        raise ServiceError(405, {"error": "use POST for /v1/analyze"})
    try:
        request = json.loads(body.decode() or "{}")
    except json.JSONDecodeError as exc:
        raise ServiceError(400, {"error": f"request body is not JSON: {exc}"})
    if "system" not in request or "domain" not in request:
        raise ServiceError(400, {"error": "body must name 'system' and 'domain'"})
    seed = int(request.get("seed", 2024))
    return request["system"], request["domain"], None, seed, request.get("faults")


async def answer_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    route: Callable[[str, str, bytes], Awaitable[Tuple[int, Body]]],
) -> None:
    """Answer one connection: read ``(method, target, body)``, respond
    with ``route``'s ``(status, payload)`` — a dict or an already
    rendered body; exceptions mapped onto the error envelope — and
    close.  An empty or garbled request line gets no response.  Shared
    with the supervisor front."""
    try:
        try:
            parts = (await reader.readline()).decode("latin-1").split()
            if len(parts) < 2:
                return
            content_length = 0
            while True:
                line = await reader.readline()
                if not line.strip():
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    try:
                        content_length = int(value.strip())
                    except ValueError:
                        content_length = 0
            if content_length > _MAX_REQUEST_BYTES:
                raise ServiceError(400, {"error": "request body too large"})
            body = await reader.readexactly(content_length) if content_length else b""
            status, payload = await route(parts[0].upper(), parts[1], body)
        except ServiceError as exc:
            status, payload = exc.status, exc.payload
        except (ValidationError, ValueError) as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 — a request must never kill the server
            logger.exception("unhandled error serving a request")
            status, payload = 500, {
                "error": str(exc),
                "error_type": type(exc).__name__,
            }
        writer.write(format_response(status, payload))
        await writer.drain()
    except (ConnectionError, BrokenPipeError):
        pass
    finally:
        writer.close()


class HttpMetricServer:
    """One bound listener serving a :class:`MetricService` over HTTP."""

    def __init__(
        self,
        service: MetricService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        chaos: Optional[ChaosInjector] = None,
        chaos_scope: str = "w0",
    ):
        self.service = service
        self.host = host
        self.port = port
        # Serve-layer chaos (see repro.faults.chaos): when set, each
        # accepted request consults the injector at site
        # ``request:<chaos_scope>:<ordinal>`` for socket drops, injected
        # latency, and loop-blocking hangs.
        self.chaos = chaos
        self.chaos_scope = chaos_scope
        self._accepted = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._rendered = RenderedEntries()

    async def start(self) -> int:
        """Start the service and the listener; returns the bound port."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    # -- request handling ---------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._accepted += 1
        site = f"request:{self.chaos_scope}:{self._accepted}"
        chaos = self.chaos
        if chaos is not None and chaos.enabled:
            if chaos.fires("socket-drop", site):
                writer.close()
                return
            delay = chaos.latency(site)
            if delay:
                await asyncio.sleep(delay)
            if chaos.fires("worker-hang", site):
                # Deliberately block the event loop: a wedged loop is the
                # pathology the supervisor's heartbeat must detect.
                time.sleep(chaos.config.hang_seconds)
        await answer_connection(reader, writer, self._route)

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Body]:
        path, query = _split_target(target)
        if path == ["healthz"]:
            return 200, self.service.health()
        if path == ["readyz"]:
            if self.service.ready:
                return 200, {"ready": True}
            return 503, {"ready": False, "error": "service is not ready"}

        request = parse_analysis(method, target, body)
        if request is not None:
            system, domain, metric, seed, faults = request
            if metric is not None:
                served = await self.service.get_metric(
                    system, domain, metric, seed=seed, faults=faults
                )
                return 200, self._rendered.metric_body(served)
            analyzed = await self.service.analyze(
                system, domain, seed=seed, faults=faults
            )
            return 200, self._rendered.analysis_body(analyzed)

        if path[:2] == ["v1", "catalog"]:
            return self._route_catalog(path[2:], query)

        return 404, {"error": f"no route for {method} {target.split('?')[0]}"}

    def _route_catalog(
        self, rest: list, query: Dict[str, str]
    ) -> Tuple[int, Dict[str, Any]]:
        store = self.service.store
        if store is None:
            return 404, {"error": "no catalog configured on this service"}
        if not rest:
            return 200, {"entries": store.list_entries(query.get("arch"))}
        if len(rest) != 2:
            return 404, {"error": "expected /v1/catalog/<arch>/<metric>"}
        arch, metric = rest
        digest = query.get("digest")
        if digest is None:
            digests = sorted(
                {
                    row["config_digest"]
                    for row in store.list_entries(arch)
                    if row["metric"] == metric
                }
            )
            if not digests:
                return 404, {
                    "error": f"no catalog entry for ({arch!r}, {metric!r})"
                }
            if len(digests) > 1:
                return 400, {
                    "error": "several config digests stored for this metric; "
                    "pick one with ?digest=",
                    "digests": digests,
                }
            digest = digests[0]
        if "diff" in query:
            a, _, b = query["diff"].partition("..")
            try:
                diff = store.diff(arch, metric, digest, int(a), int(b))
            except (KeyError, ValueError) as exc:
                return 404, {"error": str(exc)}
            return 200, {"diff": diff.render(), "identical": diff.identical}
        if query.get("history"):
            return 200, {
                "history": [
                    e.to_payload() for e in store.history(arch, metric, digest)
                ]
            }
        version = int(query["version"]) if "version" in query else None
        entry = store.get(arch, metric, digest, version=version)
        if entry is None:
            return 404, {
                "error": f"no catalog entry for ({arch!r}, {metric!r}, "
                f"{digest})"
            }
        return 200, entry.to_payload()


async def run_server(
    service: MetricService,
    host: str = "127.0.0.1",
    port: int = 8752,
    ready_message=None,
) -> None:
    """Serve until cancelled (the CLI wraps this in ``asyncio.run`` and
    translates Ctrl-C into a clean stop)."""
    server = HttpMetricServer(service, host=host, port=port)
    bound = await server.start()
    if ready_message is not None:
        ready_message(bound)
    try:
        await asyncio.Event().wait()  # sleep until cancelled
    finally:
        await server.stop()
