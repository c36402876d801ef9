"""Unit tests for the client's resilience options: retry and deadline.

Everything socket-free: the transport seam injects scripted responses,
and clock/sleep are simulated so backoff and deadline behaviour is
exact and instant.
"""

import threading

import pytest

from repro.serve import client as client_module
from repro.serve.client import (
    CatalogClient,
    DeadlineExceeded,
    RetryPolicy,
    idempotency_key,
)
from repro.serve.service import ServiceError, TransportError


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def time(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def _scripted(script, clock):
    """Pop the next scripted behaviour: an exception is raised (after a
    simulated 10 ms), a ``(status, payload)`` pair is returned as is, a
    dict is a 200 payload, anything else a 200 ``{"ok": value}``."""
    action = script.pop(0) if script else "ok"
    if isinstance(action, Exception):
        clock.sleep(0.01)
        raise action
    if isinstance(action, tuple):
        return action
    if isinstance(action, dict):
        return 200, action
    return 200, {"metric": "m", "ok": action}


def _client(scripts, clock=None, **kwargs):
    """Build a CatalogClient over a scripted per-port transport."""
    clock = clock or FakeClock()
    [port] = scripts
    calls = []

    def transport(host, port, method, path, body, timeout):
        calls.append((port, timeout))
        return _scripted(scripts[port], clock)

    client = CatalogClient(
        "127.0.0.1",
        port,
        clock=clock.time,
        sleep=clock.sleep,
        transport=transport,
        **kwargs,
    )
    return client, calls, clock


def _transport_error():
    return TransportError("connection refused", ConnectionRefusedError())


class TestRetryPolicy:
    def test_delay_is_deterministic_per_key(self):
        policy = RetryPolicy()
        assert policy.delay("k", 2) == policy.delay("k", 2)
        assert policy.delay("k", 2) != policy.delay("other", 2)

    def test_delay_doubles_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.4)
        # jitter keeps each delay within [base/2, base)
        for attempt, base in ((1, 0.1), (2, 0.2), (3, 0.4), (9, 0.4)):
            delay = policy.delay("k", attempt)
            assert base / 2 <= delay < base

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestIdempotencyKey:
    def test_matches_coalescing_identity(self):
        base = idempotency_key("aurora", "branch", 7, None)
        assert base == idempotency_key("aurora", "branch", 7, None)
        assert base != idempotency_key("aurora", "branch", 8, None)
        assert base != idempotency_key("aurora", "cache", 7, None)
        assert base != idempotency_key("aurora", "branch", 7, "crash=1.0")


class TestResilientCall:
    def test_default_is_one_attempt_without_digest_or_pool(self, monkeypatch):
        """A plain ``CatalogClient(port=...)`` makes exactly one attempt
        and raises what the transport raised — no backoff sleep, no
        idempotency digest, no thread pool on the way."""

        def forbidden(*args, **kwargs):
            raise AssertionError("one-attempt path must not call this")

        monkeypatch.setattr(client_module, "idempotency_key", forbidden)
        # The client no longer imports a pool at all; patching the name
        # anyway keeps the guard if one ever comes back.
        monkeypatch.setattr(
            client_module, "ThreadPoolExecutor", forbidden, raising=False
        )
        client, calls, clock = _client({9001: [_transport_error(), {"metric": "m"}]})
        with pytest.raises(TransportError):
            client.metric("aurora", "branch", "m")
        assert len(calls) == 1
        assert clock.now == pytest.approx(0.01)  # the attempt itself, no sleep
        assert client.metric("aurora", "branch", "m") == {"metric": "m"}

    def test_retries_transport_errors_until_success(self):
        client, calls, _ = _client(
            {9001: [_transport_error(), _transport_error(), {"metric": "m"}]},
            retry=RetryPolicy(max_attempts=4, backoff_base=0.01),
        )
        payload = client.metric("aurora", "branch", "m")
        assert payload == {"metric": "m"}
        assert len(calls) == 3

    def test_non_retryable_errors_raise_immediately(self):
        client, calls, _ = _client(
            {9001: [(404, {"error": "no such metric"})]},
            retry=RetryPolicy(max_attempts=4, backoff_base=0.01),
        )
        with pytest.raises(ServiceError) as err:
            client.metric("aurora", "branch", "m")
        assert err.value.status == 404
        assert len(calls) == 1

    def test_exhausted_retries_raise_last_error(self):
        client, _, _ = _client(
            {9001: [_transport_error()] * 5},
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
        )
        with pytest.raises(TransportError):
            client.metric("aurora", "branch", "m")

    def test_deadline_exceeded_is_typed_504(self):
        clock = FakeClock()
        client, _, _ = _client(
            {9001: [_transport_error()] * 100},
            clock=clock,
            retry=RetryPolicy(max_attempts=100, backoff_base=0.5, backoff_cap=0.5),
            deadline=1.0,
        )
        with pytest.raises(DeadlineExceeded) as err:
            client.metric("aurora", "branch", "m")
        assert err.value.status == 504
        assert err.value.retryable

    def test_attempt_timeout_clamped_to_remaining_deadline(self):
        clock = FakeClock()
        client, calls, _ = _client(
            {9001: [{"metric": "m"}]},
            clock=clock,
            timeout=30.0,
            deadline=2.0,
        )
        client.metric("aurora", "branch", "m")
        assert calls[0][1] <= 2.0

    def test_stale_answers_pass_through(self):
        stale = {"metric": "m", "stale": True}
        client, _, _ = _client({9001: [stale]})
        assert client.metric("aurora", "branch", "m") == stale

    def test_status_codes_map_to_typed_errors(self):
        client, _, _ = _client(
            {9001: [(429, {"queue_limit": 8}), (500, {"error": "boom"})]}
        )
        with pytest.raises(ServiceError) as busy:
            client.analyze("aurora", "branch")
        assert busy.value.status == 429 and busy.value.retryable
        with pytest.raises(ServiceError) as failed:
            client.analyze("aurora", "branch")
        assert failed.value.status == 500 and not failed.value.retryable


class TestClientTransportTyping:
    """S1: raw socket failures surface as typed, retryable errors."""

    def test_connection_refused_is_transport_error(self):
        from repro.serve.client import CatalogClient

        # An unbound localhost port: connect must fail fast.
        client = CatalogClient("127.0.0.1", 1, timeout=2.0)
        with pytest.raises(TransportError) as err:
            client.health()
        assert err.value.status == 503
        assert err.value.retryable
        assert "transport failure" in err.value.payload["error"]

    def test_torn_response_is_transport_error(self):
        import socket

        from repro.serve.client import CatalogClient

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def serve_garbage():
            conn, _ = listener.accept()
            conn.recv(1024)
            conn.sendall(b"HTTP/1.0 200 OK\r\nContent-Length: 8\r\n\r\n{\"trunc")
            conn.close()

        thread = threading.Thread(target=serve_garbage, daemon=True)
        thread.start()
        client = CatalogClient("127.0.0.1", port, timeout=5.0)
        with pytest.raises(TransportError):
            client.health()
        thread.join(timeout=5.0)
        listener.close()

    def test_retryable_flag_contract(self):
        assert TransportError("x", None).retryable
        assert ServiceError(429, {}).retryable
        assert ServiceError(503, {}).retryable
        assert not ServiceError(404, {}).retryable
        assert ServiceError(500, {"retry": True}).retryable
