"""Unit tests for the client's resilience options: retry, breaker,
deadline, hedging.

Everything socket-free: the transport seam injects scripted responses,
and clock/sleep are simulated so backoff and deadline behaviour is
exact and instant.
"""

import threading
import time

import pytest

from repro import obs
from repro.serve import client as client_module
from repro.serve.client import (
    BreakerOpen,
    CatalogClient,
    CircuitBreaker,
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
    """Build a CatalogClient over scripted per-port transports."""
    clock = clock or FakeClock()
    (host, primary), *replicas = [("127.0.0.1", port) for port in sorted(scripts)]
    calls = []

    def transport(host, port, method, path, body, timeout):
        calls.append((port, timeout))
        return _scripted(scripts[port], clock)

    client = CatalogClient(
        host,
        primary,
        replicas=replicas,
        clock=clock.time,
        sleep=clock.sleep,
        transport=transport,
        **kwargs,
    )
    return client, calls, clock


def _transport_error():
    return TransportError("connection refused", ConnectionRefusedError())


def _by_port(**answers):
    """A transport answering each port with its own function."""

    def transport(host, port, method, path, body, timeout):
        return answers[f"p{port}"]()

    return transport


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


class TestCircuitBreaker:
    def test_trips_after_threshold_and_half_opens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, reset_after=5.0, clock=clock.time
        )
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.open_for == pytest.approx(5.0)
        clock.sleep(5.1)
        assert breaker.allow()  # the half-open probe
        assert breaker.state == "half-open"
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after=2.0, clock=clock.time
        )
        breaker.record_failure()
        clock.sleep(2.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_counters(self):
        with obs.tracing(seed=0) as trace:
            clock = FakeClock()
            breaker = CircuitBreaker(
                failure_threshold=1, reset_after=1.0, clock=clock.time
            )
            breaker.record_failure()
            clock.sleep(1.1)
            breaker.allow()
            breaker.record_success()
        assert trace.counters["breaker.opened"] == 1
        assert trace.counters["breaker.half_open"] == 1
        assert trace.counters["breaker.closed"] == 1


class TestResilientCall:
    def test_default_is_one_attempt_without_digest_or_pool(self, monkeypatch):
        """A plain ``CatalogClient(port=...)`` makes exactly one attempt
        and raises what the transport raised — no backoff sleep, no
        idempotency digest, no thread pool on the way."""

        def forbidden(*args, **kwargs):
            raise AssertionError("one-attempt path must not call this")

        monkeypatch.setattr(client_module, "idempotency_key", forbidden)
        monkeypatch.setattr(client_module, "ThreadPoolExecutor", forbidden)
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

    def test_rotates_endpoints_across_attempts(self):
        client, calls, _ = _client(
            {9001: [_transport_error()], 9002: [{"metric": "m"}]},
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
        )
        assert client.metric("aurora", "branch", "m") == {"metric": "m"}
        assert [port for port, _ in calls] == [9001, 9002]

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

    def test_breaker_fast_fails_after_repeated_failures(self):
        client, calls, _ = _client(
            {9001: [_transport_error()] * 10},
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01),
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=2, reset_after=60.0
            ),
        )
        with pytest.raises(TransportError):
            client.metric("aurora", "branch", "m")
        transport_calls = len(calls)
        with pytest.raises(BreakerOpen) as err:
            client.metric("aurora", "branch", "m")
        assert len(calls) == transport_calls  # no socket touched
        assert err.value.retryable

    def test_application_errors_do_not_trip_breaker(self):
        client, _, _ = _client(
            {9001: [(404, {"error": "nope"})] * 3},
            breaker_factory=lambda: CircuitBreaker(failure_threshold=1),
        )
        for _ in range(3):
            with pytest.raises(ServiceError):
                client.metric("aurora", "branch", "m")
        assert client.breaker(("127.0.0.1", 9001)).state == "closed"

    def test_unexpected_exception_does_not_brick_half_open_breaker(self):
        """A non-ServiceError raised during the half-open probe (a bug
        in the transport, say) must still settle the breaker — a leaked
        probe would leave allow() False forever."""
        clock = FakeClock()
        client, _, clock = _client(
            {9001: [_transport_error(), RuntimeError("transport bug"), "ok"]},
            clock=clock,
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=1, reset_after=5.0, clock=clock.time
            ),
        )
        breaker = client.breaker(("127.0.0.1", 9001))
        with pytest.raises(ServiceError):
            client.metric("aurora", "branch", "m")  # trips the breaker
        assert breaker.state == "open"
        clock.sleep(5.1)
        with pytest.raises(RuntimeError):
            client.metric("aurora", "branch", "m")  # probe blows up
        # The failed probe re-opened the breaker instead of wedging it
        # half-open: after another reset window a new probe is admitted
        # and its success re-closes the breaker.
        assert breaker.state == "open"
        clock.sleep(5.1)
        assert client.metric("aurora", "branch", "m")["ok"] == "ok"
        assert breaker.state == "closed"

    def test_accept_stale_false_rejects_stale_payloads(self):
        stale = {"metric": "m", "stale": True, "stale_age_seconds": 5.0}
        client, _, _ = _client({9001: [stale]}, accept_stale=False)
        with pytest.raises(ServiceError) as err:
            client.metric("aurora", "branch", "m")
        assert err.value.status == 503
        assert err.value.payload["stale"] is True

    def test_accept_stale_true_passes_stale_through(self):
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


class TestHedging:
    def test_hedge_fires_after_delay_and_first_success_wins(self):
        release = threading.Event()

        def slow_primary():
            release.wait(timeout=5.0)
            return 200, {"metric": "m", "from": "primary"}

        client = CatalogClient(
            "127.0.0.1",
            9001,
            replicas=[("127.0.0.1", 9002)],
            transport=_by_port(
                p9001=slow_primary,
                p9002=lambda: (200, {"metric": "m", "from": "replica"}),
            ),
            hedge_delay=0.05,
        )
        with obs.tracing(seed=0) as trace:
            payload = client.metric("aurora", "branch", "m")
        release.set()
        assert payload["from"] == "replica"
        assert trace.counters["client.hedged_reads"] == 1

    def test_fast_primary_skips_the_hedge(self):
        ports = []

        def transport(host, port, method, path, body, timeout):
            ports.append(port)
            return 200, {"metric": "m"}

        client = CatalogClient(
            "127.0.0.1",
            9001,
            replicas=[("127.0.0.1", 9002)],
            transport=transport,
            hedge_delay=0.5,
        )
        client.metric("aurora", "branch", "m")
        assert ports == [9001]

    def test_winner_returns_without_waiting_for_the_loser(self):
        """The hedge's latency benefit: a hung primary must not block
        the caller once the replica has answered (the loser keeps
        running in its thread and is discarded)."""
        release = threading.Event()
        loser_finished = threading.Event()

        def hung_primary():
            release.wait(timeout=30.0)
            loser_finished.set()
            return 200, {"metric": "m", "from": "primary"}

        client = CatalogClient(
            "127.0.0.1",
            9001,
            replicas=[("127.0.0.1", 9002)],
            transport=_by_port(
                p9001=hung_primary,
                p9002=lambda: (200, {"metric": "m", "from": "replica"}),
            ),
            hedge_delay=0.05,
        )
        start = time.monotonic()
        payload = client.metric("aurora", "branch", "m")
        elapsed = time.monotonic() - start
        release.set()
        assert payload["from"] == "replica"
        assert not loser_finished.is_set()  # returned while it still hung
        assert elapsed < 5.0

    def test_hedged_total_failure_raises_first_error(self):
        def broken(host, port, method, path, body, timeout):
            raise TransportError("down", None)

        client = CatalogClient(
            "127.0.0.1",
            9001,
            replicas=[("127.0.0.1", 9002)],
            transport=broken,
            retry=RetryPolicy(max_attempts=1),
            hedge_delay=0.01,
        )
        with pytest.raises(TransportError):
            client.metric("aurora", "branch", "m")


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
