"""The serving tier's wire path: what a client receives, byte for byte.

The supervisor front forwards a worker's response body untouched and
answers its own replica reads from rendered entry text
(:class:`~repro.serve.http.RenderedEntries`), so every response must
still be exactly ``format_response(status, payload)`` of its payload —
the bytes the front sent when it re-encoded every answer.
"""

import asyncio
import dataclasses
import json
import socket
import sys
import threading
from unittest import mock
from urllib.parse import quote

import pytest

from repro.core.pipeline import AnalysisPipeline
from repro.hardware import aurora_node
from repro.io.cache import event_set_digest
from repro.serve import ServiceSupervisor, SupervisorConfig, SupervisorServer
from repro.serve.catalog import entries_from_result
from repro.serve.client import http_exchange
from repro.serve.http import RenderedEntries, format_response
from repro.serve.service import ServedMetric, TransportError

METRIC = "Mispredicted Branches."


def _raw_exchange(port, method, target, body=b""):
    """One request on a plain socket; every byte of the response."""
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
        head = f"{method} {target} HTTP/1.0\r\nContent-Length: {len(body)}\r\n\r\n"
        sock.sendall(head.encode() + body)
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _decoded(raw):
    """``(status, payload)`` of a raw response."""
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


@pytest.fixture(scope="module")
def entries():
    node = aurora_node(seed=7)
    result = AnalysisPipeline.for_domain("branch", node).run()
    return entries_from_result(
        result, arch=node.name, seed=7, events_digest=event_set_digest(node.events)
    )


class TestLiveTierBytes:
    def test_every_response_is_format_response_of_its_payload(self, tmp_path):
        """Analyze hit, fresh analyze, keyed read, front replica read, a
        404 and a structured 500, over a live supervised tier."""
        supervisor = ServiceSupervisor(
            str(tmp_path / "catalog"),
            cache_dir=str(tmp_path / "cache"),
            config=SupervisorConfig(workers=1, service_retries=0),
        )
        front = SupervisorServer(supervisor)
        analyze = json.dumps({"system": "aurora", "domain": "branch", "seed": 7})
        crash = json.dumps(
            {"system": "aurora", "domain": "branch", "seed": 7, "faults": "crash=1.0"}
        )
        requests = [
            ("fresh analyze", "POST", "/v1/analyze", analyze.encode()),
            ("analyze hit", "POST", "/v1/analyze", analyze.encode()),
            ("keyed read", "GET", f"/v1/metric/aurora/branch/{quote(METRIC)}?seed=8", b""),
            ("front read", "GET", f"/v1/metric/aurora/branch/{quote(METRIC)}?seed=7", b""),
            ("404", "GET", "/v1/metric/aurora/branch/Nope?seed=7", b""),
            ("500", "POST", "/v1/analyze", crash.encode()),
        ]

        async def body():
            port = await front.start()
            loop = asyncio.get_running_loop()
            answers = {}
            try:
                for name, method, target, data in requests:
                    before = supervisor.status()["front_serves"]
                    raw = await loop.run_in_executor(
                        None, _raw_exchange, port, method, target, data
                    )
                    served_by_front = supervisor.status()["front_serves"] > before
                    answers[name] = (raw, served_by_front)
            finally:
                await front.stop()
            return answers

        answers = asyncio.run(body())
        for name, (raw, _) in answers.items():
            status, payload = _decoded(raw)
            assert raw == format_response(status, payload), name
        statuses = {name: _decoded(raw)[0] for name, (raw, _) in answers.items()}
        assert statuses == {
            "fresh analyze": 200,
            "analyze hit": 200,
            "keyed read": 200,
            "front read": 200,
            "404": 404,
            "500": 500,
        }
        fresh = _decoded(answers["fresh analyze"][0])[1]["metrics"]
        hit = _decoded(answers["analyze hit"][0])[1]["metrics"]
        assert {p["source"] for p in fresh.values()} == {"pipeline"}
        assert {p["source"] for p in hit.values()} == {"catalog"}
        assert {n: p["coefficients_hex"] for n, p in hit.items()} == {
            n: p["coefficients_hex"] for n, p in fresh.items()
        }
        assert not answers["keyed read"][1] and answers["front read"][1]
        front_read = _decoded(answers["front read"][0])[1]
        assert front_read == hit[METRIC]
        assert _decoded(answers["500"][0])[1]["error_type"] == "InjectedWorkerCrash"


async def _fake_worker(reply):
    """A listener that reads one request and writes ``reply`` bytes."""

    async def handle(reader, writer):
        await reader.readuntil(b"\r\n\r\n")
        writer.write(reply)
        await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


TORN = b"HTTP/1.0 200 OK\r\nContent-Length: 100\r\n\r\n" + b'{"entries": ['


class TestTornWorkerResponse:
    def test_body_shorter_than_content_length_is_transport_error(self):
        async def body():
            server, port = await _fake_worker(TORN)
            try:
                with pytest.raises(TransportError):
                    await asyncio.get_running_loop().run_in_executor(
                        None, http_exchange, "127.0.0.1", port, "GET", "/v1/catalog",
                        None, 10.0,
                    )
            finally:
                server.close()

        asyncio.run(body())

    def test_worker_closing_mid_body_is_redispatched(self):
        """The front re-dispatches a torn response and forwards the next
        worker's bytes as they are."""
        good = format_response(200, {"entries": []})
        supervisor = ServiceSupervisor(config=SupervisorConfig(workers=2))

        async def body():
            servers = [await _fake_worker(good), await _fake_worker(TORN)]
            for slot, (_, port) in zip(supervisor.slots, servers):
                slot.state = "live"
                slot.port = port
                slot.process = mock.Mock(is_alive=lambda: True)
            try:
                # Round-robin sends the first attempt to the second slot:
                # the torn one.
                return await supervisor.dispatch("GET", "/v1/catalog", b"", timeout=10)
            finally:
                for server, _ in servers:
                    server.close()

        status, answer = asyncio.run(body())
        assert status == 200 and isinstance(answer, bytes)
        assert format_response(status, answer) == good
        assert supervisor.status()["redispatches"] == 1


class TestRenderedEntries:
    def _variants(self, entries):
        entry = entries[0]
        assert entry.health is not None
        return [
            entry,
            dataclasses.replace(entry, health=None),
            dataclasses.replace(entry, vet={"verdicts": {"E": "trusted"}, "campaign": 3}),
            dataclasses.replace(
                entry, provenance={"collector": "perf", "sources": ["a", "b"]}
            ),
            dataclasses.replace(entry, event_digests={"E2": "b" * 16, "E1": "a" * 16}),
        ]

    def test_text_is_sorted_json_of_the_payload(self, entries):
        rendered = RenderedEntries()
        for entry in self._variants(entries):
            for source in ("catalog", "pipeline"):
                served = ServedMetric(entry=entry, source=source)
                want = json.dumps(served.to_payload(), sort_keys=True)
                assert rendered.text(served) == want
                assert rendered.text(served) == want  # the cached text
                assert rendered.metric_body(served) == (want + "\n").encode()

    def test_analysis_body_matches_format_response(self, entries):
        rendered = RenderedEntries()
        odd = dataclasses.replace(entries[0], metric='Quote " and café')
        answers = {
            entry.metric: ServedMetric(entry=entry, source="catalog")
            for entry in list(entries) + [odd]
        }
        payload = {"metrics": {n: s.to_payload() for n, s in answers.items()}}
        assert format_response(200, rendered.analysis_body(answers)) == (
            format_response(200, payload)
        )
        assert rendered.analysis_body({}) == format_response(200, {"metrics": {}}).split(
            b"\r\n\r\n", 1
        )[1]

    def test_cache_is_keyed_by_the_entry_object(self, entries):
        rendered = RenderedEntries()
        entry = entries[0]
        twin = dataclasses.replace(entry)
        assert twin == entry and twin is not entry
        first = rendered.text(ServedMetric(entry=entry, source="catalog"))
        assert rendered.text(ServedMetric(entry=twin, source="catalog")) == first
        assert len(rendered._texts) == 2

    def test_stale_and_pipeline_answers_are_never_cached(self, entries):
        rendered = RenderedEntries()
        answers = [
            ServedMetric(entry=entries[0], source="catalog", stale=True, stale_age=age)
            for age in (1.0, 2.5)
        ] + [ServedMetric(entry=entries[0], source="pipeline")]
        for served in answers:
            assert rendered.text(served) == json.dumps(
                served.to_payload(), sort_keys=True
            )
        assert len(rendered._texts) == 0 and rendered._chars == 0

    def test_byte_bound_holds(self, entries, monkeypatch):
        text = RenderedEntries().text(ServedMetric(entry=entries[0], source="catalog"))
        assert len(text) == len(text.encode())  # ASCII: one byte a character
        monkeypatch.setattr(RenderedEntries, "_CAPACITY_CHARS", 3 * len(text))
        rendered = RenderedEntries()
        for entry in entries:
            rendered.text(ServedMetric(entry=entry, source="catalog"))
            assert rendered._chars <= RenderedEntries._CAPACITY_CHARS
            assert rendered._chars == sum(len(t) for _, t in rendered._texts.values())
        # The least recently rendered entries went first.
        assert 0 < len(rendered._texts) < len(entries)
        assert [e for e, _ in rendered._texts.values()][-1] is entries[-1]

    def test_concurrent_renders_keep_the_size_account(self, entries, monkeypatch):
        """Front replica reads render from executor threads: the size
        account must match the kept texts after racing inserts and
        evictions."""
        text = RenderedEntries().text(ServedMetric(entry=entries[0], source="catalog"))
        monkeypatch.setattr(RenderedEntries, "_CAPACITY_CHARS", 2 * len(text))
        rendered = RenderedEntries()
        copies = [dataclasses.replace(e) for e in entries for _ in range(4)]
        wants = [
            json.dumps(ServedMetric(entry=e, source="catalog").to_payload(), sort_keys=True)
            for e in copies
        ]
        wrong = []

        def render(offset):
            for i in range(200):
                k = (offset + i) % len(copies)
                served = ServedMetric(entry=copies[k], source="catalog")
                if rendered.text(served) != wants[k]:
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=render, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert rendered._chars == sum(len(t) for _, t in rendered._texts.values())
        assert rendered._chars <= RenderedEntries._CAPACITY_CHARS

    def test_capacity_holds_a_serving_hot_set(self):
        """The serve-mixed hot set (12 keys, frontier ``gpu_flops`` the
        largest at ~68 KB of text per entry) is ~1.4 MB of text."""
        assert RenderedEntries._CAPACITY_CHARS >= 1_500_000
