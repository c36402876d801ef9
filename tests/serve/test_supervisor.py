"""Tests for the supervised worker pool (real processes, real sockets).

These spin actual spawn-context worker processes, so they are the
slowest tests in the suite; each test covers several behaviours to keep
the process-spawn count down.
"""

import asyncio
import time
from unittest import mock

import pytest

from repro.core.pipeline import AnalysisPipeline
from repro.hardware import aurora_node
from repro.io.cache import event_set_digest
from repro.serve import (
    CatalogClient,
    MetricCatalogStore,
    RetryPolicy,
    ServiceSupervisor,
    SupervisorConfig,
    SupervisorServer,
)
from repro.serve import supervisor as supervisor_module
from repro.serve.catalog import entries_from_result
from repro.serve.service import request_identity

METRIC = "Mispredicted Branches."


def _await_status(supervisor, done, budget=30.0):
    """Poll ``supervisor.status()`` until ``done(status)`` holds."""
    deadline = time.time() + budget
    while time.time() < deadline:
        if done(supervisor.status()):
            return True
        time.sleep(0.2)
    return False


class TestSupervisorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(workers=0)
        with pytest.raises(ValueError):
            SupervisorConfig(restart_intensity=0)


class TestSupervisedServing:
    def test_pool_serves_survives_kill_and_degrades(self, tmp_path):
        """One pool exercise: serve -> SIGKILL one worker (request is
        re-dispatched, worker restarts within budget) -> kill every
        worker (a fully-fresh published key is still served fresh from
        the dispatcher's own catalog view; once freshness evidence
        fails, the answer degrades to an explicitly stale one)."""
        supervisor = ServiceSupervisor(
            str(tmp_path / "catalog"),
            cache_dir=str(tmp_path / "cache"),
            config=SupervisorConfig(
                workers=2,
                heartbeat_timeout=2.0,
                backoff_base=0.1,
                backoff_max=0.5,
                stale_max_age=3600.0,
            ),
        )
        front = SupervisorServer(supervisor)

        async def body():
            port = await front.start()
            client = CatalogClient(
                port=port, retry=RetryPolicy(max_attempts=6, backoff_base=0.05)
            )
            loop = asyncio.get_running_loop()

            def metric():
                return client.metric("aurora", "branch", METRIC)

            def status():
                return client._request("GET", "/supervisor/status")

            # 1. Healthy pool serves and publishes to the shared catalog.
            first = await loop.run_in_executor(None, metric)
            assert first["metric"] == METRIC
            assert first["stale"] is False
            payload = await loop.run_in_executor(None, status)
            assert payload["live"] == 2
            assert {w["state"] for w in payload["workers"]} == {"live"}

            # 2. SIGKILL one worker: the pool keeps serving, and the slot
            # restarts within budget.  kill() only sends the signal, so
            # wait for the death itself, then for the restart the
            # assertion below checks: a still-running victim would let
            # "2 live" hold before the supervisor ever saw it die.
            killed = supervisor.slots[0].process
            killed.kill()
            await loop.run_in_executor(None, killed.join, 30.0)
            assert killed.exitcode is not None
            second = await loop.run_in_executor(None, metric)
            assert second["stale"] is False
            assert second["metric"] == METRIC
            recovered = await loop.run_in_executor(
                None,
                _await_status,
                supervisor,
                lambda status: status["live"] >= 2
                and status["workers"][0]["restarts"] >= 1,
            )
            assert recovered, "killed worker did not restart within budget"
            assert supervisor.status()["workers"][0]["restarts"] >= 1

            # 3. Total outage: the key the pool published still carries
            # full freshness evidence, so the dispatcher's front-replica
            # read answers it *fresh* — no worker needed at all.
            for slot in supervisor.slots:
                slot.process.kill()
            await asyncio.sleep(0.1)
            third = await loop.run_in_executor(None, metric)
            assert third["stale"] is False
            assert third["source"] == "catalog"
            assert third["coefficients_hex"] == first["coefficients_hex"]
            assert supervisor.status()["front_serves"] >= 1

            # 4. Outage plus drifted registry evidence: the front read
            # refuses (evidence mismatch), no worker is live to
            # recompute, so the answer degrades to an *explicitly*
            # stale catalog read rather than an error or a lie.
            def drifted(system, domain, seed):
                arch, config_digest, _, _ = request_identity(system, domain, seed)
                return arch, config_digest, "0" * 16, {"drifted-event": "0" * 16}

            with mock.patch.object(supervisor_module, "request_identity", drifted):
                fourth = await loop.run_in_executor(None, metric)
            assert fourth["stale"] is True
            assert fourth["source"] == "catalog"
            assert fourth["stale_age_seconds"] >= 0.0
            assert fourth["degraded"] == "no live workers"
            # The definition itself is the one the pool published.
            assert fourth["coefficients_hex"] == first["coefficients_hex"]

            await front.stop()

        asyncio.run(body())

    def test_restart_intensity_cap_marks_slot_failed(self, tmp_path):
        supervisor = ServiceSupervisor(
            None,
            cache_dir=str(tmp_path / "cache"),
            config=SupervisorConfig(
                workers=1,
                heartbeat_timeout=2.0,
                backoff_base=0.05,
                backoff_max=0.1,
                restart_intensity=2,
                restart_window=60.0,
                worker_start_timeout=30.0,
            ),
        )
        supervisor._exit_after = 0.05  # test seam: workers self-destruct
        supervisor.start()
        try:
            deadline = time.time() + 60.0
            while time.time() < deadline:
                if supervisor.slots[0].state == "failed":
                    break
                time.sleep(0.2)
            assert supervisor.slots[0].state == "failed"
            # 2 allowed restarts + the tripping one.
            assert len(supervisor.slots[0].restarts) == 3
        finally:
            supervisor.stop()

    def test_startup_fsck_quarantines_torn_publication(self, tmp_path):
        node = aurora_node(seed=7)
        result = AnalysisPipeline.for_domain("branch", node).run()
        entries = entries_from_result(
            result,
            arch=node.name,
            seed=7,
            events_digest=event_set_digest(node.events),
        )
        torn_store = MetricCatalogStore(
            tmp_path / "catalog", failpoint=lambda s: "torn"
        )
        torn_store.put(entries[0])

        supervisor = ServiceSupervisor(
            str(tmp_path / "catalog"),
            cache_dir=str(tmp_path / "cache"),
            config=SupervisorConfig(workers=1),
        )
        supervisor.start()
        try:
            assert supervisor.fsck_report is not None
            assert len(supervisor.fsck_report.quarantined) == 1
            # And the repaired store now fscks clean.
            assert MetricCatalogStore(tmp_path / "catalog").fsck().clean
        finally:
            supervisor.stop()

    def test_stale_answer_matches_request_identity(self, tmp_path):
        """The degraded-mode catalog read answers for exactly the
        requested (system, domain, seed) — never an entry computed for
        another system or seed, and never for faulted requests (an
        unfaulted entry would be a wrong answer merely stamped stale)."""
        from dataclasses import replace
        from urllib.parse import quote

        from repro.core.pipeline import DOMAIN_CONFIGS

        node = aurora_node(seed=7)
        config = replace(DOMAIN_CONFIGS["branch"], use_measurement_cache=True)
        result = AnalysisPipeline.for_domain("branch", node, config=config).run()
        store = MetricCatalogStore(tmp_path / "catalog")
        for entry in entries_from_result(
            result,
            arch=node.name,
            seed=7,
            events_digest=event_set_digest(node.events),
        ):
            store.put(entry)

        supervisor = ServiceSupervisor(
            str(tmp_path / "catalog"),
            config=SupervisorConfig(workers=1, stale_max_age=3600.0),
        )
        target = f"/v1/metric/aurora/branch/{quote(METRIC)}?seed=7"
        answer = supervisor._stale_answer("GET", target)
        assert answer is not None
        assert answer["stale"] is True
        assert answer["metric"] == METRIC

        # A different seed is a different analysis.
        assert (
            supervisor._stale_answer(
                "GET", f"/v1/metric/aurora/branch/{quote(METRIC)}?seed=2024"
            )
            is None
        )
        # Another system's entries never answer for this one.
        assert (
            supervisor._stale_answer(
                "GET", f"/v1/metric/frontier/branch/{quote(METRIC)}?seed=7"
            )
            is None
        )
        # Unknown systems degrade to the 503 path, not a crash.
        assert (
            supervisor._stale_answer(
                "GET", f"/v1/metric/nope/branch/{quote(METRIC)}?seed=7"
            )
            is None
        )
        # Faulted requests must never get an unfaulted stale answer.
        assert (
            supervisor._stale_answer("GET", target + "&faults=kill%3D0.5")
            is None
        )

    def test_fresh_answer_serves_replica_reads_without_a_worker(
        self, tmp_path
    ):
        """The front-replica read: a keyed GET whose stored entry
        carries full freshness evidence is answered by the dispatcher
        itself — same check a worker's catalog hit makes — while any
        doubt (drifted registry evidence, other seed, faults, POSTs)
        falls through to the pool."""
        from dataclasses import replace
        from urllib.parse import quote

        from repro import obs
        from repro.core.pipeline import DOMAIN_CONFIGS

        node = aurora_node(seed=7)
        config = replace(DOMAIN_CONFIGS["branch"], use_measurement_cache=True)
        result = AnalysisPipeline.for_domain("branch", node, config=config).run()
        entries = entries_from_result(
            result,
            arch=node.name,
            seed=7,
            events_digest=event_set_digest(node.events),
        )

        supervisor = ServiceSupervisor(
            str(tmp_path / "catalog"),
            config=SupervisorConfig(workers=1, shards=2, stale_max_age=3600.0),
        )
        assert supervisor._store is not None
        # One entry published against a drifted (wrong) event registry;
        # the rest carry the genuine evidence.
        tampered = entries[1]
        supervisor._store.put(replace(tampered, events_digest="0" * 16))
        for entry in entries:
            if entry.metric != tampered.metric:
                supervisor._store.put(entry)

        target = f"/v1/metric/aurora/branch/{quote(METRIC)}?seed=7"
        with obs.tracing(seed=7) as tracer:
            answer = supervisor._fresh_answer("GET", target)
            assert answer is not None
            assert answer["metric"] == METRIC
            assert answer["stale"] is False
            assert answer["source"] == "catalog"
            assert tracer.counters["shard.front_serves"] == 1
        assert supervisor.status()["front_serves"] == 1

        # Drifted registry evidence is a miss, not a wrong answer.
        drifted = f"/v1/metric/aurora/branch/{quote(tampered.metric)}?seed=7"
        assert supervisor._fresh_answer("GET", drifted) is None
        # Another seed is another analysis; faulted requests and POSTs
        # never take the fast path.
        other_seed = f"/v1/metric/aurora/branch/{quote(METRIC)}?seed=2024"
        assert supervisor._fresh_answer("GET", other_seed) is None
        assert (
            supervisor._fresh_answer("GET", target + "&faults=kill%3D0.5")
            is None
        )
        assert supervisor._fresh_answer("POST", target) is None
        # Unknown systems degrade to dispatch, not a crash.
        assert (
            supervisor._fresh_answer(
                "GET", f"/v1/metric/nope/branch/{quote(METRIC)}?seed=7"
            )
            is None
        )

    def test_status_is_json_serializable(self, tmp_path):
        import json

        supervisor = ServiceSupervisor(
            str(tmp_path / "catalog"),
            config=SupervisorConfig(workers=1),
        )
        # Status must serialize even before start (no processes yet).
        json.dumps(supervisor.status())
