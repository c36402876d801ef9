"""Resilience tests for the sweep engine: structured errors, retries,
timeouts, and checkpoint/resume."""

import pickle
import threading
import time

import numpy as np
import pytest

from repro.core.sweep import (
    SweepCheckpoint,
    SweepEngine,
    SweepTask,
    expand_grid,
    result_digest,
)
from repro.faults import FaultConfig


def serial_engine(**kwargs):
    kwargs.setdefault("backoff", 0.0)
    return SweepEngine(executor="serial", **kwargs)


class TestStructuredErrors:
    def test_failure_preserves_type_and_traceback(self, monkeypatch):
        import repro.core.sweep as sweep_mod

        def boom(seed):
            raise KeyError("exotic failure")

        monkeypatch.setitem(sweep_mod.SWEEP_SYSTEMS, "aurora", boom)
        outcome = serial_engine(max_retries=0).run(
            [SweepTask("aurora", "branch")]
        )[0]
        assert not outcome.ok
        assert outcome.error_type == "KeyError"
        assert "exotic failure" in outcome.error
        assert "Traceback (most recent call last)" in outcome.traceback
        assert "boom" in outcome.traceback  # the failing frame is visible

    def test_injected_persistent_failure(self):
        task = SweepTask(
            "aurora",
            "branch",
            faults=FaultConfig(seed=3, run_failure_rate=1.0, transient=False),
        )
        outcome = serial_engine(max_retries=1).run([task])[0]
        assert not outcome.ok
        assert outcome.error_type == "TransientMeasurementError"
        assert outcome.attempts == 2  # initial + one retry


class TestRetries:
    def test_transient_crash_recovered_by_retry(self):
        task = SweepTask(
            "aurora", "branch", faults=FaultConfig(seed=3, crash_rate=1.0)
        )
        outcome = serial_engine(max_retries=1).run([task])[0]
        assert outcome.ok
        assert outcome.attempts == 2
        report = outcome.result.robustness
        crashes = [r for r in report.records if r.kind == "crash"]
        assert crashes and all(r.outcome == "recovered" for r in crashes)
        assert report.unaccounted() == []

    def test_no_retries_means_crash_is_fatal(self):
        task = SweepTask(
            "aurora", "branch", faults=FaultConfig(seed=3, crash_rate=1.0)
        )
        outcome = serial_engine(max_retries=0).run([task])[0]
        assert not outcome.ok
        assert outcome.error_type == "InjectedWorkerCrash"

    def test_retry_yields_same_artifacts_as_clean_run(self):
        clean = serial_engine().run([SweepTask("aurora", "branch")])[0]
        crashy = serial_engine(max_retries=1).run(
            [SweepTask("aurora", "branch", faults=FaultConfig(seed=3, crash_rate=1.0))]
        )[0]
        assert crashy.result.selected_events == clean.result.selected_events
        np.testing.assert_array_equal(
            crashy.result.measurement.data, clean.result.measurement.data
        )


class TestTimeout:
    def test_hung_task_times_out_and_retry_succeeds(self):
        # The injected hang (transient: attempt 0 only) exceeds the task
        # timeout; the engine abandons the attempt and the retry lands.
        task = SweepTask(
            "aurora",
            "branch",
            faults=FaultConfig(seed=3, hang_rate=1.0, hang_seconds=5.0),
        )
        engine = SweepEngine(
            executor="thread",
            max_workers=2,
            task_timeout=1.0,
            max_retries=1,
            backoff=0.0,
        )
        outcome = engine.run([task, SweepTask("frontier-cpu", "branch")])[0]
        assert outcome.ok
        assert outcome.attempts == 2
        hangs = [
            r for r in outcome.result.robustness.records if r.kind == "hang"
        ]
        assert hangs and all(r.outcome == "recovered" for r in hangs)

    def test_timeout_exhaustion_reports_structured_error(self):
        task = SweepTask(
            "aurora",
            "branch",
            faults=FaultConfig(
                seed=3, hang_rate=1.0, hang_seconds=5.0, transient=False
            ),
        )
        engine = SweepEngine(
            executor="thread",
            max_workers=2,
            task_timeout=0.5,
            max_retries=0,
        )
        outcome = engine.run([task, SweepTask("frontier-cpu", "branch")])[0]
        assert not outcome.ok
        assert outcome.error_type == "TimeoutError"

    def test_abandoned_thread_attempt_stops(self):
        # A thread attempt abandoned mid-hang must not wake up later and
        # run its pipeline in this process: its worker thread exits soon
        # after the engine returns, well before the 5 s hang would end.
        before = set(threading.enumerate())
        hang = FaultConfig(seed=3, hang_rate=1.0, hang_seconds=5.0, transient=False)
        engine = SweepEngine(
            executor="thread", max_workers=2, task_timeout=0.5, max_retries=0
        )
        outcomes = engine.run(
            [
                SweepTask("aurora", "branch", faults=hang),
                SweepTask("frontier-cpu", "branch", faults=hang),
            ]
        )
        assert [o.error_type for o in outcomes] == ["TimeoutError"] * 2
        workers = [t for t in threading.enumerate() if t not in before]
        deadline = time.monotonic() + 1.0
        for thread in workers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not [t.name for t in workers if t.is_alive()]

    def test_attempt_cancelled_before_its_run_builds_no_node(self, monkeypatch):
        # An attempt abandoned after its hang ended but before it built its
        # node stops there instead of running a pipeline.
        import repro.core.sweep as sweep_mod

        def build(seed):
            raise AssertionError("a cancelled attempt built its node")

        monkeypatch.setitem(sweep_mod.SWEEP_SYSTEMS, "aurora", build)
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(TimeoutError, match="abandoned before its run"):
            sweep_mod._execute_task(SweepTask("aurora", "branch"), 0, cancel)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            SweepEngine(task_timeout=0)


class TestCheckpointResume:
    def test_resume_skips_completed_tasks(self, tmp_path):
        tasks = expand_grid(["aurora"], ["branch", "cpu_flops"])
        engine = serial_engine()
        first = engine.run(tasks, checkpoint_dir=tmp_path)
        assert all(o.ok and not o.resumed for o in first)
        second = engine.run(tasks, checkpoint_dir=tmp_path)
        assert all(o.resumed for o in second)
        for a, b in zip(first, second):
            assert result_digest(a.result) == result_digest(b.result)

    def test_partial_checkpoint_resumes_the_rest(self, tmp_path):
        tasks = expand_grid(["aurora"], ["branch", "cpu_flops"])
        engine = serial_engine()
        engine.run([tasks[0]], checkpoint_dir=tmp_path)
        outcomes = engine.run(tasks, checkpoint_dir=tmp_path)
        assert [o.resumed for o in outcomes] == [True, False]
        assert all(o.ok for o in outcomes)

    def test_corrupt_checkpoint_rerun_not_crash(self, tmp_path):
        tasks = expand_grid(["aurora"], ["branch"])
        engine = serial_engine()
        engine.run(tasks, checkpoint_dir=tmp_path)
        for pkl in tmp_path.glob("*.pkl"):
            pkl.write_bytes(b"not a pickle")
        outcomes = engine.run(tasks, checkpoint_dir=tmp_path)
        assert outcomes[0].ok and not outcomes[0].resumed

    def test_failures_are_not_checkpointed(self, tmp_path):
        task = SweepTask(
            "aurora",
            "branch",
            faults=FaultConfig(seed=3, run_failure_rate=1.0, transient=False),
        )
        engine = serial_engine(max_retries=0)
        assert not engine.run([task], checkpoint_dir=tmp_path)[0].ok
        assert not list(tmp_path.glob("*.pkl"))

    def test_fingerprint_isolates_configurations(self, tmp_path):
        """A checkpoint written under one fault universe must not be
        replayed under another."""
        plain = SweepTask("aurora", "branch")
        faulted = SweepTask(
            "aurora", "branch", faults=FaultConfig(seed=9, dropout_rate=0.05)
        )
        assert plain.fingerprint() != faulted.fingerprint()
        engine = serial_engine()
        engine.run([plain], checkpoint_dir=tmp_path)
        outcome = engine.run([faulted], checkpoint_dir=tmp_path)[0]
        assert not outcome.resumed

    def test_checkpoint_roundtrip_preserves_outcome(self, tmp_path):
        engine = serial_engine()
        outcome = engine.run([SweepTask("aurora", "branch")])[0]
        checkpoint = SweepCheckpoint(tmp_path)
        checkpoint.store(outcome)
        loaded = checkpoint.load(outcome.task)
        assert loaded is not None
        assert result_digest(loaded.result) == result_digest(outcome.result)


class TestSharedCacheCorruption:
    def test_cross_task_corruption_is_never_silent(self, tmp_path):
        """With a shared cache dir, the task that corrupts an entry and
        the task whose read quarantines it are usually different; the
        merged audit (quarantine union + fsck) must settle every record."""
        from repro.faults import merge_reports
        from repro.io.cache import MeasurementCache

        cache_dir = str(tmp_path / "cache")
        tasks = expand_grid(["aurora"], ["branch", "cpu_flops"], cache_dir=cache_dir)
        serial_engine().run(tasks)  # prime: every entry exists on disk
        faulted = expand_grid(
            ["aurora"],
            ["branch", "cpu_flops"],
            cache_dir=cache_dir,
            faults=FaultConfig(seed=7, cache_corruption_rate=1.0),
        )
        outcomes = serial_engine().run(faulted)
        assert all(o.ok for o in outcomes)
        merged = merge_reports(o.result.robustness for o in outcomes)
        corruption = [r for r in merged.records if r.kind == "cache-corruption"]
        assert corruption  # rate 1.0 over a primed cache must fire
        if merged.unaccounted():  # entries corrupted after their last read
            fsck = MeasurementCache(root=cache_dir)
            merged.cache_quarantined.extend(fsck.verify_all())
            merged.mark_cache_recovered(merged.cache_quarantined)
        assert merged.unaccounted() == []

    def test_corrupted_shared_cache_yields_clean_artifacts(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        clean = serial_engine().run(expand_grid(["aurora"], ["branch"]))[0]
        tasks = expand_grid(
            ["aurora"],
            ["branch"],
            cache_dir=cache_dir,
            faults=FaultConfig(seed=7, cache_corruption_rate=1.0),
        )
        serial_engine().run(tasks)  # populate, corrupting along the way
        outcome = serial_engine().run(tasks)[0]  # read back through quarantine
        assert outcome.ok
        assert result_digest(outcome.result) == result_digest(clean.result)


class TestDigest:
    def test_digest_stable_across_executors(self):
        tasks = expand_grid(["aurora"], ["branch"])
        serial = serial_engine().run(tasks)[0]
        threaded = SweepEngine(executor="thread", max_workers=2).run(
            tasks + expand_grid(["frontier-cpu"], ["branch"])
        )[0]
        assert result_digest(serial.result) == result_digest(threaded.result)

    def test_digest_sensitive_to_seed(self):
        a = serial_engine().run([SweepTask("aurora", "branch", seed=1)])[0]
        b = serial_engine().run([SweepTask("aurora", "branch", seed=2)])[0]
        assert result_digest(a.result) != result_digest(b.result)

    def test_outcome_pickles(self):
        # Outcomes cross process boundaries and land in checkpoints.
        outcome = serial_engine().run([SweepTask("aurora", "branch")])[0]
        blob = pickle.dumps(outcome)
        assert pickle.loads(blob).task.label == "aurora:branch"
