"""The serve-layer chaos property tests.

The drill's invariant (every response bit-identical to the fault-free
answer, explicitly stale, or a typed error) and its zero-fault
degenerate case (supervised multi-worker serving is bit-identical to
single-service serving) are the acceptance criteria of the resilience
tier — see docs/serving.md.
"""

from repro.serve import SupervisorConfig, run_chaos_drill
from repro.serve.chaos import definition_digest


class TestDefinitionDigest:
    def test_ignores_serving_metadata(self):
        base = {"metric": "m", "coefficients_hex": "ab", "error": 1e-9}
        dressed = dict(
            base,
            source="catalog",
            stale=True,
            stale_age_seconds=4.2,
            version=7,
            trace_digest="deadbeef",
        )
        assert definition_digest(base) == definition_digest(dressed)

    def test_sees_definition_changes(self):
        a = {"metric": "m", "coefficients_hex": "ab"}
        b = {"metric": "m", "coefficients_hex": "ac"}
        assert definition_digest(a) != definition_digest(b)


def _drill_config(workers=2, shards=0):
    return SupervisorConfig(
        workers=workers,
        shards=shards,
        heartbeat_timeout=1.5,
        backoff_base=0.1,
        backoff_max=0.5,
        restart_intensity=10,
        stale_max_age=3600.0,
    )


class TestChaosDrill:
    def test_zero_fault_drill_is_bit_identical(self, tmp_path):
        """The equivalence property: with nothing injected, the
        supervised multi-worker path answers bit-identically to a plain
        single service — same definitions, nothing stale, no errors."""
        report = run_chaos_drill(
            str(tmp_path / "catalog"),
            chaos_spec="seed=1",
            cache_dir=str(tmp_path / "cache"),
            requests=4,
            config=_drill_config(),
            recovery_budget=20.0,
        )
        assert report.ok, report.violations
        assert report.stale == 0
        assert report.typed_errors == 0
        assert report.identical > 0
        assert report.fsck is not None and report.fsck.clean

    def test_zero_fault_sharded_drill_checks_the_shards(self, tmp_path):
        """On a sharded root the post-mortem fsck and per-entry sweep
        read the shard directories, not the empty top level."""
        report = run_chaos_drill(
            str(tmp_path / "catalog"),
            chaos_spec="seed=1",
            cache_dir=str(tmp_path / "cache"),
            requests=2,
            config=_drill_config(shards=2),
            recovery_budget=20.0,
        )
        assert report.ok, report.violations
        assert report.identical > 0
        assert report.fsck is not None and report.fsck.clean
        assert report.fsck.scanned > 0

    def test_faulted_drill_upholds_invariant(self, tmp_path):
        """Under worker kills, hangs, torn publications, socket drops,
        and latency, every response is still bit-identical / stale / a
        typed error, the pool recovers within budget, and fsck leaves
        no corruption behind."""
        report = run_chaos_drill(
            str(tmp_path / "catalog"),
            chaos_spec=(
                "seed=7,kill=0.25,hang=0.15,torn=0.5,unlogged=0.2,"
                "drop=0.2,latency=0.3,latency_seconds=0.05,hang_seconds=2.5"
            ),
            cache_dir=str(tmp_path / "cache"),
            requests=6,
            config=_drill_config(),
            recovery_budget=30.0,
        )
        assert report.ok, report.violations
        assert report.identical > 0
        # Chaos actually bit: at this torn rate the shared catalog must
        # show quarantined publications after the run.
        assert report.fsck is not None
        assert len(report.fsck.quarantined) + len(report.fsck.relogged) > 0
