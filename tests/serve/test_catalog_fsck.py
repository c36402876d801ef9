"""Crash-consistency tests: failpoints, fsck, log compaction, staleness.

The failpoint seam on :class:`MetricCatalogStore` simulates the two
power-loss shapes a publication can tear into (a truncated version file
with no log record; a published file whose log append was lost) and the
tests assert ``fsck`` repairs each exactly as documented.
"""

import dataclasses
import json

import pytest

from repro.core.pipeline import AnalysisPipeline
from repro.hardware import aurora_node
from repro.io.cache import event_set_digest
from repro.serve.catalog import MetricCatalogStore, entries_from_result


@pytest.fixture(scope="module")
def entries():
    node = aurora_node(seed=7)
    result = AnalysisPipeline.for_domain("branch", node).run()
    return entries_from_result(
        result, arch=node.name, seed=7, events_digest=event_set_digest(node.events)
    )


@pytest.fixture(scope="module")
def tracked(entries):
    """``entries`` with one shared dependency map."""
    from repro.incr import domain_event_digests

    deps = domain_event_digests(aurora_node(seed=7).events, "branch")
    return [dataclasses.replace(e, event_digests=deps) for e in entries]


def _version_file(store, entry):
    _, entry_dir = store._key_paths(entry.arch, entry.metric, entry.config_digest)
    return entry_dir / f"v{entry.version:04d}.json"


class TestFailpoints:
    def test_torn_publication_is_unreadable_and_skipped(self, tmp_path, entries):
        fired = []

        def failpoint(site):
            fired.append(site)
            return "torn"

        store = MetricCatalogStore(tmp_path / "cat", failpoint=failpoint)
        result = store.put(entries[0])
        assert result.version == 0  # a torn publication is not an entry
        assert fired and fired[0].startswith("catalog.publish:")
        # Reads skip the torn file instead of crashing.
        assert (
            store.get(
                entries[0].arch, entries[0].metric, entries[0].config_digest
            )
            is None
        )

    def test_next_put_skips_past_torn_version(self, tmp_path, entries):
        actions = iter(["torn"])

        def failpoint(site):
            return next(actions, None)

        store = MetricCatalogStore(tmp_path / "cat", failpoint=failpoint)
        store.put(entries[0])  # torn v1
        stored = store.put(entries[0])  # clean retry
        assert stored.version == 2
        loaded = store.get(
            entries[0].arch, entries[0].metric, entries[0].config_digest
        )
        assert loaded is not None and loaded.version == 2

    def test_unlogged_publication_reads_fine_but_missing_from_log(
        self, tmp_path, entries
    ):
        store = MetricCatalogStore(tmp_path / "cat", failpoint=lambda s: "unlogged")
        stored = store.put(entries[0])
        assert stored.version == 1
        assert store.get(
            entries[0].arch, entries[0].metric, entries[0].config_digest
        ) is not None
        assert store.log_records() == []


class TestFsck:
    def test_clean_store_fscks_clean(self, tmp_path, entries):
        store = MetricCatalogStore(tmp_path / "cat")
        for entry in entries[:2]:
            store.put(entry)
        report = store.fsck()
        assert report.clean
        assert report.scanned == 2

    def test_torn_version_is_quarantined(self, tmp_path, entries):
        store = MetricCatalogStore(tmp_path / "cat", failpoint=lambda s: "torn")
        store.put(entries[0])
        report = MetricCatalogStore(tmp_path / "cat").fsck(repair=True)
        assert not report.clean
        assert len(report.quarantined) == 1
        quarantined = tmp_path / "cat" / "quarantine"
        assert any(quarantined.rglob("v0001.json"))
        # After repair the store fscks clean.
        assert MetricCatalogStore(tmp_path / "cat").fsck().clean

    def test_unlogged_version_is_relogged(self, tmp_path, entries):
        store = MetricCatalogStore(tmp_path / "cat", failpoint=lambda s: "unlogged")
        stored = store.put(entries[0])
        fresh = MetricCatalogStore(tmp_path / "cat")
        report = fresh.fsck(repair=True)
        assert len(report.relogged) == 1
        records = fresh.log_records()
        assert len(records) == 1
        assert records[0]["version"] == stored.version

    def test_torn_tail_and_unlogged_version_repair_in_one_pass(
        self, tmp_path, entries
    ):
        """Both damage shapes at once: rewriting the torn log tail must
        not discard the just-re-appended records of unlogged versions —
        a single fsck run leaves the store fully clean."""
        store = MetricCatalogStore(tmp_path / "cat", failpoint=lambda s: "unlogged")
        stored = store.put(entries[0])
        fresh = MetricCatalogStore(tmp_path / "cat")
        with (fresh.root / "log.jsonl").open("a") as fh:
            fh.write('{"arch": "half a rec')  # no newline: torn tail
        report = fresh.fsck(repair=True)
        assert len(report.relogged) == 1
        assert report.log_torn_lines == 1
        records = MetricCatalogStore(tmp_path / "cat").log_records()
        assert [r["version"] for r in records] == [stored.version]
        assert MetricCatalogStore(tmp_path / "cat").fsck().clean

    def test_staged_leftovers_are_removed(self, tmp_path, entries):
        store = MetricCatalogStore(tmp_path / "cat")
        stored = store.put(entries[0])
        staged = _version_file(store, stored).with_suffix(".json.staged")
        staged.write_text("half a publi")
        report = store.fsck(repair=True)
        assert report.staged_removed == [str(staged.relative_to(store.root))]
        assert not staged.exists()

    def test_entry_with_missing_or_torn_map_is_quarantined(
        self, tmp_path, tracked
    ):
        """Judged on disk: the store that wrote the map still holds it in
        memory, and fsck quarantines the entries anyway."""
        for damage in ("missing", "torn"):
            store = MetricCatalogStore(tmp_path / damage)
            stored = [store.put(entry) for entry in tracked]
            (blob,) = (tmp_path / damage / "deps").iterdir()
            if damage == "missing":
                blob.unlink()
            else:
                blob.write_bytes(blob.read_bytes()[:-7])
            report = store.fsck()
            versions = sorted(
                str(_version_file(store, e).relative_to(store.root)) for e in stored
            )
            torn_blob = [] if damage == "missing" else [f"deps/{blob.name}"]
            assert sorted(report.quarantined) == sorted(versions + torn_blob)
            assert len(report.orphaned_records) == len(tracked)
            assert not any((store.root / "entries").rglob("v*.json"))
            # A later put republishes the map and the entry.
            for entry in tracked:
                assert store.put(entry).version == 1
            fresh = MetricCatalogStore(store.root)
            got = fresh.get(tracked[0].arch, tracked[0].metric, tracked[0].config_digest)
            assert got.event_digests == tracked[0].event_digests
            assert fresh.fsck(repair=False).clean

    def test_staged_map_leftovers_are_removed(self, tmp_path, tracked):
        store = MetricCatalogStore(tmp_path)
        store.put(tracked[0])
        staged = tmp_path / "deps" / f".{'0' * 64}.1.2.staged"
        staged.write_text('{"E": ')
        report = store.fsck()
        assert report.staged_removed == [f"deps/{staged.name}"]
        assert not staged.exists()
        assert store.fsck(repair=False).clean

    def test_torn_log_tail_is_repaired(self, tmp_path, entries):
        store = MetricCatalogStore(tmp_path / "cat")
        store.put(entries[0])
        store.put(entries[1])
        with (store.root / "log.jsonl").open("a") as fh:
            fh.write('{"arch": "half a rec')  # no newline: torn tail
        fresh = MetricCatalogStore(tmp_path / "cat")
        assert len(fresh.log_records()) == 2  # tolerant read
        report = fresh.fsck(repair=True)
        assert report.log_torn_lines == 1
        # The log is now fully parseable again.
        lines = (store.root / "log.jsonl").read_text().splitlines()
        assert all(json.loads(line) for line in lines)
        assert fresh.fsck().clean

    def test_orphaned_log_records_are_reported(self, tmp_path, entries):
        store = MetricCatalogStore(tmp_path / "cat")
        stored = store.put(entries[0])
        _version_file(store, stored).unlink()
        report = MetricCatalogStore(tmp_path / "cat").fsck(repair=True)
        assert len(report.orphaned_records) == 1

    def test_report_is_json_serializable(self, tmp_path):
        report = MetricCatalogStore(tmp_path / "cat").fsck()
        json.dumps(dataclasses.asdict(report))


class TestCompaction:
    def test_drops_duplicates_and_dead_records(self, tmp_path, entries):
        store = MetricCatalogStore(tmp_path / "cat")
        stored = store.put(entries[0])
        store.put(entries[1])
        # Duplicate record for v1 plus a record for a deleted version.
        records = store.log_records()
        with (store.root / "log.jsonl").open("a") as fh:
            fh.write(json.dumps(records[0]) + "\n")
            dead = dict(records[0], version=99)
            fh.write(json.dumps(dead) + "\n")
        compaction = store.compact_log()
        assert compaction.records_before == 4
        assert compaction.records_after == 2
        assert compaction.dropped == 2
        survivors = {r["version"] for r in store.log_records()}
        assert survivors == {stored.version, 1}


class TestStaleLatest:
    def test_fresh_entry_is_served_with_age(self, tmp_path, entries):
        store = MetricCatalogStore(tmp_path / "cat")
        stored = store.put(entries[0])
        found = store.stale_latest(
            stored.arch, stored.metric, stored.config_digest, max_age=3600.0
        )
        assert found is not None
        entry, age = found
        assert entry.version == stored.version
        assert 0.0 <= age < 3600.0

    def test_age_bound_is_enforced(self, tmp_path, entries):
        import os
        import time

        store = MetricCatalogStore(tmp_path / "cat")
        stored = store.put(entries[0])
        old = time.time() - 100.0
        os.utime(_version_file(store, stored), (old, old))
        assert (
            store.stale_latest(
                stored.arch, stored.metric, stored.config_digest, max_age=10.0
            )
            is None
        )
        assert (
            store.stale_latest(
                stored.arch, stored.metric, stored.config_digest, max_age=500.0
            )
            is not None
        )

    def test_skips_torn_newest_version(self, tmp_path, entries):
        actions = iter([None, "torn"])
        store = MetricCatalogStore(
            tmp_path / "cat", failpoint=lambda s: next(actions, None)
        )
        first = store.put(entries[0])  # clean v1
        import dataclasses as dc

        changed = dc.replace(entries[0], error=entries[0].error * 2)
        store.put(changed)  # torn v2
        found = store.stale_latest(
            first.arch, first.metric, first.config_digest, max_age=3600.0
        )
        assert found is not None
        assert found[0].version == first.version

    def test_missing_key_returns_none(self, tmp_path):
        store = MetricCatalogStore(tmp_path / "cat")
        assert store.stale_latest("a", "m", "d", max_age=10.0) is None
