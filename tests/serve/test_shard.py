"""Tests for consistent-hash catalog sharding.

The ring's guarantees are held as hypothesis properties (deterministic
routes, balance within bound, minimal remap on reshard); the store
tests prove a sharded :class:`MetricCatalogStore` root behaves like an
unsharded one — routing, the same listing, the same bytes in each
shard directory, per-shard degradation of fan-outs, and replica
invalidation on the events-registry digest.
"""

import dataclasses
import functools
import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.pipeline import AnalysisPipeline
from repro.hardware import aurora_node
from repro.io.cache import event_set_digest
from repro.serve import MetricCatalogStore, ShardRing, shard_names

_KEYS = st.tuples(
    st.text(min_size=1, max_size=12), st.text(min_size=1, max_size=24)
)


@pytest.fixture(scope="module")
def node():
    return aurora_node(seed=7)


@pytest.fixture(scope="module")
def entries(node):
    from repro.serve.catalog import entries_from_result

    result = AnalysisPipeline.for_domain("branch", node).run()
    return entries_from_result(
        result, arch=node.name, seed=7, events_digest=event_set_digest(node.events)
    )


class TestShardNames:
    def test_canonical_names(self):
        assert shard_names(3) == ("shard-00", "shard-01", "shard-02")
        with pytest.raises(ValueError):
            shard_names(0)


class TestShardRingProperties:
    """The hypothesis-held contract (satellite S1)."""

    @given(key=_KEYS, n=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_lookup_is_deterministic_across_instances(self, key, n):
        """Two processes that agree on the names agree on every route."""
        a, b = ShardRing(shard_names(n)), ShardRing(shard_names(n))
        assert a.lookup(*key) == b.lookup(*key)

    @given(n=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_balance_within_bound(self, n):
        """128 vnodes keep every shard within ~2x of its fair share of
        the ring (empirically within ~1.3x; 2x is the alarm bound)."""
        shares = ShardRing(shard_names(n)).arc_shares()
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        fair = 1.0 / n
        for name, share in shares.items():
            assert share < 2.0 * fair, f"{name} hoards {share:.3f} of the ring"
            assert share > 0.25 * fair, f"{name} owns almost nothing ({share:.4f})"

    @given(key=_KEYS, n=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_reshard_moves_keys_only_onto_the_new_shard(self, key, n):
        """The minimality property, exactly: growing N -> N+1 either
        leaves a key where it was or moves it onto the new shard."""
        old_owner = ShardRing(shard_names(n)).lookup(*key)
        new_owner = ShardRing(shard_names(n + 1)).lookup(*key)
        if new_owner != old_owner:
            assert new_owner == shard_names(n + 1)[-1]

    def test_reshard_remaps_a_minimal_fraction(self):
        """Over a large deterministic key population the moved fraction
        tracks the new shard's arc share — about 1/(N+1), never a
        reshuffle of everything."""
        keys = [("arch", f"metric-{i}") for i in range(2000)]
        for n in (2, 4, 7):
            before = ShardRing(shard_names(n))
            after = ShardRing(shard_names(n + 1))
            moved = sum(1 for k in keys if before.lookup(*k) != after.lookup(*k))
            new_share = after.arc_shares()[shard_names(n + 1)[-1]]
            fraction = moved / len(keys)
            assert fraction <= 2.0 / (n + 1)
            # The moved set IS the new shard's slice (sampling error only).
            assert abs(fraction - new_share) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardRing([])
        with pytest.raises(ValueError):
            ShardRing(["a", "a"])
        with pytest.raises(ValueError):
            ShardRing(["a"], vnodes=0)


def _owner(n_shards, entry):
    return ShardRing(shard_names(n_shards)).lookup(entry.arch, entry.metric)


def _take_down(shard_root, arch):
    """Replace a shard's arch directory by a file: listing it raises an
    I/O error, and reads of its keys find nothing."""
    arch_dir = shard_root / "entries" / arch
    shutil.rmtree(arch_dir)
    arch_dir.write_text("not a directory")


def _files(root):
    return sorted(
        str(path.relative_to(root)) for path in root.rglob("*") if path.is_file()
    )


class TestShardedStoreRouting:
    def test_put_routes_to_ring_owner_and_round_trips(self, tmp_path, entries):
        store = MetricCatalogStore(tmp_path, shards=3)
        for entry in entries:
            stored = store.put(entry)
            owner = _owner(3, entry)
            # Each shard directory is itself an unsharded root, and
            # exactly one of them holds the key.
            for other in store.ring.shards:
                on_disk = MetricCatalogStore(tmp_path / other).latest(
                    entry.arch, entry.metric, entry.config_digest
                )
                if other == owner:
                    assert on_disk is not None
                    assert on_disk.version == stored.version
                else:
                    assert on_disk is None
        got = store.latest(
            entries[0].arch, entries[0].metric, entries[0].config_digest
        )
        assert got is not None
        assert got.coefficients_hex == entries[0].coefficients_hex

    def test_reopen_reads_manifest_and_rejects_mismatch(self, tmp_path, entries):
        store = MetricCatalogStore(tmp_path, shards=3)
        store.put(entries[0])
        reopened = MetricCatalogStore(tmp_path)  # shards=0: manifest rules
        assert reopened.ring.shards == store.ring.shards
        assert (
            reopened.latest(
                entries[0].arch, entries[0].metric, entries[0].config_digest
            )
            is not None
        )
        with pytest.raises(ValueError, match="re-partition"):
            MetricCatalogStore(tmp_path, shards=5)

    def test_unreadable_manifest_format_is_an_error(self, tmp_path):
        MetricCatalogStore(tmp_path, shards=2)
        (tmp_path / "shards.json").write_text(
            json.dumps({"format": 99, "shards": []})
        )
        with pytest.raises(ValueError, match="format"):
            MetricCatalogStore(tmp_path)

    def test_manifest_decides_the_layout(self, tmp_path):
        plain = MetricCatalogStore(tmp_path / "plain")
        assert plain.ring is None
        assert not (tmp_path / "plain" / "shards.json").exists()
        sharded = MetricCatalogStore(tmp_path / "sharded", shards=2)
        assert sharded.ring.shards == ("shard-00", "shard-01")
        # A root that carries shards.json opens sharded with no hint.
        again = MetricCatalogStore(tmp_path / "sharded")
        assert again.ring.shards == sharded.ring.shards

    def test_sharding_a_root_with_unsharded_entries_is_an_error(
        self, tmp_path, entries
    ):
        """Writing shards.json over unsharded entries would route every
        read to an empty shard directory: every entry would vanish."""
        plain = MetricCatalogStore(tmp_path)
        for entry in entries:
            plain.put(entry)
        with pytest.raises(ValueError, match="unsharded entries"):
            MetricCatalogStore(tmp_path, shards=2)
        assert not (tmp_path / "shards.json").exists()
        assert len(MetricCatalogStore(tmp_path).list_entries()) == len(entries)

    def test_manifest_is_published_durably(self, tmp_path, monkeypatch):
        import repro.serve.catalog as catalog

        published = []
        real = catalog.durable_replace

        def spy(staged, final, *, durable=True):
            published.append((final, durable))
            real(staged, final, durable=durable)

        monkeypatch.setattr(catalog, "durable_replace", spy)
        MetricCatalogStore(tmp_path / "durable", shards=2)
        MetricCatalogStore(tmp_path / "fast", shards=2, durable=False)
        assert published == [
            (tmp_path / "durable" / "shards.json", True),
            (tmp_path / "fast" / "shards.json", False),
        ]

    def test_history_and_diff_route_to_the_owner(self, tmp_path, entries):
        from repro.serve.catalog import _coeffs_to_hex

        store = MetricCatalogStore(tmp_path, shards=3)
        base = store.put(entries[0])
        coeffs = entries[0].coefficients.copy()
        coeffs[0] = coeffs[0] + 2.0**-48
        store.put(
            dataclasses.replace(
                entries[0], coefficients_hex=_coeffs_to_hex(coeffs)
            )
        )
        assert [
            e.version
            for e in store.history(base.arch, base.metric, base.config_digest)
        ] == [1, 2]
        diff = store.diff(base.arch, base.metric, base.config_digest, 1, 2)
        assert not diff.identical


class TestOnDiskLayout:
    """The bytes a put leaves behind, pinned for both root kinds: roots
    written before sharding lived in the store keep opening unchanged."""

    MANIFEST = (
        '{\n  "format": 1,\n  "shards": [\n    "shard-00",\n'
        '    "shard-01"\n  ],\n  "vnodes": 128\n}\n'
    )

    def test_unsharded_and_sharded_put_paths_and_bytes(self, tmp_path, entries):
        entry = entries[0]
        plain = MetricCatalogStore(tmp_path / "plain")
        sharded = MetricCatalogStore(tmp_path / "sharded", shards=2)
        plain.put(entry)
        sharded.put(entry)
        assert entry.config_digest == "43a3308ce011f55c"
        version = (
            "entries/aurora-spr/unconditional-branches-64f9fcae/"
            "43a3308ce011f55c/v0001.json"
        )
        assert _files(tmp_path / "plain") == [version, "log.jsonl"]
        owner = _owner(2, entry)
        assert owner == "shard-01"
        assert _files(tmp_path / "sharded") == [
            f"{owner}/{version}",
            f"{owner}/log.jsonl",
            "shards.json",
        ]
        assert (tmp_path / "sharded" / "shards.json").read_text() == self.MANIFEST
        for name in (version, "log.jsonl"):
            assert (tmp_path / "plain" / name).read_bytes() == (
                tmp_path / "sharded" / owner / name
            ).read_bytes()


def _tracked(node, entries):
    """``entries`` with the dependency map of their measured slice."""
    from repro.incr import domain_event_digests

    deps = domain_event_digests(node.events, "branch")
    return [dataclasses.replace(e, event_digests=deps) for e in entries]


def _write_format_1(root, shards, stored):
    """Lay ``stored`` (entries with versions assigned) down exactly as a
    format-1 store did: indented JSON with the map inline, one log line
    per version."""
    from repro.serve.catalog import metric_slug

    if shards:
        root.mkdir(parents=True, exist_ok=True)
        (root / "shards.json").write_text(TestOnDiskLayout.MANIFEST)
    records = []
    for entry in stored:
        shard_root = root / _owner(shards, entry) if shards else root
        entry_dir = (
            shard_root / "entries" / entry.arch / metric_slug(entry.metric)
            / entry.config_digest
        )
        entry_dir.mkdir(parents=True, exist_ok=True)
        payload = entry.to_payload()
        assert payload["format"] == 1 and payload["event_digests"]
        (entry_dir / f"v{entry.version:04d}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True)
        )
        record = {
            "op": "put",
            "arch": entry.arch,
            "metric": entry.metric,
            "config_digest": entry.config_digest,
            "version": entry.version,
            "content_digest": entry.content_digest(),
            "events_digest": entry.events_digest,
        }
        records.append(record)
        with (shard_root / "log.jsonl").open("a") as log:
            log.write(json.dumps(record, sort_keys=True) + "\n")
    return records


class TestReadFormat1:
    """Roots written before dependency maps moved to ``deps/`` (format 1:
    indented JSON, map inline) reopen unchanged and dedup against new
    puts."""

    @pytest.mark.parametrize("shards", [0, 2])
    def test_format_1_root_reopens_dedups_and_fscks_clean(
        self, tmp_path, node, entries, shards
    ):
        tracked = _tracked(node, entries)
        first = tracked[0]
        older = dataclasses.replace(first, error=first.error * 2, version=1)
        stored = [older, dataclasses.replace(first, version=2)] + [
            dataclasses.replace(e, version=1) for e in tracked[1:]
        ]
        records = _write_format_1(tmp_path, shards, stored)
        before = _files(tmp_path)

        store = MetricCatalogStore(tmp_path)
        assert (store.ring is None) == (shards == 0)
        rows = store.list_entries()
        assert [r["metric"] for r in rows] == sorted(e.metric for e in tracked)
        canonical = functools.partial(json.dumps, sort_keys=True)
        assert sorted(store.log_records(), key=canonical) == sorted(
            records, key=canonical
        )
        assert store.history(first.arch, first.metric, first.config_digest) == (
            stored[:2]
        )
        for entry in stored[1:]:
            got = store.latest(
                entry.arch,
                entry.metric,
                entry.config_digest,
                event_digests=entry.event_digests,
            )
            assert got == entry
            assert got.content_digest() == entry.content_digest()
        with obs.tracing(seed=7) as tracer:
            for entry in tracked:
                assert store.put(entry) in stored
            assert tracer.counters["catalog.dedup"] == len(tracked)
        assert _files(tmp_path) == before  # nothing written
        assert store.fsck(repair=False).clean


class TestShardedFanOut:
    """Cross-shard list, log, fsck and compaction coverage."""

    def test_listing_is_deterministic_and_matches_unsharded(
        self, tmp_path, entries
    ):
        sharded = MetricCatalogStore(tmp_path / "sharded", shards=3)
        plain = MetricCatalogStore(tmp_path / "plain")
        for entry in entries:
            sharded.put(entry)
            plain.put(entry)
        rows = sharded.list_entries()
        assert rows == sharded.list_entries()  # stable order
        assert rows == plain.list_entries()
        assert [r["metric"] for r in rows] == sorted(e.metric for e in entries)

    def test_down_shard_degrades_its_keys_not_the_listing(
        self, tmp_path, entries
    ):
        store = MetricCatalogStore(tmp_path, shards=3)
        for entry in entries:
            store.put(entry)
        owners = {e.metric: _owner(3, e) for e in entries}
        victim = owners[entries[0].metric]
        survivors = [m for m, owner in owners.items() if owner != victim]
        assert survivors
        # One shard's disk goes bad: its arch directory cannot be read.
        _take_down(tmp_path / victim, entries[0].arch)
        with obs.tracing(seed=7) as tracer:
            # Keyed reads of the down shard miss; nothing raises.
            assert (
                store.latest(
                    entries[0].arch,
                    entries[0].metric,
                    entries[0].config_digest,
                )
                is None
            )
            # The listing still answers, minus the down shard's rows.
            rows = store.list_entries()
            assert store.degraded_shards == (victim,)
            assert {r["metric"] for r in rows} == set(survivors)
            assert tracer.counters["shard.degraded_reads"] == 1
        by_metric = {e.metric: e for e in entries}
        for metric in survivors:
            entry = by_metric[metric]
            assert (
                store.latest(entry.arch, entry.metric, entry.config_digest)
                is not None
            )

    def test_unsharded_root_io_errors_raise(self, tmp_path, entries):
        store = MetricCatalogStore(tmp_path)
        store.put(entries[0])
        _take_down(tmp_path, entries[0].arch)
        with pytest.raises(OSError):
            store.list_entries()

    def test_fsck_merges_reports_with_shard_prefixed_paths(
        self, tmp_path, entries
    ):
        store = MetricCatalogStore(tmp_path, shards=3)
        for entry in entries:
            store.put(entry)
        clean = store.fsck(repair=True)
        assert clean.clean and clean.scanned == len(entries)
        # Tear one version file in whichever shard owns the first entry.
        owner = _owner(3, entries[0])
        torn = next((tmp_path / owner).rglob("v*.json"))
        torn.write_text(torn.read_text()[: len(torn.read_text()) // 2])
        report = MetricCatalogStore(tmp_path).fsck(repair=True)
        assert not report.clean
        assert len(report.quarantined) == 1
        assert report.quarantined[0].startswith(f"{owner}/")
        assert any((tmp_path / owner / "quarantine").rglob("v*.json"))

    def test_compact_log_sums_across_shards(self, tmp_path, entries):
        store = MetricCatalogStore(tmp_path, shards=3)
        for entry in entries:
            store.put(entry)
        assert len(store.log_records()) == len(entries)
        compaction = store.compact_log()
        assert compaction.records_before == len(entries)
        assert compaction.dropped == 0


class TestReadReplicas:
    def test_fresh_read_is_replicated_and_hit(self, tmp_path, entries):
        entry = entries[0]
        MetricCatalogStore(tmp_path, shards=2).put(entry)
        # A store that did not write the entry reads it from disk first.
        store = MetricCatalogStore(tmp_path, shards=2)
        with obs.tracing(seed=7) as tracer:
            first = store.latest(
                entry.arch,
                entry.metric,
                entry.config_digest,
                events_digest=entry.events_digest,
            )
            assert first is not None and len(store._replicas) == 1
            again = store.latest(
                entry.arch,
                entry.metric,
                entry.config_digest,
                events_digest=entry.events_digest,
            )
            assert again.coefficients_hex == first.coefficients_hex
            assert tracer.counters["shard.replica_hits"] == 1
            # The replica hit skipped the disk route.
            assert tracer.counters["shard.routes"] == 1

    def test_unsharded_root_is_fronted_by_replicas(self, tmp_path, entries):
        entry = entries[0]
        MetricCatalogStore(tmp_path).put(entry)
        store = MetricCatalogStore(tmp_path)
        with obs.tracing(seed=7) as tracer:
            for _ in range(3):
                store.latest(
                    entry.arch,
                    entry.metric,
                    entry.config_digest,
                    event_digests=entry.event_digests,
                )
            assert tracer.counters["shard.replica_hits"] == 2
            assert tracer.counters["catalog.hits"] == 1

    def test_registry_edit_invalidates_replica(self, tmp_path, entries):
        store = MetricCatalogStore(tmp_path, shards=2)
        entry = entries[0]
        store.put(entry)
        with obs.tracing(seed=7) as tracer:
            store.latest(
                entry.arch,
                entry.metric,
                entry.config_digest,
                events_digest=entry.events_digest,
            )
            assert len(store._replicas) == 1
            # The registry moved: the caller's digest changed, so the
            # replica must not answer — and the disk read (also
            # staleness-checked) refuses too.
            stale = store.latest(
                entry.arch,
                entry.metric,
                entry.config_digest,
                events_digest="0" * 16,
            )
            assert stale is None
            assert len(store._replicas) == 0
            assert tracer.counters["shard.replica_invalidations"] == 1

    def test_edit_outside_the_map_keeps_replica(self, tmp_path, node, entries):
        """A replica is judged like a disk read: an entry with a
        dependency map stays fresh while the map matches, whatever the
        whole-registry digest says."""
        entry = _tracked(node, entries)[0]
        MetricCatalogStore(tmp_path, shards=2).put(entry)
        store = MetricCatalogStore(tmp_path, shards=2)
        key = (entry.arch, entry.metric, entry.config_digest)
        with obs.tracing(seed=7) as tracer:
            first = store.latest(
                *key,
                events_digest=entry.events_digest,
                event_digests=entry.event_digests,
            )
            # Another domain's event was edited: the registry digest moved,
            # this entry's map did not.
            again = store.latest(
                *key, events_digest="0" * 16, event_digests=dict(entry.event_digests)
            )
            assert again is first
            assert tracer.counters["shard.replica_hits"] == 1
            assert "shard.replica_invalidations" not in tracer.counters
            assert tracer.counters["catalog.hits"] == 1
            # An edit inside the map still invalidates.
            drifted = dict(entry.event_digests)
            drifted[next(iter(drifted))] = "f" * 16
            assert store.latest(*key, event_digests=drifted) is None
            assert tracer.counters["shard.replica_invalidations"] == 1

    def test_write_invalidates_replica(self, tmp_path, entries):
        """A put replaces the key's replica with the entry it stored (a
        new version, or the version it deduped to); a torn publication
        drops it."""
        store = MetricCatalogStore(tmp_path, shards=2)
        entry = entries[0]
        key = (entry.arch, entry.metric, entry.config_digest)
        first = store.put(entry)
        assert store._replicas[key] is first
        changed = store.put(dataclasses.replace(entry, error=entry.error + 1.0))
        assert changed.version == 2 and store._replicas[key] is changed
        with obs.tracing(seed=7) as tracer:
            hit = store.latest(*key, events_digest=entry.events_digest)
            assert hit is changed
            assert tracer.counters["shard.replica_hits"] == 1
            assert "catalog.hits" not in tracer.counters
        deduped = store.put(dataclasses.replace(entry, error=entry.error + 1.0))
        assert deduped.version == 2 and store._replicas[key] is deduped
        torn = MetricCatalogStore(
            tmp_path, failpoint=lambda site: "torn"
        )
        torn._replica_put(key, changed)
        assert torn.put(dataclasses.replace(entry, error=0.5)).version == 0
        assert key not in torn._replicas

    def test_put_replica_reads_like_disk(self, tmp_path):
        """The entry a put keeps as its replica carries exactly the
        payload a store that did not write it reads from disk, for every
        entry of a seed-2024 aurora build."""
        from repro.core.sweep import SYSTEM_DOMAINS
        from repro.incr import domain_event_digests
        from repro.serve.catalog import entries_from_result

        node = aurora_node(seed=2024)
        writer = MetricCatalogStore(tmp_path / "catalog")
        stored = []
        for domain in SYSTEM_DOMAINS["aurora"]:
            result = AnalysisPipeline.for_domain(domain, node).run()
            for entry in entries_from_result(
                result,
                arch=node.name,
                seed=2024,
                events_digest=event_set_digest(node.events),
                event_digests=domain_event_digests(node.events, domain),
            ):
                stored.append(writer.put(entry))
        reader = MetricCatalogStore(tmp_path / "catalog")
        assert len(stored) == len(writer._replicas) > 0
        for entry in stored:
            key = (entry.arch, entry.metric, entry.config_digest)
            replica = writer._replicas[key]
            assert replica is entry
            on_disk = reader.get(*key)
            assert replica.to_payload() == on_disk.to_payload()
            assert json.dumps(replica.to_payload(), sort_keys=True) == json.dumps(
                on_disk.to_payload(), sort_keys=True
            )

    def test_unchecked_reads_are_not_cached(self, tmp_path, entries):
        MetricCatalogStore(tmp_path, shards=2).put(entries[0])
        store = MetricCatalogStore(tmp_path, shards=2)
        assert (
            store.latest(
                entries[0].arch, entries[0].metric, entries[0].config_digest
            )
            is not None
        )
        assert len(store._replicas) == 0  # no freshness evidence, no replica

    def test_replica_capacity_is_lru_bounded(self, tmp_path, entries, monkeypatch):
        monkeypatch.setattr(MetricCatalogStore, "_REPLICA_CAPACITY", 2)
        store = MetricCatalogStore(tmp_path, shards=2)
        for entry in entries[:3]:
            store.put(entry)
            store.latest(
                entry.arch,
                entry.metric,
                entry.config_digest,
                events_digest=entry.events_digest,
            )
        assert list(store._replicas) == [
            (e.arch, e.metric, e.config_digest) for e in entries[1:3]
        ]
