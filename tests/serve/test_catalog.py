"""Tests for the versioned, content-addressed metric catalog."""

import json

import numpy as np
import pytest

from repro import obs
from repro.core.pipeline import AnalysisPipeline, DOMAIN_CONFIGS
from repro.hardware import aurora_node
from repro.io.cache import event_set_digest
from repro.serve.catalog import (
    CatalogEntry,
    MetricCatalogStore,
    analysis_config_digest,
    diff_entries,
    entries_from_result,
    metric_slug,
)


@pytest.fixture(scope="module")
def node():
    return aurora_node(seed=7)


@pytest.fixture(scope="module")
def result(node):
    return AnalysisPipeline.for_domain("branch", node).run()


@pytest.fixture(scope="module")
def entries(node, result):
    return entries_from_result(
        result, arch=node.name, seed=7, events_digest=event_set_digest(node.events)
    )


class TestMetricSlug:
    def test_deterministic_and_filesystem_safe(self):
        slug = metric_slug("Mispredicted Branches.")
        assert slug == metric_slug("Mispredicted Branches.")
        assert "/" not in slug and " " not in slug

    def test_distinct_metrics_distinct_slugs(self):
        assert metric_slug("Mispredicted Branches.") != metric_slug(
            "Correctly Predicted Branches."
        )

    def test_collision_resistant_beyond_stem(self):
        # Same slugged stem, different raw names -> the digest suffix
        # separates them.
        assert metric_slug("A  B") != metric_slug("A-B")


class TestConfigDigest:
    def test_cache_flag_does_not_change_digest(self):
        from dataclasses import replace

        base = DOMAIN_CONFIGS["branch"]
        a = analysis_config_digest("branch", 7, base)
        b = analysis_config_digest(
            "branch", 7, replace(base, use_measurement_cache=True)
        )
        assert a == b  # the cache cannot change results

    def test_seed_and_config_are_load_bearing(self):
        from dataclasses import replace

        base = DOMAIN_CONFIGS["branch"]
        assert analysis_config_digest("branch", 7, base) != analysis_config_digest(
            "branch", 8, base
        )
        assert analysis_config_digest("branch", 7, base) != analysis_config_digest(
            "branch", 7, replace(base, tau=1e-3)
        )


class TestEntryRoundTrip:
    def test_definition_is_bit_exact(self, result, entries):
        for entry in entries:
            direct = result.metrics[entry.metric]
            rebuilt = entry.definition()
            assert rebuilt.coefficients.tobytes() == direct.coefficients.tobytes()
            assert rebuilt.event_names == direct.event_names
            assert rebuilt.error == direct.error
            assert rebuilt.degraded == direct.degraded

    def test_payload_round_trip_preserves_everything(self, entries):
        for entry in entries:
            back = CatalogEntry.from_payload(
                json.loads(json.dumps(entry.to_payload()))
            )
            assert back == entry

    def test_trust_and_guards_survive(self, result, entries):
        for entry in entries:
            direct = result.metrics[entry.metric]
            if direct.trust is not None:
                assert entry.trust is not None
                assert entry.trust.level == direct.trust.level
                assert entry.trust.reasons == direct.trust.reasons
            if direct.health is not None:
                assert entry.guards_fired == tuple(direct.health.guards_fired)

    def test_content_digest_ignores_version(self, entries):
        import dataclasses

        entry = entries[0]
        bumped = dataclasses.replace(entry, version=41)
        assert bumped.content_digest() == entry.content_digest()


class TestStore:
    def test_put_get_round_trip(self, tmp_path, entries):
        store = MetricCatalogStore(tmp_path)
        stored = store.put(entries[0])
        assert stored.version == 1
        got = store.get(stored.arch, stored.metric, stored.config_digest)
        assert got == stored

    def test_identical_content_dedups(self, tmp_path, entries):
        store = MetricCatalogStore(tmp_path)
        first = store.put(entries[0])
        again = store.put(entries[0])
        assert again.version == first.version == 1
        assert len(store.history(first.arch, first.metric, first.config_digest)) == 1

    def test_changed_content_appends_version(self, tmp_path, entries):
        import dataclasses

        store = MetricCatalogStore(tmp_path)
        store.put(entries[0])
        coeffs = entries[0].coefficients.copy()
        coeffs[0] += 1.0
        from repro.serve.catalog import _coeffs_to_hex

        changed = dataclasses.replace(
            entries[0], coefficients_hex=_coeffs_to_hex(coeffs)
        )
        stored = store.put(changed)
        assert stored.version == 2
        history = store.history(stored.arch, stored.metric, stored.config_digest)
        assert [e.version for e in history] == [1, 2]

    def test_events_digest_mismatch_invalidates(self, tmp_path, entries):
        store = MetricCatalogStore(tmp_path)
        stored = store.put(entries[0])
        with obs.tracing(seed=0) as tracer:
            missed = store.latest(
                stored.arch,
                stored.metric,
                stored.config_digest,
                events_digest="different-registry",
            )
        assert missed is None
        assert tracer.counters["catalog.invalidated"] == 1

    def test_version_log_is_append_only(self, tmp_path, entries):
        store = MetricCatalogStore(tmp_path)
        for entry in entries[:3]:
            store.put(entry)
        records = store.log_records()
        assert len(records) == 3
        assert all(r["version"] == 1 for r in records)

    def test_diff_golden(self, tmp_path, entries):
        """Golden rendering: version bumps show exactly the drifted
        fields, bit-level coefficient drift included."""
        import dataclasses

        from repro.serve.catalog import _coeffs_to_hex

        store = MetricCatalogStore(tmp_path)
        base = store.put(entries[0])
        coeffs = entries[0].coefficients.copy()
        coeffs[0] = coeffs[0] + 2.0**-48  # sub-display-precision drift
        store.put(
            dataclasses.replace(entries[0], coefficients_hex=_coeffs_to_hex(coeffs))
        )
        diff = store.diff(base.arch, base.metric, base.config_digest, 1, 2)
        assert not diff.identical
        rendered = diff.render()
        assert "v1 -> v2" in rendered
        # repr-level rendering must expose the bit-level change that %g
        # formatting would hide.
        event = entries[0].event_names[0]
        assert event in rendered

    def test_diff_missing_version_raises(self, tmp_path, entries):
        store = MetricCatalogStore(tmp_path)
        stored = store.put(entries[0])
        with pytest.raises(KeyError):
            store.diff(stored.arch, stored.metric, stored.config_digest, 1, 9)

    def test_identical_versions_diff_identical(self, entries):
        diff = diff_entries(entries[0], entries[0])
        assert diff.identical
        assert "identical" in diff.render()

    def test_list_entries_summarizes(self, tmp_path, entries):
        store = MetricCatalogStore(tmp_path)
        for entry in entries:
            store.put(entry)
        rows = store.list_entries()
        assert len(rows) == len(entries)
        assert {r["metric"] for r in rows} == {e.metric for e in entries}
        assert all(r["latest_version"] == 1 for r in rows)

    def test_counters(self, tmp_path, entries):
        store = MetricCatalogStore(tmp_path)
        with obs.tracing(seed=0) as tracer:
            stored = store.put(entries[0])
            store.put(entries[0])  # dedup
            store.latest(stored.arch, stored.metric, stored.config_digest)
            store.latest(stored.arch, "absent", stored.config_digest)
        assert tracer.counters["catalog.stores"] == 1
        assert tracer.counters["catalog.dedup"] == 1
        assert tracer.counters["catalog.hits"] >= 1
        assert tracer.counters["catalog.misses"] == 1


class TestEventDigests:
    """Per-event dependency tracking on catalog entries."""

    @pytest.fixture(scope="class")
    def tracked(self, node, result):
        deps = node.events.select(domains=("branch",)).event_digests()
        return entries_from_result(
            result,
            arch=node.name,
            seed=7,
            events_digest=event_set_digest(node.events),
            event_digests=deps,
        )

    def test_payload_round_trip(self, tracked):
        for entry in tracked:
            assert entry.event_digests
            back = CatalogEntry.from_payload(
                json.loads(json.dumps(entry.to_payload()))
            )
            assert back == entry
            assert back.event_digests == entry.event_digests

    def test_empty_map_keeps_legacy_content_digest(self, entries):
        """Adding the (empty) field must not change the content digest
        of pre-tracking entries — stored catalogs keep deduping."""
        import dataclasses

        entry = entries[0]
        assert entry.event_digests == {}
        payload = entry.to_payload()
        # The payload carries the field, but the content digest drops it
        # when empty, so a legacy payload (no field at all) digests the
        # same.
        legacy = dict(payload)
        legacy.pop("event_digests")
        legacy_entry = CatalogEntry.from_payload(legacy)
        assert legacy_entry.content_digest() == entry.content_digest()
        tracked = dataclasses.replace(entry, event_digests={"E": "abc"})
        assert tracked.content_digest() != entry.content_digest()

    def test_fine_grained_freshness(self, tmp_path, node, tracked):
        store = MetricCatalogStore(tmp_path)
        stored = store.put(tracked[0])
        deps = node.events.select(domains=("branch",)).event_digests()

        # Exact dependency match: fresh.
        assert (
            store.latest(
                stored.arch,
                stored.metric,
                stored.config_digest,
                events_digest="whole-registry-digest-changed",
                event_digests=deps,
            )
            is not None
        )

        # One dependent event's digest drifts: stale.
        drifted = dict(deps)
        drifted[next(iter(drifted))] = "0" * 16
        with obs.tracing(seed=0) as tracer:
            assert (
                store.latest(
                    stored.arch,
                    stored.metric,
                    stored.config_digest,
                    event_digests=drifted,
                )
                is None
            )
            assert tracer.counters["catalog.invalidated"] == 1

        # An added dependency (new event in the measured slice): stale.
        grown = dict(deps)
        grown["NEW_EVENT"] = "f" * 16
        assert (
            store.latest(
                stored.arch,
                stored.metric,
                stored.config_digest,
                event_digests=grown,
            )
            is None
        )

    def test_legacy_entry_falls_back_to_coarse_check(
        self, tmp_path, entries, node
    ):
        """An entry without a dependency map is checked against the
        whole-registry digest even when fine-grained digests are given."""
        store = MetricCatalogStore(tmp_path)
        stored = store.put(entries[0])  # event_digests == {}
        deps = node.events.select(domains=("branch",)).event_digests()
        assert (
            store.latest(
                stored.arch,
                stored.metric,
                stored.config_digest,
                events_digest=stored.events_digest,
                event_digests=deps,
            )
            is not None
        )
        assert (
            store.latest(
                stored.arch,
                stored.metric,
                stored.config_digest,
                events_digest="different-registry",
                event_digests=deps,
            )
            is None
        )


class TestDependencyMapBlobs:
    """Each distinct map is stored once, under ``deps/<sha256>.json``,
    and version files name it (on-disk format 2)."""

    @pytest.fixture(scope="class")
    def tracked(self, node, result):
        deps = node.events.select(domains=("branch",)).event_digests()
        return entries_from_result(
            result,
            arch=node.name,
            seed=7,
            events_digest=event_set_digest(node.events),
            event_digests=deps,
        )

    def test_content_digest_hashes_the_whole_payload(self, tracked, entries):
        """The digest hashed around the map text is ``json_digest`` of
        the payload with the map inline, byte for byte."""
        from repro.io.digest import json_digest

        for entry in tracked + entries:
            payload = entry.to_payload()
            for name in ("version", "trace_digest"):
                payload.pop(name)
            for name in ("event_digests", "vet", "provenance"):
                if not payload[name]:
                    payload.pop(name)
            assert entry.content_digest() == json_digest(payload, length=16)

    def test_entries_sharing_a_map_leave_one_blob(self, tmp_path, tracked):
        from repro.io.digest import canonical_json, sha256_hex

        store = MetricCatalogStore(tmp_path)
        for entry in tracked:
            store.put(entry)
        assert len(tracked) > 1
        digest = sha256_hex(canonical_json(tracked[0].event_digests))
        assert [p.name for p in (tmp_path / "deps").iterdir()] == [
            f"{digest}.json"
        ]
        for entry in tracked:
            path = next(
                (tmp_path / "entries").rglob(f"{metric_slug(entry.metric)}/*/v0001.json")
            )
            record = json.loads(path.read_text())
            assert record["format"] == 2 and record["deps"] == digest
            assert record["content_digest"] == entry.content_digest()
            assert "event_digests" not in record
        # A fresh process reads every map back from the one blob.
        fresh = MetricCatalogStore(tmp_path)
        for entry in tracked:
            got = fresh.get(entry.arch, entry.metric, entry.config_digest)
            assert got.event_digests == entry.event_digests
            assert got.content_digest() == entry.content_digest()

    def test_torn_blob_never_reads_as_a_map(self, tmp_path, tracked):
        entry = tracked[0]
        MetricCatalogStore(tmp_path).put(entry)
        (blob,) = (tmp_path / "deps").iterdir()
        text = blob.read_text()
        blob.write_text(text[: len(text) // 2] + "}")
        fresh = MetricCatalogStore(tmp_path)
        with obs.tracing(seed=0) as tracer:
            assert fresh.get(entry.arch, entry.metric, entry.config_digest) is None
            assert tracer.counters["catalog.misses"] == 1


class TestPartialRefreshDiff:
    """``catalog diff`` semantics across a partial refresh: only the
    invalidated (arch, metric) entries gain versions; untouched entries
    keep identical content digests (satellite for the refresh engine)."""

    def test_partial_refresh_versions_only_invalidated_entries(
        self, tmp_path, node
    ):
        from repro.incr import RegistryEdit, apply_edits, refresh_catalog
        from repro.io.cache import MeasurementCache

        cache = MeasurementCache(max_memory_entries=4096)
        store = MetricCatalogStore(tmp_path)
        domains = ("cpu_flops", "branch")
        built = refresh_catalog(store, node, domains, cache=cache)
        before = {
            (d, m): entry.content_digest()
            for (d, m), entry in built.entries.items()
        }

        # Edit one FLOPS event: only cpu_flops' slice depends on it.
        target = next(
            e.full_name for e in node.events if e.domain == "flops"
        )
        edited = apply_edits(
            node.events,
            [RegistryEdit(action="scale-response", event=target, factor=1.3)],
        )
        report = refresh_catalog(
            store, node, domains, registry=edited, cache=cache
        )
        assert report.stale_domains == ["cpu_flops"]

        for (domain, metric), entry in report.entries.items():
            history = store.history(
                entry.arch, entry.metric, entry.config_digest
            )
            if domain == "cpu_flops":
                # Invalidated: a second version appended, and the diff
                # between v1 and v2 names real field drift.
                assert [e.version for e in history] == [1, 2]
                diff = store.diff(
                    entry.arch, entry.metric, entry.config_digest, 1, 2
                )
                assert not diff.identical
                assert "v1 -> v2" in diff.render()
            else:
                # Untouched: still the single original version with the
                # identical content digest.
                assert [e.version for e in history] == [1]
                assert (
                    history[0].content_digest() == before[(domain, metric)]
                )
