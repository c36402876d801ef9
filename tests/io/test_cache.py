"""Tests for the content-addressed measurement cache."""

import numpy as np
import pytest

from repro.cat import BenchmarkRunner, BranchBenchmark
from repro.hardware import aurora_node
from repro.io import load_measurements, save_measurements
from repro.io.cache import (
    MeasurementCache,
    event_set_digest,
    measurement_cache_key,
)


@pytest.fixture(scope="module")
def node():
    return aurora_node(seed=7)


@pytest.fixture(scope="module")
def bench():
    return BranchBenchmark()


@pytest.fixture(scope="module")
def registry(node, bench):
    return BenchmarkRunner(node, repetitions=2).select_events(bench)


@pytest.fixture(scope="module")
def measurement(node, bench, registry):
    return BenchmarkRunner(node, repetitions=2).run(bench, events=registry)


class TestCacheKey:
    def test_deterministic(self, node, bench, registry):
        a = measurement_cache_key(node, bench, registry, 2)
        b = measurement_cache_key(node, bench, registry, 2)
        assert a == b and len(a) == 64

    def test_sensitive_to_seed(self, bench, registry):
        a = measurement_cache_key(aurora_node(seed=1), bench, registry, 2)
        b = measurement_cache_key(aurora_node(seed=2), bench, registry, 2)
        assert a != b

    def test_sensitive_to_repetitions(self, node, bench, registry):
        assert measurement_cache_key(node, bench, registry, 2) != (
            measurement_cache_key(node, bench, registry, 3)
        )

    def test_sensitive_to_event_set(self, node, bench, registry):
        subset = list(registry)[:-1]
        assert measurement_cache_key(node, bench, registry, 2) != (
            measurement_cache_key(node, bench, subset, 2)
        )

    def test_footprints_off_whole_kib_key_exactly(self, node, registry):
        """Both footprints label their row ``stride64/L1/48KiB``, but
        their chases differ, so their measurements must not share a key."""
        from repro.cat import DCacheBenchmark
        from repro.incr.delta import column_key

        a, b = (
            DCacheBenchmark(
                strides=(64,), n_threads=1, footprints=[("L1", 48 * 1024 + extra)]
            )
            for extra in (500, 900)
        )
        assert a.row_labels() == b.row_labels()
        assert measurement_cache_key(node, a, registry, 2) != (
            measurement_cache_key(node, b, registry, 2)
        )
        event = next(iter(registry))
        assert column_key(node, a, event, 2) != column_key(node, b, event, 2)

    def test_derived_footprint_keys_are_unchanged(self, node):
        """Default and config-derived footprints are whole KiB: their
        keys stay exactly what they were before exact footprints were
        keyed (stored caches stay valid)."""
        from repro.cat import DCacheBenchmark

        default = DCacheBenchmark()
        derived = DCacheBenchmark(cpu_config=node.machine.config)
        events = BenchmarkRunner(node, repetitions=2).select_events(default)
        key = measurement_cache_key(node, default, events, 2)
        assert key == (
            "e3729783e0713d48a47e06820309e9019089fec59f6ba7b30e9602bc0dd0a4b0"
        )
        assert measurement_cache_key(node, derived, events, 2) == key

    def test_digest_covers_event_content(self, registry):
        events = list(registry)
        full = event_set_digest(events)
        assert event_set_digest(events) == full
        assert event_set_digest(events[:-1]) != full


class TestMeasurementCache:
    def test_memory_hit(self, node, bench, registry, measurement):
        cache = MeasurementCache()
        key = measurement_cache_key(node, bench, registry, 2)
        assert cache.get(key) is None
        cache.put(key, measurement)
        assert cache.get(key) is measurement
        assert cache.stats.memory_hits == 1
        assert cache.stats.misses == 1

    def test_lru_eviction(self, measurement):
        cache = MeasurementCache(max_memory_entries=2)
        cache.put("a" * 64, measurement)
        cache.put("b" * 64, measurement)
        cache.get("a" * 64)  # refresh "a": "b" becomes eviction victim
        cache.put("c" * 64, measurement)
        assert cache.get("b" * 64) is None
        assert cache.get("a" * 64) is not None
        assert cache.get("c" * 64) is not None

    def test_eviction_stats_and_counter(self, measurement):
        from repro.obs import tracing

        with tracing(seed=0) as tracer:
            cache = MeasurementCache(max_memory_entries=2)
            cache.put("a" * 64, measurement)
            cache.put("b" * 64, measurement)
            assert cache.stats.evictions == 0
            cache.put("c" * 64, measurement)  # displaces "a"
            cache.put("d" * 64, measurement)  # displaces "b"
            assert cache.stats.evictions == 2
            assert tracer.counters.get("cache.evictions") == 2
        # Memory-only hits/misses also flow through the obs counters.
        with tracing(seed=0) as tracer:
            cache = MeasurementCache()
            cache.get("e" * 64)
            cache.put("e" * 64, measurement)
            cache.get("e" * 64)
            assert cache.stats.memory_hits == 1
            assert cache.stats.misses == 1
            assert tracer.counters.get("cache.memory_hits") == 1
            assert tracer.counters.get("cache.misses") == 1

    def test_disk_round_trip(self, tmp_path, node, bench, registry, measurement):
        cache = MeasurementCache(root=tmp_path)
        key = measurement_cache_key(node, bench, registry, 2)
        cache.put(key, measurement)
        cache.clear()
        loaded = cache.get(key)
        assert cache.stats.disk_hits == 1
        assert np.array_equal(loaded.data, measurement.data)
        assert loaded.event_names == measurement.event_names
        assert loaded.pmu_runs == measurement.pmu_runs

    def test_get_or_measure_runs_once(self, measurement):
        cache = MeasurementCache()
        calls = []

        def produce():
            calls.append(1)
            return measurement

        assert cache.get_or_measure("k" * 64, produce) is measurement
        assert cache.get_or_measure("k" * 64, produce) is measurement
        assert len(calls) == 1

    def test_rejects_empty_capacity(self):
        with pytest.raises(ValueError):
            MeasurementCache(max_memory_entries=0)


class TestPmuRunsPersistence:
    def test_round_trip(self, tmp_path, measurement):
        assert measurement.pmu_runs is not None  # attached by the runner
        path = save_measurements(measurement, tmp_path / "snap")
        loaded = load_measurements(path)
        assert loaded.pmu_runs == measurement.pmu_runs

    def test_views_propagate_pmu_runs(self, measurement):
        subset = measurement.select_events(measurement.event_names[:3])
        assert subset.pmu_runs == measurement.pmu_runs

    def test_legacy_sidecar_without_pmu_runs(self, tmp_path, measurement):
        import json

        path = save_measurements(measurement, tmp_path / "legacy")
        sidecar = path.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        del meta["pmu_runs"]
        sidecar.write_text(json.dumps(meta))
        assert load_measurements(path).pmu_runs is None


class TestEntryLayout:
    """Entries are written as uncompressed ``.npz`` files; entries
    written compressed (as earlier releases did) still verify and read."""

    def test_compressed_entry_still_verifies_and_reads(
        self, tmp_path, node, bench, registry, measurement
    ):
        import json

        from repro.io.digest import file_digest

        key = measurement_cache_key(node, bench, registry, 2)
        path = tmp_path / key[:2] / key
        path.parent.mkdir(parents=True)
        # The earlier writer: savez_compressed, indented metadata, and a
        # checksum sidecar over both files.
        np.savez_compressed(path.with_suffix(".npz"), data=measurement.data)
        meta = {
            "benchmark": measurement.benchmark,
            "row_labels": measurement.row_labels,
            "event_names": measurement.event_names,
            "shape": list(measurement.data.shape),
            "pmu_runs": measurement.pmu_runs,
        }
        path.with_suffix(".json").write_text(json.dumps(meta, indent=2))
        path.with_suffix(".sha256").write_text(
            json.dumps(
                {
                    suffix: file_digest(path.with_suffix(f".{suffix}"))
                    for suffix in ("npz", "json")
                },
                sort_keys=True,
            )
        )
        assert MeasurementCache(root=tmp_path).verify_all() == []
        cache = MeasurementCache(root=tmp_path)
        loaded = cache.get(key)
        assert cache.stats.disk_hits == 1 and cache.stats.corrupt == 0
        assert loaded.data.tobytes() == measurement.data.tobytes()
        assert loaded.data.dtype == measurement.data.dtype
        assert loaded.pmu_runs == measurement.pmu_runs
        assert loaded.event_names == measurement.event_names

    def test_new_entry_is_uncompressed_and_sidecar_matches_files(
        self, tmp_path, node, bench, registry, measurement
    ):
        import json
        import zipfile

        from repro.io.digest import file_digest

        key = measurement_cache_key(node, bench, registry, 2)
        MeasurementCache(root=tmp_path).put(key, measurement)
        path = tmp_path / key[:2] / key
        with zipfile.ZipFile(path.with_suffix(".npz")) as archive:
            assert {i.compress_type for i in archive.infolist()} == {
                zipfile.ZIP_STORED
            }
        assert json.loads(path.with_suffix(".sha256").read_text()) == {
            suffix: file_digest(path.with_suffix(f".{suffix}"))
            for suffix in ("npz", "json")
        }
        loaded = MeasurementCache(root=tmp_path).get(key)
        assert loaded.data.tobytes() == measurement.data.tobytes()
        assert loaded.pmu_runs == measurement.pmu_runs

    def test_byte_flipped_uncompressed_entry_is_quarantined(
        self, tmp_path, node, bench, registry, measurement
    ):
        key = measurement_cache_key(node, bench, registry, 2)
        MeasurementCache(root=tmp_path).put(key, measurement)
        npz = (tmp_path / key[:2] / key).with_suffix(".npz")
        blob = bytearray(npz.read_bytes())
        # A byte inside the stored array: an uncompressed archive has no
        # deflate stream to fail on, so only the checksum catches it.
        blob[len(blob) // 2] ^= 0xFF
        npz.write_bytes(bytes(blob))
        cache = MeasurementCache(root=tmp_path)
        assert cache.get(key) is None
        assert cache.quarantined == [key] and cache.stats.corrupt == 1
        assert (tmp_path / "quarantine" / npz.name).exists()
