"""Tests for delta-keyed measurement reuse (``repro.incr.delta``)."""

import numpy as np
import pytest

from repro.cat import BenchmarkRunner, BranchBenchmark
from repro.hardware import aurora_node
from repro.incr import column_key, measure_with_deltas
from repro.incr.registry_edit import RegistryEdit, apply_edits
from repro.io.cache import MeasurementCache
from repro.obs import tracing

REPS = 3


@pytest.fixture(scope="module")
def node():
    return aurora_node(seed=7)


@pytest.fixture(scope="module")
def bench():
    return BranchBenchmark()


@pytest.fixture(scope="module")
def registry(node, bench):
    return BenchmarkRunner(node, repetitions=REPS).select_events(bench)


@pytest.fixture(scope="module")
def full_run(node, bench, registry):
    return BenchmarkRunner(node, repetitions=REPS).run(bench, events=registry)


class TestColumnKey:
    def test_deterministic(self, node, bench, registry):
        event = list(registry)[0]
        assert column_key(node, bench, event, REPS) == column_key(
            node, bench, event, REPS
        )

    def test_sensitive_to_event_content(self, node, bench, registry):
        event = list(registry)[0]
        edited = apply_edits(
            registry,
            [
                RegistryEdit(
                    action="scale-response", event=event.full_name, factor=2.0
                )
            ],
        )
        edited_event = next(
            e for e in edited if e.full_name == event.full_name
        )
        assert column_key(node, bench, event, REPS) != column_key(
            node, bench, edited_event, REPS
        )

    def test_sensitive_to_repetitions_and_seed(self, node, bench, registry):
        event = list(registry)[0]
        assert column_key(node, bench, event, REPS) != column_key(
            node, bench, event, REPS + 1
        )
        assert column_key(node, bench, event, REPS) != column_key(
            aurora_node(seed=8), bench, event, REPS
        )


class TestMeasureWithDeltas:
    def test_cold_assembly_bit_identical(self, node, bench, registry, full_run):
        cache = MeasurementCache(max_memory_entries=2048)
        assembled, report = measure_with_deltas(
            node, bench, events=registry, repetitions=REPS, cache=cache
        )
        assert report.reused == 0
        assert report.measured == len(list(registry))
        assert assembled.event_names == full_run.event_names
        assert assembled.data.tobytes() == full_run.data.tobytes()
        assert assembled.pmu_runs == full_run.pmu_runs
        assert assembled.row_labels == full_run.row_labels

    def test_warm_assembly_reuses_every_column(self, node, bench, registry, full_run):
        cache = MeasurementCache(max_memory_entries=2048)
        measure_with_deltas(
            node, bench, events=registry, repetitions=REPS, cache=cache
        )
        with tracing(seed=0) as tracer:
            assembled, report = measure_with_deltas(
                node, bench, events=registry, repetitions=REPS, cache=cache
            )
            assert tracer.counters.get("incr.columns_reused") == report.reused
            assert "incr.columns_measured" not in tracer.counters
        assert report.measured == 0
        assert report.reused == len(list(registry))
        assert assembled.data.tobytes() == full_run.data.tobytes()
        assert assembled.pmu_runs == full_run.pmu_runs

    def test_single_edit_remeasures_one_column(self, node, bench, registry):
        cache = MeasurementCache(max_memory_entries=2048)
        measure_with_deltas(
            node, bench, events=registry, repetitions=REPS, cache=cache
        )
        target = list(registry)[1].full_name
        edited = apply_edits(
            registry,
            [RegistryEdit(action="scale-response", event=target, factor=1.5)],
        )
        assembled, report = measure_with_deltas(
            node, bench, events=edited, repetitions=REPS, cache=cache
        )
        assert report.measured == 1
        assert report.measured_events == (target,)
        assert report.reused == len(list(registry)) - 1
        # The delta-assembled set equals a from-scratch run on the
        # edited registry, bit for bit.
        scratch = BenchmarkRunner(node, repetitions=REPS).run(
            bench, events=edited
        )
        assert assembled.data.tobytes() == scratch.data.tobytes()
        assert assembled.event_names == scratch.event_names
        assert assembled.pmu_runs == scratch.pmu_runs

    def test_removal_needs_no_measurement(self, node, bench, registry):
        cache = MeasurementCache(max_memory_entries=2048)
        measure_with_deltas(
            node, bench, events=registry, repetitions=REPS, cache=cache
        )
        target = list(registry)[0].full_name
        edited = apply_edits(
            registry, [RegistryEdit(action="remove", event=target)]
        )
        assembled, report = measure_with_deltas(
            node, bench, events=edited, repetitions=REPS, cache=cache
        )
        assert report.measured == 0
        assert report.reused == len(list(registry)) - 1
        scratch = BenchmarkRunner(node, repetitions=REPS).run(
            bench, events=edited
        )
        assert assembled.data.tobytes() == scratch.data.tobytes()
