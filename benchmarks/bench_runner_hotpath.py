"""EXP-PERF1: the measurement hot path — vectorized runner vs scalar loop.

The measure stage dominates every sweep: ~300 events over all kernel rows,
threads and repetitions.  Its Python-interpreter cost used to live in the
true-count evaluation — a per-(thread, row, event) triple loop over
``event.true_count`` — which this repo replaced with the packed
weight-matrix product.  This bench times that stage on the full Sapphire
Rapids catalog against the pre-vectorization reference loop (reproduced
here so the speedup stays measurable after the code moved on), checks the
two produce bit-identical counts, and writes the timings to
``runner_hotpath.csv`` under pytest's ``tmp_path`` (the committed
``results/runner_hotpath.csv`` is a reference run; a run of this bench
leaves the tree clean).

Rows written:

* ``truecount_scalar`` / ``truecount_vectorized`` — the measurement
  stage this PR vectorizes (speedup asserted >= 3x);
* ``run_scalar`` / ``run_vectorized`` — whole ``BenchmarkRunner.run``
  equivalents, including the stages both variants share (kernel
  execution, PMU scheduling, per-event noise draws);
* ``run_cached`` — a content-addressed cache hit, which skips
  measurement entirely (asserted: the benchmark is never executed).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cat import BenchmarkRunner, CPUFlopsBenchmark
from repro.cat.measurement import MeasurementSet
from repro.io.cache import MeasurementCache, measurement_cache_key
from repro.io.tables import write_csv
from repro.hardware.systems import aurora_node


def _scalar_true_counts(event_list, activities, n_threads, n_rows):
    """The pre-PR true-count stage: the Python triple loop."""
    true_counts = np.zeros((n_threads, n_rows, len(event_list)))
    for thread in range(n_threads):
        for row, row_acts in enumerate(activities):
            activity = row_acts[thread]
            for j, event in enumerate(event_list):
                true_counts[thread, row, j] = event.true_count(activity)
    return true_counts


def _vectorized_true_counts(packed, activities, n_threads, n_rows):
    """The current true-count stage: packed activity x weight product."""
    flat = [row_acts[thread] for thread in range(n_threads) for row_acts in activities]
    matrix = packed.pack_activities(flat)
    counts = packed.true_counts(matrix)
    for j, event in packed.fallback:
        for i, activity in enumerate(flat):
            counts[i, j] = event.true_count(activity)
    return counts.reshape(n_threads, n_rows, len(packed.events))


def _scalar_reference_run(runner, bench, registry) -> MeasurementSet:
    """The pre-PR measurement loop end to end (noise stage unchanged)."""
    event_list = list(registry)
    activities = bench.execute(runner.node.machine)
    n_rows = len(activities)
    n_threads = max(len(row) for row in activities)
    schedule = runner.node.pmu.schedule(event_list)

    true_counts = _scalar_true_counts(event_list, activities, n_threads, n_rows)
    data = np.zeros((runner.repetitions, n_threads, n_rows, len(event_list)))
    batch_shape = (runner.repetitions, n_threads, n_rows)
    for j, event in enumerate(event_list):
        if event.noise.is_deterministic:
            data[:, :, :, j] = true_counts[:, :, j][None, :, :]
            continue
        rng = runner._rng(event.full_name)
        tiled = np.broadcast_to(true_counts[:, :, j], batch_shape)
        data[:, :, :, j] = event.noise.apply_batch(tiled, rng)

    return MeasurementSet(
        benchmark=bench.name,
        row_labels=bench.row_labels(),
        event_names=[e.full_name for e in event_list],
        data=data,
        pmu_runs=schedule.n_runs,
    )


def _best_of(fn, repeats=5):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="module")
def node():
    return aurora_node()


def test_runner_hotpath_speedup_and_cache(node, tmp_path):
    bench = CPUFlopsBenchmark()
    runner = BenchmarkRunner(node, repetitions=5)
    # Full catalog, not just the domain sweep: the worst (realistic) case.
    registry = node.events
    event_list = list(registry)
    packed = registry.weight_matrix()  # built once per registry, cached
    activities = bench.execute(node.machine)
    n_rows = len(activities)
    n_threads = max(len(row) for row in activities)

    # --- the measurement stage this PR vectorized ---------------------
    scalar_tc_s, scalar_tc = _best_of(
        lambda: _scalar_true_counts(event_list, activities, n_threads, n_rows)
    )
    vector_tc_s, vector_tc = _best_of(
        lambda: _vectorized_true_counts(packed, activities, n_threads, n_rows)
    )
    assert np.array_equal(scalar_tc, vector_tc)  # bit-identical counts
    stage_speedup = scalar_tc_s / vector_tc_s
    assert stage_speedup >= 3.0, (
        f"vectorized true-count stage only {stage_speedup:.1f}x faster "
        f"({scalar_tc_s * 1e3:.2f}ms -> {vector_tc_s * 1e3:.2f}ms)"
    )

    # --- whole runs (shared stages included) --------------------------
    scalar_run_s, scalar_ms = _best_of(
        lambda: _scalar_reference_run(runner, bench, registry)
    )
    vector_run_s, vector_ms = _best_of(lambda: runner.run(bench, events=registry))
    assert np.array_equal(scalar_ms.data, vector_ms.data)
    assert scalar_ms.event_names == vector_ms.event_names

    # --- cache hit: measurement skipped entirely ----------------------
    cache = MeasurementCache()
    key = measurement_cache_key(node, bench, registry, runner.repetitions)
    cache.put(key, vector_ms)
    executed = []
    original_execute = bench.execute

    def tracked_execute(machine):
        executed.append(1)
        return original_execute(machine)

    bench.execute = tracked_execute
    try:
        cached_s, cached_ms = _best_of(
            lambda: cache.get_or_measure(
                key, lambda: runner.run(bench, events=registry)
            )
        )
    finally:
        bench.execute = original_execute
    assert cached_ms is vector_ms
    assert not executed, "cache hit must not re-execute the benchmark"

    write_csv(
        tmp_path / "runner_hotpath.csv",
        ["variant", "seconds", "speedup_vs_scalar"],
        [
            ["truecount_scalar", f"{scalar_tc_s:.6f}", "1.00"],
            [
                "truecount_vectorized",
                f"{vector_tc_s:.6f}",
                f"{stage_speedup:.2f}",
            ],
            ["run_scalar", f"{scalar_run_s:.6f}", "1.00"],
            [
                "run_vectorized",
                f"{vector_run_s:.6f}",
                f"{scalar_run_s / vector_run_s:.2f}",
            ],
            [
                "run_cached",
                f"{cached_s:.6f}",
                f"{scalar_run_s / max(cached_s, 1e-9):.2f}",
            ],
        ],
    )


def test_vectorized_determinism_across_runs(node):
    bench = CPUFlopsBenchmark()
    a = BenchmarkRunner(node, repetitions=3).run(bench, events=node.events)
    b = BenchmarkRunner(node, repetitions=3).run(bench, events=node.events)
    assert np.array_equal(a.data, b.data)
    assert a.pmu_runs == b.pmu_runs
