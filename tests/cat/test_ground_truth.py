"""Ground truth once per machine: the runner's per-process activity memo.

A CAT kernel's activity depends on the benchmark's constructor parameters
and the machine's type and config, never on the node seed.  The runner
memoizes each benchmark's activities and packed activity matrix under that
key; these tests hold the premise (seed independence), the result (a warm
measurement is byte-identical to a cold one), and the key (it separates
everything that changes the activity, and never a forged registry's
counts).
"""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.cat import (
    BenchmarkRunner,
    BranchBenchmark,
    CPUFlopsBenchmark,
    DCacheBenchmark,
    GPUFlopsBenchmark,
)
from repro.cat.runner import _MEMO, _ground_truth
from repro.core.pipeline import AnalysisPipeline
from repro.core.sweep import SWEEP_SYSTEMS, SYSTEM_DOMAINS
from repro.hardware import aurora_node, frontier_node
from repro.hardware.cache import CacheConfig
from repro.hardware.cpu import CPUConfig
from repro.incr import column_key
from repro.io.cache import measurement_cache_key
from repro.vet import forge_registry

PAIRS = [
    (system, domain)
    for system in sorted(SYSTEM_DOMAINS)
    for domain in SYSTEM_DOMAINS[system]
]


def _benchmark(system, domain, seed=2024):
    node = SWEEP_SYSTEMS[system](seed=seed)
    return node, AnalysisPipeline.for_domain(domain, node).benchmark


@pytest.fixture
def cold():
    """Start from an empty memo; leave it empty for the next test."""
    _MEMO.clear()
    yield
    _MEMO.clear()


@pytest.mark.parametrize("system,domain", PAIRS)
def test_activities_do_not_depend_on_the_seed(system, domain):
    pickles = {
        pickle.dumps(benchmark.execute(node.machine))
        for node, benchmark in (
            _benchmark(system, domain, seed) for seed in (1, 2, 2024)
        )
    }
    assert len(pickles) == 1


@pytest.mark.parametrize("system,domain", PAIRS)
def test_warm_measurement_is_byte_identical_to_cold(system, domain, cold):
    node, benchmark = _benchmark(system, domain)
    first = BenchmarkRunner(node).run(benchmark)
    assert _ground_truth(benchmark, node.machine)[1], "the first run stored nothing"
    node, benchmark = _benchmark(system, domain)
    warm = BenchmarkRunner(node).run(benchmark)
    assert warm.data.tobytes() == first.data.tobytes()
    assert warm.pmu_runs == first.pmu_runs


def test_runner_span_records_hit_or_miss(cold):
    node = aurora_node(seed=3)
    attrs, counters = [], []
    for _ in range(2):
        with obs.tracing(seed=3) as tracer:
            BenchmarkRunner(node).run(BranchBenchmark())
        trace = tracer.trace()
        attrs += [s.attrs["ground_truth"] for s in trace.spans if s.name == "runner-run"]
        counters.append(trace.counter_totals())
    assert attrs == ["miss", "hit"]
    # A counter would make pinned totals depend on test order.
    assert counters[0] == counters[1]


def test_forged_registry_measured_warm_keeps_forged_counts(cold):
    target = "FP_ARITH_INST_RETIRED:512B_PACKED_DOUBLE"
    node = aurora_node(seed=2024)
    benchmark = CPUFlopsBenchmark()
    runner = BenchmarkRunner(node)
    clean = runner.select_events(benchmark)
    forged = forge_registry(clean, {target: ("overcount", 1.5)})
    assert forged.content_digest() == clean.content_digest()

    clean_run = runner.run(benchmark, events=clean)
    warm = runner.run(benchmark, events=forged)
    _MEMO.clear()
    cold_forged = runner.run(benchmark, events=forged)

    assert warm.data.tobytes() == cold_forged.data.tobytes()
    column = clean_run.event_index(target)
    np.testing.assert_array_equal(
        warm.data[..., column], 1.5 * clean_run.data[..., column]
    )
    assert np.any(clean_run.data[..., column] != 0.0)


def test_machines_never_share_an_entry(cold):
    aurora, aurora_bench = _benchmark("aurora", "dcache")
    trento, trento_bench = _benchmark("frontier-cpu", "dcache")
    assert _ground_truth(aurora_bench, aurora.machine)[0] is not (
        _ground_truth(trento_bench, trento.machine)[0]
    )

    # Same benchmark, same machine type, a different L3: its own entry.
    benchmark = DCacheBenchmark()
    big_l3 = aurora_node(
        config=CPUConfig(l3=CacheConfig("L3", 128 * 1024 * 1024, 64, 16))
    )
    stock, _ = _ground_truth(benchmark, aurora_node().machine)
    bigger, hit = _ground_truth(benchmark, big_l3.machine)
    assert not hit
    assert pickle.dumps(stock.activities) != pickle.dumps(bigger.activities)


def test_memoized_arrays_are_read_only(cold):
    node = aurora_node()
    benchmark = DCacheBenchmark(n_threads=2)
    runner = BenchmarkRunner(node)
    runner.run(benchmark)
    truth, _ = _ground_truth(benchmark, node.machine)
    matrix = truth.packed(runner.select_events(benchmark).weight_matrix())
    assert not matrix.flags.writeable
    with pytest.raises(ValueError):
        matrix[0, 0] = 1.0
    assert isinstance(truth.activities, tuple)
    assert all(isinstance(row, tuple) for row in truth.activities)


def test_concurrent_measurements_of_one_key_agree(cold):
    reference = BenchmarkRunner(aurora_node(seed=11)).run(DCacheBenchmark())
    _MEMO.clear()
    barrier = threading.Barrier(4)
    results, errors = [None] * 4, []

    def measure(slot):
        try:
            barrier.wait(timeout=30)
            node = aurora_node(seed=11)
            results[slot] = BenchmarkRunner(node).run(DCacheBenchmark())
        except Exception as exc:  # reported below: a thread cannot raise into the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=measure, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for result in results:
        assert result.data.tobytes() == reference.data.tobytes()


class TestBenchmarkParametersAreKeyed:
    def test_default_key_is_unchanged(self):
        node = aurora_node(seed=7)
        benchmark = BranchBenchmark()
        events = BenchmarkRunner(node).select_events(benchmark)
        assert measurement_cache_key(node, benchmark, events, 5) == (
            "fd5773cdf1568c8cb9cabc7369b1a4a630ef80bf6bf8390723bb244180900c4d"
        )

    @pytest.mark.parametrize(
        "make_node,default,changed,activity_key",
        [
            (aurora_node, BranchBenchmark(), BranchBenchmark(int_ops_per_iter=7.0), "instr.int"),
            (aurora_node, CPUFlopsBenchmark(), CPUFlopsBenchmark(int_ops_per_iter=7.0), "instr.int"),
            (
                frontier_node,
                GPUFlopsBenchmark(),
                GPUFlopsBenchmark(salu_ops_per_iter=1.0),
                "gpu.salu",
            ),
        ],
        ids=["branch", "cpu_flops", "gpu_flops"],
    )
    def test_non_default_parameters_change_key_and_entry(
        self, make_node, default, changed, activity_key, cold
    ):
        node = make_node(seed=7)
        events = BenchmarkRunner(node).select_events(default)
        event = next(iter(events))
        assert measurement_cache_key(node, default, events, 5) != (
            measurement_cache_key(node, changed, events, 5)
        )
        assert column_key(node, default, event, 5) != column_key(node, changed, event, 5)

        stock, _ = _ground_truth(default, node.machine)
        other, hit = _ground_truth(changed, node.machine)
        assert not hit
        assert stock.activities[0][0].get(activity_key) != (
            other.activities[0][0].get(activity_key)
        )
