"""Tests for the measurement container and the benchmark runner."""

import numpy as np
import pytest

from repro.cat import BenchmarkRunner, BranchBenchmark, DCacheBenchmark, MeasurementSet
from repro.events import EventDomain
from repro.hardware import aurora_node


def _ms(data, **kw):
    data = np.asarray(data, dtype=float)
    defaults = dict(
        benchmark="t",
        row_labels=[f"r{i}" for i in range(data.shape[2])],
        event_names=[f"e{i}" for i in range(data.shape[3])],
        data=data,
    )
    defaults.update(kw)
    return MeasurementSet(**defaults)


class TestMeasurementSet:
    def test_shape_accessors(self):
        ms = _ms(np.zeros((3, 2, 4, 5)))
        assert (ms.n_repetitions, ms.n_threads, ms.n_rows, ms.n_events) == (3, 2, 4, 5)

    def test_validation(self):
        with pytest.raises(ValueError, match="reps, threads, rows, events"):
            MeasurementSet("t", ["r0"], ["e0"], np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="row labels"):
            MeasurementSet("t", ["r0"], ["e0"], np.zeros((2, 1, 2, 1)))
        with pytest.raises(ValueError, match="event names"):
            MeasurementSet("t", ["r0"], ["e0", "e1"], np.zeros((2, 1, 1, 1)))
        with pytest.raises(ValueError, match="duplicate"):
            MeasurementSet("t", ["r0"], ["e0", "e0"], np.zeros((2, 1, 1, 2)))

    def test_event_index(self):
        ms = _ms(np.zeros((2, 1, 1, 3)))
        assert ms.event_index("e2") == 2
        with pytest.raises(KeyError, match="not measured"):
            ms.event_index("nope")

    def test_repetition_vectors_median_threads(self):
        data = np.zeros((2, 3, 1, 1))
        data[:, :, 0, 0] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        vectors = _ms(data).repetition_vectors("e0")
        assert vectors.tolist() == [[2.0], [5.0]]

    def test_mean_vector_averages_repetitions(self):
        data = np.zeros((2, 1, 2, 1))
        data[0, 0, :, 0] = [1.0, 3.0]
        data[1, 0, :, 0] = [3.0, 5.0]
        assert _ms(data).mean_vector("e0").tolist() == [2.0, 4.0]

    def test_measurement_matrix_shape(self):
        ms = _ms(np.random.default_rng(0).random((3, 2, 4, 5)))
        assert ms.measurement_matrix().shape == (4, 5)

    def test_select_events_preserves_order(self):
        data = np.arange(2 * 1 * 1 * 3, dtype=float).reshape(2, 1, 1, 3)
        sub = _ms(data).select_events(["e2", "e0"])
        assert sub.event_names == ["e2", "e0"]
        assert sub.data[0, 0, 0, :].tolist() == [2.0, 0.0]


class TestBenchmarkRunner:
    @pytest.fixture(scope="class")
    def node(self):
        return aurora_node(seed=99)

    def test_requires_two_repetitions(self, node):
        with pytest.raises(ValueError):
            BenchmarkRunner(node, repetitions=1)

    def test_run_is_bit_reproducible(self, node):
        bench = BranchBenchmark()
        a = BenchmarkRunner(node, repetitions=2).run(bench)
        b = BenchmarkRunner(node, repetitions=2).run(bench)
        assert np.array_equal(a.data, b.data)

    def test_different_seed_changes_noisy_readings_only(self, node):
        bench = BranchBenchmark()
        a = BenchmarkRunner(node, repetitions=2).run(bench)
        other = aurora_node(seed=100)
        b = BenchmarkRunner(other, repetitions=2).run(bench)
        i_exact = a.event_names.index("BR_INST_RETIRED:COND")
        i_noisy = a.event_names.index("CPU_CLK_UNHALTED:THREAD")
        assert np.array_equal(a.data[..., i_exact], b.data[..., i_exact])
        assert not np.array_equal(a.data[..., i_noisy], b.data[..., i_noisy])

    def test_deterministic_events_identical_across_repetitions(self, node):
        ms = BenchmarkRunner(node, repetitions=3).run(BranchBenchmark())
        idx = ms.event_names.index("BR_INST_RETIRED:COND_TAKEN")
        assert np.array_equal(ms.data[0, ..., idx], ms.data[1, ..., idx])
        assert np.array_equal(ms.data[0, ..., idx], ms.data[2, ..., idx])

    def test_domain_scoping(self, node):
        runner = BenchmarkRunner(node, repetitions=2)
        registry = runner.select_events(BranchBenchmark())
        domains = {e.domain for e in registry}
        assert EventDomain.BRANCH in domains
        assert EventDomain.CACHE not in domains

    def test_explicit_event_registry(self, node):
        runner = BenchmarkRunner(node, repetitions=2)
        events = node.events.select(prefix="BR_MISP_RETIRED")
        ms = runner.run(BranchBenchmark(), events=events)
        assert all(n.startswith("BR_MISP_RETIRED") for n in ms.event_names)

    def test_empty_event_selection_rejected(self, node):
        runner = BenchmarkRunner(node, repetitions=2)
        with pytest.raises(ValueError, match="no events"):
            runner.run(BranchBenchmark(), events=node.events.select(prefix="ZZZ"))

    def test_pmu_runs_recorded(self, node):
        ms = BenchmarkRunner(node, repetitions=2).run(BranchBenchmark())
        # ~130 events over 8 programmable + 3 fixed counters needs many runs.
        assert ms.pmu_runs > 10

    def test_environment_noise_perturbs_exact_events(self, node):
        bench = DCacheBenchmark(
            footprints=[("L1", 16 * 1024)], n_threads=2
        )
        ms = BenchmarkRunner(node, repetitions=2).run(bench)
        idx = ms.event_names.index("MEM_INST_RETIRED:ALL_LOADS")
        # Without environment noise this retired count would be bit-exact;
        # the multithreaded benchmark jitters it.
        assert not np.array_equal(ms.data[0, ..., idx], ms.data[1, ..., idx])
