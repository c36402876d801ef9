"""Cross-validation of the analytic and exact-trace pointer-chase engines.

The data-cache benchmark uses the closed-form steady state; these tests run
the same configurations through per-access LRU simulation (randomized chase
orders, warm-up passes, round-robin thread interleaving at the shared L3)
and require agreement — the evidence that the fast engine is not an
approximation in the regimes the benchmark uses.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cat.dcache import DCacheBenchmark
from repro.cat.dtlb import DTLBBenchmark
from repro.hardware.cache import CacheConfig
from repro.hardware.cpu import CPUConfig, PointerChase, SimulatedCPU
from repro.hardware.systems import aurora_node, frontier_cpu_node

CACHE_KEYS = (
    "cache.l1d.demand_hit",
    "cache.l1d.demand_miss",
    "cache.l2.demand_rd_hit",
    "cache.l2.demand_rd_miss",
    "cache.l3.hit",
    "cache.l3.miss",
)


@pytest.fixture(scope="module")
def small_cpu():
    """A downsized node so exact traces stay fast: L1 32 lines, L2 256,
    shared L3 1024."""
    return SimulatedCPU(
        CPUConfig(
            l1d=CacheConfig("L1D", 2 * 1024, 64, 2),
            l2=CacheConfig("L2", 16 * 1024, 64, 4),
            l3=CacheConfig("L3", 64 * 1024, 64, 4),
        )
    )


REGIMES = {
    "l1_resident": 16,
    "l2_resident": 128,
    "l3_resident": 384,  # 2 threads x 384 = 768 lines <= 1024 L3 capacity
    "memory_bound": 4096,
}


class TestEnginesAgree:
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_per_access_rates_match(self, small_cpu, regime):
        chase = PointerChase(n_pointers=REGIMES[regime], n_threads=2)
        analytic = small_cpu.run_pointer_chase(chase)
        trace = small_cpu.run_pointer_chase_trace(chase, seed=7)
        for t in range(chase.n_threads):
            for key in CACHE_KEYS:
                assert analytic[t].get(key) == pytest.approx(
                    trace[t].get(key), abs=1e-12
                ), (regime, t, key)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_trace_engine_is_order_independent_in_steady_state(self, small_cpu, seed):
        """LRU steady-state rates for a cyclic walk do not depend on the
        (randomized) chase order — the property the closed form relies on."""
        chase = PointerChase(n_pointers=128, n_threads=1)
        reference = small_cpu.run_pointer_chase_trace(chase, seed=100)
        other = small_cpu.run_pointer_chase_trace(chase, seed=seed)
        for key in CACHE_KEYS:
            assert reference[0].get(key) == other[0].get(key), key

    def test_shared_l3_contention_matches(self, small_cpu):
        """Globally over-committed L3: both engines report universal misses."""
        chase = PointerChase(n_pointers=768, n_threads=2)  # 1536 > 1024
        analytic = small_cpu.run_pointer_chase(chase)
        trace = small_cpu.run_pointer_chase_trace(chase, seed=3)
        for acts in (analytic, trace):
            assert acts[0].get("cache.l3.miss") == pytest.approx(1.0)

    def test_stride_two_lines(self, small_cpu):
        chase = PointerChase(n_pointers=64, stride_bytes=128, n_threads=1)
        analytic = small_cpu.run_pointer_chase(chase)
        trace = small_cpu.run_pointer_chase_trace(chase, seed=5)
        for key in CACHE_KEYS:
            assert analytic[0].get(key) == pytest.approx(trace[0].get(key))

    def test_default_node_small_config_sanity(self):
        """The full-size node agrees too on a quick configuration."""
        cpu = SimulatedCPU()
        chase = PointerChase(n_pointers=512, n_threads=2)  # L1-resident
        analytic = cpu.run_pointer_chase(chase)
        trace = cpu.run_pointer_chase_trace(chase, seed=11)
        assert analytic[0].get("cache.l1d.demand_hit") == pytest.approx(
            trace[0].get("cache.l1d.demand_hit")
        )


def _per_thread_reference(cpu, chase):
    """The per-thread closed form the analytic engine replaced.

    Every thread's private L1/L2 is walked separately and the shared L3
    decides over the concatenation of all threads' survivors.  The engine
    walks thread 0 only and scales its L3 occupancy by the thread count;
    the two must agree to the byte.
    """
    cfg = cpu.config
    stride_lines = max(1, chase.stride_bytes // cfg.l1d.line_bytes)

    def steady(lines, level):
        sets = lines & (level.n_sets - 1)
        missed = np.bincount(sets, minlength=level.n_sets)[sets] > level.ways
        return int(lines.size - missed.sum()), lines[missed]

    private = []
    for t in range(chase.n_threads):
        lines = (t << 26) + np.arange(chase.n_pointers, dtype=np.int64) * stride_lines
        l1_hits, l2_in = steady(lines, cfg.l1d)
        l2_hits, l3_in = steady(l2_in, cfg.l2)
        private.append((int(lines.size), l1_hits, int(l2_in.size), l2_hits, l3_in))
    mask = cfg.l3.n_sets - 1
    all_l3 = np.concatenate([p[4] for p in private])
    overfull = np.bincount(all_l3 & mask, minlength=cfg.l3.n_sets) > cfg.l3.ways
    activities = []
    for accesses, l1_hits, l2_accesses, l2_hits, l3_in in private:
        l3_misses = int(overfull[l3_in & mask].sum())
        activities.append(
            cpu._chase_activity(
                chase,
                l1_hits,
                accesses - l1_hits,
                l2_hits,
                l2_accesses - l2_hits,
                int(l3_in.size) - l3_misses,
                l3_misses,
            )
        )
    return activities


def _assert_byte_equal(actual, expected):
    assert len(actual) == len(expected)
    for t, (a, e) in enumerate(zip(actual, expected)):
        assert pickle.dumps(a.as_dict()) == pickle.dumps(e.as_dict()), t


@st.composite
def _chase_cases(draw):
    def level(name, max_log_sets):
        ways = draw(st.sampled_from((1, 2, 3, 4, 8, 12, 16)))
        n_sets = 1 << draw(st.integers(0, max_log_sets))
        return CacheConfig(name, n_sets * 64 * ways, 64, ways)

    config = CPUConfig(l1d=level("L1D", 6), l2=level("L2", 9), l3=level("L3", 10))
    n_threads = draw(st.integers(1, 16))
    stride = draw(
        st.one_of(st.integers(3, 14).map(lambda k: 1 << k), st.integers(8, 16384))
    )
    # Distinct lines per thread landing in each region of the hierarchy.
    l1 = config.l1d.capacity_lines
    l2 = max(l1, config.l2.capacity_lines)
    l3_share = max(l2, config.l3.capacity_lines // n_threads)
    lo, hi = draw(
        st.sampled_from(
            ((1, l1), (l1 + 1, l2 + 1), (l2 + 1, l3_share + 1), (l3_share + 1, 4 * l3_share))
        )
    )
    n_pointers = draw(st.integers(lo, hi))
    return config, PointerChase(n_pointers, stride_bytes=stride, n_threads=n_threads)


class TestAnalyticEngineMatchesPerThreadReference:
    @settings(max_examples=80, deadline=None)
    @given(_chase_cases())
    def test_property_byte_equal_activities(self, case):
        config, chase = case
        cpu = SimulatedCPU(config)
        _assert_byte_equal(
            cpu.run_pointer_chase(chase), _per_thread_reference(cpu, chase)
        )

    @pytest.mark.parametrize("node_factory", [aurora_node, frontier_cpu_node])
    def test_benchmarks_on_shipped_nodes(self, node_factory):
        cpu = node_factory().machine
        for benchmark in (
            DCacheBenchmark(),
            DCacheBenchmark(cpu_config=cpu.config),
            DTLBBenchmark(),
        ):
            rows = benchmark.execute(cpu)
            assert len(rows) == len(benchmark._rows)
            for row, (_, _, chase) in zip(rows, benchmark._rows):
                _assert_byte_equal(row, _per_thread_reference(cpu, chase))
