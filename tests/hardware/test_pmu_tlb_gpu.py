"""Tests for the PMU scheduler, TLB model, GPU machine and system configs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.activity import Activity, valu_instr_key
from repro.events import EventDomain, RawEvent
from repro.hardware import GPUKernel, PMU, SimulatedGPU, aurora_node, frontier_node
from repro.hardware.tlb import TLBConfig, tlb_activity


def _evt(name, qualifier=""):
    return RawEvent(name=name, qualifier=qualifier, domain=EventDomain.OTHER, response={"a": 1.0})


def _reference_schedule(events, programmable, fixed):
    """The quadratic first-fit scheduler: every event rescans every group
    from the first.  ``PMU.schedule`` must produce the same groups."""
    groups, prog_used, fixed_used = [], [], []
    for event in events:
        eligible_fixed = event.name in ("INST_RETIRED", "CPU_CLK_UNHALTED", "TOPDOWN")
        placed = False
        for i in range(len(groups)):
            if eligible_fixed and fixed_used[i] < fixed:
                groups[i].append(event)
                fixed_used[i] += 1
                placed = True
                break
            if prog_used[i] < programmable:
                groups[i].append(event)
                prog_used[i] += 1
                placed = True
                break
        if not placed:
            groups.append([event])
            if eligible_fixed and fixed > 0:
                prog_used.append(0)
                fixed_used.append(1)
            else:
                prog_used.append(1)
                fixed_used.append(0)
    return groups


class TestPMUScheduling:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from(["INST_RETIRED", "CPU_CLK_UNHALTED", "TOPDOWN", "OTHER"]),
            max_size=60,
        ),
        st.integers(1, 9),
        st.integers(0, 4),
    )
    def test_first_fit_matches_reference(self, names, programmable, fixed):
        events = [_evt(name, f"Q{i}") for i, name in enumerate(names)]
        schedule = PMU(programmable, fixed).schedule(events)
        expected = _reference_schedule(events, programmable, fixed)
        assert [[e.full_name for e in g] for g in schedule.groups] == [
            [e.full_name for e in g] for g in expected
        ]

    def test_small_sets_fit_one_group(self):
        pmu = PMU(programmable_counters=8)
        schedule = pmu.schedule([_evt(f"E{i}") for i in range(8)])
        assert schedule.n_runs == 1

    def test_overflow_spills_to_new_group(self):
        pmu = PMU(programmable_counters=4, fixed_counters=0)
        schedule = pmu.schedule([_evt(f"E{i}") for i in range(9)])
        assert schedule.n_runs == 3
        assert sum(len(g) for g in schedule.groups) == 9

    def test_fixed_counters_host_architectural_events(self):
        pmu = PMU(programmable_counters=1, fixed_counters=2)
        events = [
            _evt("INST_RETIRED", "ANY"),
            _evt("CPU_CLK_UNHALTED", "THREAD"),
            _evt("SOMETHING_ELSE"),
        ]
        schedule = pmu.schedule(events)
        # The two fixed-eligible events ride fixed counters: 1 group total.
        assert schedule.n_runs == 1

    def test_read_covers_all_events(self):
        pmu = PMU(programmable_counters=2, fixed_counters=0)
        events = [_evt(f"E{i}") for i in range(5)]
        readings = pmu.read(events, Activity({"a": 7.0}), lambda e: None)
        assert len(readings) == 5
        assert all(v == 7.0 for v in readings.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            PMU(programmable_counters=0)
        with pytest.raises(ValueError):
            PMU(fixed_counters=-1)


class TestTLB:
    def test_fitting_pages_all_hit(self):
        act = tlb_activity(64 * 4096, 1000, TLBConfig(entries=64))
        assert act["tlb.walks"] == 0.0
        assert act["tlb.dtlb_load_miss"] == 0.0

    def test_stlb_covers_midsize(self):
        act = tlb_activity(1000 * 4096, 1000, TLBConfig(entries=64, stlb_entries=2048))
        assert act["tlb.dtlb_load_miss"] > 0
        assert act["tlb.stlb_hit"] > 0
        assert act["tlb.walks"] == 0.0

    def test_walks_beyond_stlb(self):
        act = tlb_activity(4000 * 4096, 10000, TLBConfig(entries=64, stlb_entries=2048))
        assert act["tlb.walks"] == 4000.0
        assert act["tlb.walk_cycles"] > 0

    def test_zero_footprint(self):
        act = tlb_activity(0, 0)
        assert act["tlb.walks"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TLBConfig(entries=0)
        with pytest.raises(ValueError):
            tlb_activity(-1, 10)


class TestSimulatedGPU:
    def test_valu_counts_pass_through(self):
        gpu = SimulatedGPU()
        act = gpu.run(GPUKernel("k", valu_ops={valu_instr_key("fma", "f64"): 24.0}))
        assert act.get("gpu.valu.fma.f64") == 24.0
        assert act.get("gpu.valu.total") == 24.0

    def test_loop_overhead(self):
        act = SimulatedGPU().run(GPUKernel("k"))
        assert act.get("gpu.salu") == 3.0
        assert act.get("gpu.branch") == 1.0

    def test_trans_pipe_is_slower(self):
        gpu = SimulatedGPU()
        mul = gpu.run(GPUKernel("m", valu_ops={valu_instr_key("mul", "f32"): 48.0}))
        sqrt = gpu.run(GPUKernel("s", valu_ops={valu_instr_key("trans", "f32"): 48.0}))
        assert sqrt.get("gpu.cycles") > mul.get("gpu.cycles")

    def test_f64_penalty(self):
        gpu = SimulatedGPU()
        f32 = gpu.run(GPUKernel("a", valu_ops={valu_instr_key("add", "f32"): 48.0}))
        f64 = gpu.run(GPUKernel("b", valu_ops={valu_instr_key("add", "f64"): 48.0}))
        assert f64.get("gpu.cycles") > f32.get("gpu.cycles")

    def test_determinism(self):
        k = GPUKernel("k", valu_ops={valu_instr_key("add", "f16"): 96.0})
        assert SimulatedGPU().run(k).as_dict() == SimulatedGPU().run(k).as_dict()


class TestSystems:
    def test_aurora_is_cpu(self):
        node = aurora_node()
        assert not node.is_gpu
        assert len(node.events) > 200
        assert "FP_ARITH_INST_RETIRED:SCALAR_DOUBLE" in node.events

    def test_frontier_is_gpu(self):
        node = frontier_node()
        assert node.is_gpu
        assert len(node.events) > 1000

    def test_seed_propagates(self):
        assert aurora_node(seed=7).seed == 7
