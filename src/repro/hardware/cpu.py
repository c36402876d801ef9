"""Simulated CPU: executes CAT kernel requests and reports ground-truth
microarchitectural activity.

Two workload shapes cover all of CAT:

* :meth:`SimulatedCPU.run_compute` — register-resident compute kernels
  (the FLOPs and branching benchmarks).  FP activity comes straight from
  the kernel's declared instruction mix; branch activity comes from a real
  predictor simulation (:mod:`repro.hardware.branch`); pipeline costs from
  :mod:`repro.hardware.fpu`.
* :meth:`SimulatedCPU.run_pointer_chase` — the data-cache benchmark.
  Demand traffic comes from the cache hierarchy's cyclic steady state
  (:mod:`repro.hardware.cache`), with private L1/L2 per thread and a
  shared L3 in which all threads' surviving lines contend.  Thread *t*'s
  buffer is thread 0's shifted by ``t * THREAD_REGION_LINES``, a multiple
  of every level's set count (checked by :class:`CPUConfig`), so all
  threads fill every set alike: one private walk serves every thread,
  and the shared L3 holds ``n_threads`` times thread 0's survivors in
  each set.

All counts are reported *per iteration* (compute kernels) or *per access*
(pointer chase), matching the per-iteration expectation vectors of the
paper's Section III.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.activity import Activity
from repro.hardware.branch import BranchSpec, BranchUnit
from repro.hardware.cache import CacheConfig, CacheHierarchy, CacheLevel
from repro.hardware.fpu import FPUConfig, fp_pipeline_activity
from repro.hardware.tlb import TLBConfig, tlb_activity

__all__ = ["CPUConfig", "ComputeKernel", "PointerChase", "SimulatedCPU"]

#: Lines between the starts of consecutive threads' chase buffers (4 GiB
#: of 64 B lines).
THREAD_REGION_LINES = 1 << 26


@dataclass(frozen=True)
class CPUConfig:
    """Geometry of the simulated core and memory hierarchy."""

    name: str = "intel_sapphire_rapids"
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 48 * 1024, 64, 12)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 2 * 1024 * 1024, 64, 16)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig("L3", 32 * 1024 * 1024, 64, 16)
    )
    fpu: FPUConfig = field(default_factory=FPUConfig)
    tlb: TLBConfig = field(default_factory=TLBConfig)
    branch_history_bits: int = 4
    # Pointer-chase latency model (cycles per access by deepest level hit).
    l1_latency: float = 5.0
    l2_latency: float = 16.0
    l3_latency: float = 50.0
    mem_latency: float = 150.0

    def __post_init__(self) -> None:
        # Thread symmetry: buffers THREAD_REGION_LINES apart must fill
        # every set of every level alike.
        for level in ("l1d", "l2", "l3"):
            n_sets = getattr(self, level).n_sets
            if THREAD_REGION_LINES % n_sets:
                raise ValueError(
                    f"{level}: {n_sets} sets do not divide the "
                    f"{THREAD_REGION_LINES}-line per-thread region"
                )


@dataclass(frozen=True)
class ComputeKernel:
    """A register-resident CAT microkernel body (one loop configuration).

    ``fp_ops`` maps FP activity keys to per-iteration instruction counts.
    ``branches`` lists every static branch including the loop back-branch.
    """

    name: str
    fp_ops: Mapping[str, float] = field(default_factory=dict)
    int_ops: float = 2.0
    nops: float = 0.0
    branches: Tuple[BranchSpec, ...] = (BranchSpec("taken"),)


@dataclass(frozen=True)
class PointerChase:
    """One thread-replicated pointer-chase configuration.

    ``n_pointers`` nodes, one per touched cache line, spaced
    ``stride_bytes`` apart; each of ``n_threads`` threads walks its own
    disjoint buffer.  ``pointers_per_block`` is carried through for CAT
    parity (it fixes the chase's block structure; the analytic engine
    depends only on the touched line set).
    """

    n_pointers: int
    stride_bytes: int = 64
    n_threads: int = 8
    pointers_per_block: int = 512

    def __post_init__(self) -> None:
        if self.n_pointers <= 0:
            raise ValueError("n_pointers must be positive")
        if self.stride_bytes < 8:
            raise ValueError("stride_bytes must cover at least a pointer")
        if self.n_threads <= 0:
            raise ValueError("n_threads must be positive")

    @property
    def footprint_bytes(self) -> int:
        return self.n_pointers * self.stride_bytes


class SimulatedCPU:
    """One Aurora-style compute node's worth of CPU substrate."""

    def __init__(self, config: CPUConfig = CPUConfig()):
        self.config = config
        self._branch_unit = BranchUnit(history_bits=config.branch_history_bits)

    # ------------------------------------------------------------------
    # Compute kernels (FLOPs / branching benchmarks)
    # ------------------------------------------------------------------
    def run_compute(self, kernel: ComputeKernel) -> Activity:
        """Execute a compute kernel; per-iteration activity record."""
        counts: Dict[str, float] = {}
        fp_total = 0.0
        for key, value in kernel.fp_ops.items():
            counts[key] = counts.get(key, 0.0) + float(value)
            fp_total += float(value)

        branch = self._branch_unit.run(kernel.branches)
        counts.update(
            {
                "branch.cond_executed": branch.cond_executed,
                "branch.cond_retired": branch.cond_retired,
                "branch.cond_taken": branch.cond_taken,
                "branch.cond_ntaken": branch.cond_ntaken,
                "branch.uncond_direct": branch.uncond_direct,
                "branch.uncond_indirect": branch.uncond_indirect,
                "branch.call": branch.calls,
                "branch.return": branch.returns,
                "branch.all_retired": branch.all_retired,
                "branch.all_executed": branch.cond_executed
                + branch.uncond_direct
                + branch.uncond_indirect
                + branch.calls
                + branch.returns,
                "branch.mispredicted": branch.mispredicted,
                "branch.misp_taken": branch.misp_taken,
            }
        )

        costs = fp_pipeline_activity(
            kernel.fp_ops, kernel.int_ops, branch.all_retired, self.config.fpu
        )
        counts.update(costs)
        # Mispredicts add recovery time on top of the throughput model.
        counts["cycles.core"] += branch.mispredicted * 15.0
        counts["machine_clears"] = 0.0

        counts["instr.int"] = kernel.int_ops
        counts["instr.nop"] = kernel.nops
        counts["instr.total"] = (
            fp_total + kernel.int_ops + kernel.nops + branch.all_retired
        )
        return Activity(counts)

    # ------------------------------------------------------------------
    # Pointer chase (data-cache benchmark)
    # ------------------------------------------------------------------
    def _thread_lines(self, chase: PointerChase, thread: int) -> np.ndarray:
        """Distinct line numbers a thread touches (disjoint across threads)."""
        stride_lines = max(1, chase.stride_bytes // self.config.l1d.line_bytes)
        span = chase.n_pointers * stride_lines
        if span > THREAD_REGION_LINES:
            raise ValueError(
                f"pointer chase spans {span} lines, more than the "
                f"{THREAD_REGION_LINES}-line per-thread region"
            )
        base = thread * THREAD_REGION_LINES
        return base + np.arange(chase.n_pointers, dtype=np.int64) * stride_lines

    def run_pointer_chase(self, chase: PointerChase) -> List[Activity]:
        """Steady-state per-access activity for each chase thread.

        L1 and L2 are private per thread (CAT pins one thread per core);
        L3 is shared: every thread's L2-missing lines contend in the same
        sets, so a set over-committed *globally* misses for all threads.

        Every thread fills every set exactly as thread 0 does (see
        :data:`THREAD_REGION_LINES`), so the private levels are walked
        once, for thread 0; each shared-L3 set holds ``n_threads`` times
        thread 0's survivors in it, and every thread gets thread 0's
        counts.
        """
        cfg = self.config
        # The hierarchy engine also reports the lines that missed both
        # private levels — the arriving stream of the shared L3.
        private = CacheHierarchy([cfg.l1d, cfg.l2]).cyclic_steady_state(
            self._thread_lines(chase, 0)
        )
        l1 = private.level("L1D")
        l2 = private.level("L2")
        stream = private.survivors
        l3_sets = cfg.l3.set_index(stream)
        l3_per_set = chase.n_threads * np.bincount(l3_sets, minlength=cfg.l3.n_sets)
        l3_misses = int((l3_per_set > cfg.l3.ways)[l3_sets].sum())
        l3_hits = int(stream.size) - l3_misses
        return [
            self._chase_activity(
                chase, l1.hits, l1.misses, l2.hits, l2.misses, l3_hits, l3_misses
            )
            for _ in range(chase.n_threads)
        ]

    def run_pointer_chase_trace(
        self,
        chase: PointerChase,
        seed: int = 0,
        warmup_passes: int = 2,
    ) -> List[Activity]:
        """Exact trace-driven variant of :meth:`run_pointer_chase`.

        Builds each thread's actual randomized chase order, warms the
        caches with complete passes, then measures one pass per thread
        through exact LRU simulation — private L1/L2 per thread, and a
        shared L3 fed by a round-robin interleaving of the threads'
        surviving streams (an explicit model of concurrent execution the
        closed form abstracts away).

        Orders of magnitude slower than the analytic engine; intended for
        validation (the test suite asserts the two agree on the private
        levels and on the fits/thrashes regimes of the shared L3) and for
        experimentation with custom geometries.
        """
        cfg = self.config
        rng = np.random.default_rng(seed)
        orders = [
            self._thread_lines(chase, t)[rng.permutation(chase.n_pointers)]
            for t in range(chase.n_threads)
        ]
        private = [CacheHierarchy([cfg.l1d, cfg.l2]) for _ in range(chase.n_threads)]
        shared_l3 = CacheLevel(cfg.l3)

        totals = np.zeros((chase.n_threads, 6))  # l1h, l1m, l2h, l2m, l3h, l3m
        for pass_idx in range(warmup_passes + 1):
            measuring = pass_idx == warmup_passes
            l3_streams: List[np.ndarray] = []
            for t, hierarchy in enumerate(private):
                trace = orders[t]
                l1_hits = hierarchy.levels[0].simulate_trace(trace)
                l2_in = trace[~l1_hits]
                l2_hits = hierarchy.levels[1].simulate_trace(l2_in)
                l3_streams.append(l2_in[~l2_hits])
                if measuring:
                    totals[t, 0] = float(l1_hits.sum())
                    totals[t, 1] = float(trace.size - l1_hits.sum())
                    totals[t, 2] = float(l2_hits.sum())
                    totals[t, 3] = float(l2_in.size - l2_hits.sum())
            # Round-robin interleave the surviving streams into the shared
            # L3, remembering the owning thread of each access.
            lengths = [s.size for s in l3_streams]
            if any(lengths):
                owners = np.concatenate(
                    [np.full(n, t, dtype=np.int64) for t, n in enumerate(lengths)]
                )
                merged = np.concatenate(l3_streams)
                # Interleave by position: sort by (index within stream, thread).
                position = np.concatenate(
                    [np.arange(n, dtype=np.int64) for n in lengths]
                )
                order = np.lexsort((owners, position))
                l3_hits = shared_l3.simulate_trace(merged[order])
                if measuring:
                    owner_order = owners[order]
                    for t in range(chase.n_threads):
                        mine = owner_order == t
                        totals[t, 4] = float(np.count_nonzero(l3_hits & mine))
                        totals[t, 5] = float(np.count_nonzero(~l3_hits & mine))

        return [
            self._chase_activity(chase, *totals[t]) for t in range(chase.n_threads)
        ]

    def _chase_activity(
        self,
        chase: PointerChase,
        l1_hits: float,
        l1_misses: float,
        l2_hits: float,
        l2_misses: float,
        l3_hits: float,
        l3_misses: float,
    ) -> Activity:
        """Per-access activity record from one thread's per-pass counts."""
        cfg = self.config
        accesses = float(chase.n_pointers)
        per_access = 1.0 / accesses
        tlb = tlb_activity(chase.footprint_bytes, chase.n_pointers, cfg.tlb)
        cycles = (
            l1_hits * cfg.l1_latency
            + l2_hits * cfg.l2_latency
            + l3_hits * cfg.l3_latency
            + l3_misses * cfg.mem_latency
            + tlb["tlb.walk_cycles"]
        )
        act: Dict[str, float] = {
            "mem.loads_retired": 1.0,
            "mem.stores_retired": 0.0,
            "instr.load": 1.0,
            "instr.int": 0.0,
            "instr.total": 2.0,  # load + loop branch
            "branch.cond_retired": 1.0,
            "branch.cond_taken": 1.0,
            "branch.cond_executed": 1.0,
            "branch.all_retired": 1.0,
            "branch.mispredicted": 0.0,
            "cache.l1d.demand_hit": l1_hits * per_access,
            "cache.l1d.demand_miss": l1_misses * per_access,
            "cache.l1d.replacement": l1_misses * per_access,
            "cache.l1d.fb_hit": 0.0,
            "cache.l2.demand_rd_hit": l2_hits * per_access,
            "cache.l2.demand_rd_miss": l2_misses * per_access,
            "cache.l2.all_demand_rd": (l2_hits + l2_misses) * per_access,
            "cache.l2.references": (l2_hits + l2_misses) * per_access,
            "cache.l2.prefetch_req": 0.0,  # the chase defeats prefetchers
            "cache.l3.hit": l3_hits * per_access,
            "cache.l3.miss": l3_misses * per_access,
            "cache.l3.references": (l3_hits + l3_misses) * per_access,
            "cycles.core": cycles * per_access,
            "cycles.ref": cycles * per_access * 0.8,
            "uops.issued": 2.0,
            "uops.retired": 2.0,
            "uops.executed": 2.0,
            "stall.mem": (cycles - accesses * cfg.l1_latency) * per_access * 0.9,
            "stall.total": (cycles - accesses * cfg.l1_latency) * per_access,
        }
        for key, value in tlb.items():
            act[key] = value * per_access
        return Activity(act)
