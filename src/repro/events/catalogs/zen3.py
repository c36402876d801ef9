"""Raw-event catalog for an AMD Zen 3 "Trento" CPU (Frontier's host CPU).

The paper runs its CPU experiments on Aurora's Sapphire Rapids; this third
catalog extends the evaluation to the CPU side of Frontier, and it exists
to exercise a sentence from the paper's Section III-B directly:

> "several AMD processors do not offer different events for strictly
> single-precision, or strictly double-precision instructions."

Zen-family FP counters (``FP_RET_SSE_AVX_OPS``) count *floating-point
operations* — FLOPs, not instructions — and merge the precisions, so:

* "All FP Ops." composes exactly (``ADD_SUB_FLOPS + MAC_FLOPS``), while
* "SP Ops." / "DP Ops." are *uncomposable* on this architecture, and the
  pipeline's backward error reports it — the mirror image of the Intel
  FMA finding.

The branch and cache families also differ structurally from Intel's:

* there is no not-taken counter, but there *is* a taken counter that
  includes unconditional branches (``EX_RET_BRN_TKN``) and a dedicated
  unconditional counter, so "Conditional Branches Taken" composes as
  ``EX_RET_BRN_TKN - EX_RET_UNCOND_BRNCH_INSTR``;
* there is no L1D *hit* event — only accesses (``LS_DC_ACCESSES``) and
  miss-buffer allocations (``LS_MAB_ALLOC``) — so "L1 Hits" composes by
  subtraction.

Same method, same signatures, different raw vocabulary: exactly the
portability scenario the paper's introduction motivates.
"""

from __future__ import annotations

from typing import Dict, List

from repro.events.catalogs._builders import cached_catalog, family
from repro.events.model import EventDomain, RawEvent
from repro.events.registry import EventRegistry
from repro.activity import (
    FP_PRECISIONS,
    FP_WIDTHS,
    flops_per_instruction,
    fp_instr_key,
)

__all__ = ["zen3_events"]


def _fp_events() -> List[RawEvent]:
    # FLOP-counting, precision-merged semantics.
    add_sub: Dict[str, float] = {}
    mac: Dict[str, float] = {}
    for width in FP_WIDTHS:
        for prec in FP_PRECISIONS:
            add_sub[fp_instr_key(width, prec, "nonfma")] = float(
                flops_per_instruction(width, prec, fma=False)
            )
            mac[fp_instr_key(width, prec, "fma")] = float(
                flops_per_instruction(width, prec, fma=True)
            )
    merged = dict(add_sub)
    for key, value in mac.items():
        merged[key] = merged.get(key, 0.0) + value

    events: List[RawEvent] = []
    events.extend(
        family(
            "FP_RET_SSE_AVX_OPS",
            EventDomain.FLOPS,
            {
                "ADD_SUB_FLOPS": add_sub,
                "MAC_FLOPS": mac,
                "MULT_FLOPS": {},  # CAT non-FMA kernels are additions
                "DIV_FLOPS": {},
                "ANY": merged,
            },
            noise_class="exact",
            descriptions={
                "ADD_SUB_FLOPS": "Retired add/subtract FLOPs, all precisions "
                "and vector widths merged.",
                "MAC_FLOPS": "Retired multiply-accumulate FLOPs (2 per MAC).",
            },
        )
    )
    events.extend(
        family(
            "FP_RET_X87_FP_OPS",
            EventDomain.FLOPS,
            {"ALL": {}, "ADD_SUB_OPS": {}, "MUL_OPS": {}},
            noise_class="exact",
        )
    )
    events.extend(
        family(
            "FP_DISP_FAULTS",
            EventDomain.FLOPS,
            {"YMM_FILL_FAULT": {}, "YMM_SPILL_FAULT": {}, "SSE_AVX_ALL": {}},
            noise_class="idle_floor",
        )
    )
    return events


def _branch_events() -> List[RawEvent]:
    events: List[RawEvent] = []
    branch_families: Dict[str, Dict[str, float]] = {
        "EX_RET_BRN": {
            "branch.cond_retired": 1.0,
            "branch.uncond_direct": 1.0,
            "branch.uncond_indirect": 1.0,
            "branch.call": 1.0,
            "branch.return": 1.0,
        },
        # Taken branches *including* unconditional transfers.
        "EX_RET_BRN_TKN": {
            "branch.cond_taken": 1.0,
            "branch.uncond_direct": 1.0,
            "branch.uncond_indirect": 1.0,
            "branch.call": 1.0,
            "branch.return": 1.0,
        },
        "EX_RET_BRN_TKN_MISP": {"branch.misp_taken": 1.0},
        "EX_RET_BRN_MISP": {"branch.mispredicted": 1.0},
        "EX_RET_COND": {"branch.cond_retired": 1.0},
        "EX_RET_COND_MISP": {"branch.mispredicted": 1.0},
        "EX_RET_UNCOND_BRNCH_INSTR": {"branch.uncond_direct": 1.0},
        "EX_RET_NEAR_RET": {"branch.return": 1.0},
        "EX_RET_NEAR_RET_MISPRED": {},
        "EX_RET_BRN_FAR": {},
        "EX_RET_BRN_IND_MISP": {},
    }
    for name, response in branch_families.items():
        events.extend(
            family(
                name,
                EventDomain.BRANCH,
                {"": response},
                noise_class="exact" if response else "idle_floor",
            )
        )
    events.extend(
        family(
            "EX_NO_RETIRE",
            EventDomain.PIPELINE,
            {
                "NOT_COMPLETE": {"stall.total": 0.6},
                "ALL": {"stall.total": 1.0},
            },
            noise_class="timing_coarse",
        )
    )
    return events


def _cache_events() -> List[RawEvent]:
    events: List[RawEvent] = []
    events.extend(
        family(
            "LS_DC_ACCESSES",
            EventDomain.CACHE,
            # All data-cache accesses; Zen has no hit-only counter.
            {"": {"cache.l1d.demand_hit": 1.0, "cache.l1d.demand_miss": 1.0}},
            noise_class="memory",
            descriptions={"": "All data cache accesses (hits and misses)."},
        )
    )
    events.extend(
        family(
            "LS_MAB_ALLOC",
            EventDomain.CACHE,
            {
                "LOAD_STORE_ALLOCATIONS": {"cache.l1d.demand_miss": 1.0},
                "HARDWARE_PREFETCHER_ALLOCATIONS": {"cache.l2.prefetch_req": 0.5},
                "ALL_ALLOCATIONS": {
                    "cache.l1d.demand_miss": 1.0,
                    "cache.l2.prefetch_req": 0.5,
                },
            },
            noise_class="memory",
        )
    )
    events.extend(
        family(
            "L2_CACHE_REQ_STAT",
            EventDomain.CACHE,
            {
                "DC_ACCESS_HIT": {"cache.l2.demand_rd_hit": 1.0},
                "DC_ACCESS_MISS": {"cache.l2.demand_rd_miss": 1.0},
                "DC_ACCESS_ALL": {
                    "cache.l2.demand_rd_hit": 1.0,
                    "cache.l2.demand_rd_miss": 1.0,
                },
                "IC_ACCESS_HIT": {},
                "IC_ACCESS_MISS": {},
            },
            noise_class="memory",
            noise_overrides={"IC_ACCESS_HIT": "idle_floor", "IC_ACCESS_MISS": "idle_floor"},
        )
    )
    events.extend(
        family(
            "L3_LOOKUP_STATE",
            EventDomain.CACHE,
            {
                "L3_HIT": {"cache.l3.hit": 1.0},
                "L3_MISS": {"cache.l3.miss": 1.0},
                "ALL_COHERENT_ACCESSES_TO_L3": {
                    "cache.l3.hit": 1.0,
                    "cache.l3.miss": 1.0,
                },
            },
            noise_class="memory",
        )
    )
    events.extend(
        family(
            "LS_REFILLS_FROM_SYS",
            EventDomain.CACHE,
            {
                "LCL_L2": {"cache.l2.demand_rd_hit": 1.0},
                "LCL_CACHE": {"cache.l3.hit": 0.97},
                "RMT_CACHE": {"cache.l3.hit": 0.03},
                "LCL_DRAM": {"cache.l3.miss": 0.96},
                "RMT_DRAM": {"cache.l3.miss": 0.04},
            },
            # Source attribution through the fabric is flaky on real parts.
            noise_class="offcore",
        )
    )
    events.extend(
        family(
            "L2_PF_HIT_L2",
            EventDomain.CACHE,
            {"": {"cache.l2.prefetch_req": 0.6}},
            noise_class="offcore",
        )
    )
    events.extend(
        family(
            "L2_PF_MISS_L2_HIT_L3",
            EventDomain.CACHE,
            {"": {"cache.l2.prefetch_req": 0.3}},
            noise_class="offcore",
        )
    )
    events.extend(
        family(
            "LS_HW_PF_DC_FILLS",
            EventDomain.MEMORY,
            {
                "LCL_L2": {"cache.l2.prefetch_req": 0.4},
                "LCL_DRAM": {"cache.l2.prefetch_req": 0.1},
            },
            noise_class="offcore",
        )
    )
    events.extend(
        family(
            "LS_DISPATCH",
            EventDomain.MEMORY,
            {
                "LD_DISPATCH": {"mem.loads_retired": 1.0},
                "STORE_DISPATCH": {"mem.stores_retired": 1.0},
                "LD_ST_DISPATCH": {
                    "mem.loads_retired": 1.0,
                    "mem.stores_retired": 1.0,
                },
            },
            noise_class="exact",
        )
    )
    return events


def _tlb_events() -> List[RawEvent]:
    events: List[RawEvent] = []
    events.extend(
        family(
            "LS_L1_D_TLB_MISS",
            EventDomain.TLB,
            {
                "ALL": {"tlb.dtlb_load_miss": 1.0},
                "TLB_RELOAD_4K_L2_HIT": {"tlb.stlb_hit": 0.9},
                "TLB_RELOAD_2M_L2_HIT": {"tlb.stlb_hit": 0.1},
                "TLB_RELOAD_4K_L2_MISS": {"tlb.walks": 0.9},
                "TLB_RELOAD_2M_L2_MISS": {"tlb.walks": 0.1},
            },
            noise_class="memory",
        )
    )
    events.extend(
        family(
            "LS_TABLEWALKER",
            EventDomain.TLB,
            {
                "DC_TYPE0": {"tlb.walks": 0.5},
                "DC_TYPE1": {"tlb.walks": 0.5},
                "IC_TYPE0": {"tlb.itlb_miss": 0.5},
                "IC_TYPE1": {"tlb.itlb_miss": 0.5},
            },
            noise_class="memory",
        )
    )
    return events


def _pipeline_events() -> List[RawEvent]:
    events: List[RawEvent] = []
    events.extend(
        family(
            "LS_NOT_HALTED_CYC",
            EventDomain.PIPELINE,
            {"": {"cycles.core": 1.0}},
            noise_class="timing",
        )
    )
    events.extend(
        family(
            "EX_RET_INSTR",
            EventDomain.PIPELINE,
            {"": {"instr.total": 1.0}},
            noise_class="exact",
        )
    )
    events.extend(
        family(
            "EX_RET_OPS",
            EventDomain.PIPELINE,
            {"": {"uops.retired": 1.0}},
            noise_class="exact",
        )
    )
    events.extend(
        family(
            "DE_SRC_OP_DISP",
            EventDomain.FRONTEND,
            {
                "DECODER": {"frontend.mite_uops": 1.0},
                "OP_CACHE": {"frontend.dsb_uops": 1.0},
                "ALL": {"frontend.mite_uops": 1.0, "frontend.dsb_uops": 1.0},
            },
            noise_class="timing",
        )
    )
    events.extend(
        family(
            "DE_DIS_DISPATCH_TOKEN_STALLS1",
            EventDomain.PIPELINE,
            {
                "INT_SCHEDULER_MISC_RSRC_STALL": {"stall.exec": 0.3},
                "LOAD_QUEUE_RSRC_STALL": {"stall.mem": 0.4},
                "STORE_QUEUE_RSRC_STALL": {"stall.mem": 0.05},
                "FP_SCH_RSRC_STALL": {"stall.exec": 0.2},
            },
            noise_class="timing_coarse",
        )
    )
    events.extend(
        family(
            "IC_TAG_HIT_MISS",
            EventDomain.FRONTEND,
            {
                "INSTRUCTION_CACHE_HIT": {"frontend.dsb_uops": 0.3},
                "INSTRUCTION_CACHE_MISS": {"frontend.fetch_bubbles": 0.02},
                "ALL_INSTRUCTION_CACHE_ACCESSES": {"frontend.dsb_uops": 0.31},
            },
            noise_class="timing_coarse",
        )
    )
    events.extend(
        family(
            "RESYNCS_OR_NC_REDIRECTS",
            EventDomain.PIPELINE,
            {"": {"machine_clears": 1.0}},
            noise_class="timing_coarse",
        )
    )
    events.extend(
        family(
            "EX_DIV",
            EventDomain.PIPELINE,
            {"BUSY": {"instr.div": 10.0}, "COUNT": {"instr.div": 1.0}},
            noise_class="exact",
        )
    )
    return events


def _extended_events() -> List[RawEvent]:
    """Long tail: dead units, fabric counters, idle-floor noise fodder."""
    events: List[RawEvent] = []
    events.extend(
        family(
            "LS_STLF",
            EventDomain.MEMORY,
            {"": {}},
            noise_class="idle_floor",
        )
    )
    events.extend(
        family(
            "LS_BAD_STATUS2",
            EventDomain.MEMORY,
            {"STLI_OTHER": {}},
            noise_class="idle_floor",
        )
    )
    events.extend(
        family(
            "LS_LOCKS",
            EventDomain.MEMORY,
            {"BUS_LOCK": {}, "NON_SPEC_LOCK": {}, "SPEC_LOCK_HI_SPEC": {}},
            noise_class="idle_floor",
        )
    )
    events.extend(
        family(
            "LS_RET_CL_FLUSH",
            EventDomain.MEMORY,
            {"": {}},
            noise_class="exact",
        )
    )
    events.extend(
        family(
            "LS_SMI_RX",
            EventDomain.OTHER,
            {"": {}},
            noise_class="idle_floor",
        )
    )
    events.extend(
        family(
            "LS_INT_TAKEN",
            EventDomain.OTHER,
            {"": {"sw.context_switches": 0.5}},
            noise_class="timing_coarse",
        )
    )
    events.extend(
        family(
            "DF_REQUESTS",  # data-fabric traffic (uncore-like)
            EventDomain.MEMORY,
            {
                "UMC_RD": {"cache.l3.miss": 1.0},
                "UMC_WR": {"cache.l3.miss": 0.1},
                "IO_RD": {},
                "IO_WR": {},
            },
            noise_class="offcore",
            noise_overrides={"IO_RD": "idle_floor", "IO_WR": "idle_floor"},
        )
    )
    events.extend(
        family(
            "DF_CYCLES",
            EventDomain.OTHER,
            {"": {"cycles.ref": 0.7}},
            noise_class="timing_coarse",
        )
    )
    events.extend(
        family(
            "L3_XI_SAMPLED_LATENCY",
            EventDomain.CACHE,
            {"ALL": {"cache.l3.miss": 40.0}, "DRAM_NEAR": {"cache.l3.miss": 35.0}},
            noise_class="offcore",
        )
    )
    events.extend(
        family(
            "OP_CACHE_HIT_MISS",
            EventDomain.FRONTEND,
            {
                "OP_CACHE_HIT": {"frontend.dsb_uops": 0.95},
                "OP_CACHE_MISS": {"frontend.mite_uops": 0.9},
                "ALL_OP_CACHE_ACCESSES": {
                    "frontend.dsb_uops": 0.95,
                    "frontend.mite_uops": 0.9,
                },
            },
            noise_class="timing",
        )
    )
    events.extend(
        family(
            "DE_DIS_UOP_QUEUE_EMPTY_DI0",
            EventDomain.FRONTEND,
            {"": {"frontend.fetch_bubbles": 0.8}},
            noise_class="timing_coarse",
        )
    )
    events.extend(
        family(
            "EX_RET_MMX_FP_INSTR",
            EventDomain.FLOPS,
            {"SSE_INSTR": {}, "MMX_INSTR": {}, "X87_INSTR": {}},
            noise_class="exact",
        )
    )
    events.extend(
        family(
            "EX_TAGGED_IBS_OPS",
            EventDomain.PIPELINE,
            {"IBS_COUNT_ROLLOVER": {}, "IBS_TAGGED_OPS": {"uops.retired": 0.001}},
            noise_class="idle_floor",
            noise_overrides={"IBS_TAGGED_OPS": "timing_coarse"},
        )
    )
    events.extend(
        family(
            "EX_RET_FUSED_INSTR",
            EventDomain.PIPELINE,
            {"": {"branch.cond_retired": 0.9}},
            noise_class="exact",
        )
    )
    events.extend(
        family(
            "PROBE_STALLS",
            EventDomain.MEMORY,
            {"": {"stall.mem": 0.05}},
            noise_class="timing_coarse",
        )
    )
    return events


@cached_catalog
def zen3_events() -> EventRegistry:
    """The Zen 3 (Trento) core-event catalog (deterministic; built once per process)."""
    registry = EventRegistry(name="amd_zen3_trento")
    for builder in (
        _fp_events,
        _branch_events,
        _cache_events,
        _tlb_events,
        _pipeline_events,
        _extended_events,
    ):
        registry.extend(builder())
    return registry
