"""Raw-event catalog for an Intel Sapphire Rapids (SPR) core.

This models the native-event universe a PAPI ``papi_native_avail`` sweep
exposes on Aurora's SPR CPUs: ~330 core events across floating-point,
branch, memory-subsystem, TLB, pipeline and frontend families, plus
dead-on-this-workload families (AMX, TSX, uncore-ish) that produce the
all-zero and noise-floor columns the analysis pipeline must survive.

Semantics worth calling out because the paper's results depend on them:

* ``FP_ARITH_INST_RETIRED:*`` events count each FMA instruction **twice**
  (documented Intel behaviour).  This is what makes "SP/DP FMA Instrs."
  uncomposable in isolation (paper Table V: coefficients 0.8, backward
  error 2.36e-1) while the Instr/Ops metrics compose exactly.
* Sapphire Rapids has no ``BR_INST_EXEC``-style *executed* (speculative)
  branch event — the family was dropped after Skylake — so "Conditional
  Branches Executed" cannot be composed (paper Table VII: error 1.0).
* ``MEM_LOAD_RETIRED`` / ``L2_RQSTS`` events carry memory-class noise;
  instruction-retired counts are bit-exact.
"""

from __future__ import annotations

from typing import Dict, List

from repro.events.catalogs._builders import cached_catalog, family
from repro.events.model import EventDomain, RawEvent
from repro.events.registry import EventRegistry
from repro.activity import fp_instr_key

__all__ = ["sapphire_rapids_events"]


def _fp_events() -> List[RawEvent]:
    events: List[RawEvent] = []

    def fp(width: str, prec: str) -> Dict[str, float]:
        # The documented Intel semantics: the counter increments once per
        # non-FMA instruction and twice per FMA instruction of the class.
        return {
            fp_instr_key(width, prec, "nonfma"): 1.0,
            fp_instr_key(width, prec, "fma"): 2.0,
        }

    def merge(*parts: Dict[str, float]) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for part in parts:
            for k, v in part.items():
                out[k] = out.get(k, 0.0) + v
        return out

    base = {
        "SCALAR_SINGLE": fp("scalar", "sp"),
        "SCALAR_DOUBLE": fp("scalar", "dp"),
        "128B_PACKED_SINGLE": fp("128", "sp"),
        "128B_PACKED_DOUBLE": fp("128", "dp"),
        "256B_PACKED_SINGLE": fp("256", "sp"),
        "256B_PACKED_DOUBLE": fp("256", "dp"),
        "512B_PACKED_SINGLE": fp("512", "sp"),
        "512B_PACKED_DOUBLE": fp("512", "dp"),
        # Aggregate umasks: linearly dependent on the eight above — grist
        # for the QRCP's dependent-column elimination.
        "SCALAR": merge(fp("scalar", "sp"), fp("scalar", "dp")),
        "VECTOR": merge(
            fp("128", "sp"),
            fp("128", "dp"),
            fp("256", "sp"),
            fp("256", "dp"),
            fp("512", "sp"),
            fp("512", "dp"),
        ),
        "4_FLOPS": merge(fp("128", "sp"), fp("256", "dp")),
        "8_FLOPS": merge(fp("256", "sp"), fp("512", "dp")),
    }
    events.extend(
        family(
            "FP_ARITH_INST_RETIRED",
            EventDomain.FLOPS,
            base,
            noise_class="exact",
            descriptions={
                "SCALAR_DOUBLE": "Number of SSE/AVX computational scalar double "
                "precision FP instructions retired; FMA counts twice.",
                "512B_PACKED_DOUBLE": "Number of 512-bit packed double precision "
                "FP instructions retired; FMA counts twice.",
            },
        )
    )
    # Dispatch-port views of FP work: scaled mixes, timing-class noise.
    events.extend(
        family(
            "FP_ARITH_DISPATCHED",
            EventDomain.FLOPS,
            {
                "PORT_0": merge(
                    {fp_instr_key(w, p, k): 0.5 for w in ("scalar", "128", "256") for p in ("sp", "dp") for k in ("nonfma", "fma")}
                ),
                "PORT_1": merge(
                    {fp_instr_key(w, p, k): 0.5 for w in ("scalar", "128", "256") for p in ("sp", "dp") for k in ("nonfma", "fma")}
                ),
                "PORT_5": merge(
                    {fp_instr_key("512", p, k): 1.0 for p in ("sp", "dp") for k in ("nonfma", "fma")}
                ),
            },
            noise_class="timing",
        )
    )
    events.extend(
        family(
            "ASSISTS",
            EventDomain.FLOPS,
            {"FP": {}, "SSE_AVX_MIX": {}, "ANY": {"machine_clears": 0.1}},
            noise_class="idle_floor",
            noise_overrides={"ANY": "timing_coarse"},
        )
    )
    return events


def _branch_events() -> List[RawEvent]:
    events: List[RawEvent] = []
    events.extend(
        family(
            "BR_INST_RETIRED",
            EventDomain.BRANCH,
            {
                "ALL_BRANCHES": {
                    "branch.cond_retired": 1.0,
                    "branch.uncond_direct": 1.0,
                    "branch.uncond_indirect": 1.0,
                    "branch.call": 1.0,
                    "branch.return": 1.0,
                },
                "COND": {"branch.cond_retired": 1.0},
                "COND_TAKEN": {"branch.cond_taken": 1.0},
                "COND_NTAKEN": {"branch.cond_ntaken": 1.0},
                "NEAR_TAKEN": {
                    "branch.cond_taken": 1.0,
                    "branch.uncond_direct": 1.0,
                    "branch.uncond_indirect": 1.0,
                    "branch.call": 1.0,
                    "branch.return": 1.0,
                },
                "NEAR_CALL": {"branch.call": 1.0},
                "NEAR_RETURN": {"branch.return": 1.0},
                "FAR_BRANCH": {},
                "INDIRECT": {"branch.uncond_indirect": 1.0},
            },
            noise_class="exact",
            descriptions={
                "ALL_BRANCHES": "All branch instructions retired.",
                "COND": "Conditional branch instructions retired.",
                "COND_TAKEN": "Taken conditional branch instructions retired.",
            },
        )
    )
    # The unqualified spelling used in the paper's tables (PAPI resolves it
    # to :ALL_BRANCHES).  Registered *before* the qualified family so the
    # QRCP tie-break on catalog order reports the paper's name.
    events.extend(
        family(
            "BR_MISP_RETIRED",
            EventDomain.BRANCH,
            {"": {"branch.mispredicted": 1.0}},
            noise_class="exact",
            descriptions={"": "Mispredicted branch instructions retired (alias of :ALL_BRANCHES)."},
        )
    )
    events.extend(
        family(
            "BR_MISP_RETIRED",
            EventDomain.BRANCH,
            {
                "ALL_BRANCHES": {"branch.mispredicted": 1.0},
                "COND": {"branch.mispredicted": 1.0},
                "COND_TAKEN": {"branch.misp_taken": 1.0},
                "COND_NTAKEN": {
                    "branch.mispredicted": 1.0,
                    "branch.misp_taken": -1.0,
                },
                "INDIRECT": {},
                "INDIRECT_CALL": {},
                "RET": {},
                "NEAR_TAKEN": {"branch.misp_taken": 1.0},
            },
            noise_class="exact",
            descriptions={"ALL_BRANCHES": "All mispredicted branch instructions retired."},
        )
    )
    events.extend(
        family(
            "BACLEARS",
            EventDomain.BRANCH,
            {"ANY": {"branch.mispredicted": 0.15, "frontend.fetch_bubbles": 0.01}},
            noise_class="timing_coarse",
        )
    )
    events.extend(
        family(
            "INT_MISC",
            EventDomain.PIPELINE,
            {
                "CLEAR_RESTEER_CYCLES": {"branch.mispredicted": 9.0, "cycles.core": 0.001},
                "RECOVERY_CYCLES": {"branch.mispredicted": 11.0, "machine_clears": 10.0},
                "UOP_DROPPING": {"uops.issued": 0.002},
            },
            noise_class="timing_coarse",
        )
    )
    return events


def _cache_events() -> List[RawEvent]:
    events: List[RawEvent] = []
    events.extend(
        family(
            "MEM_LOAD_RETIRED",
            EventDomain.CACHE,
            {
                "L1_HIT": {"cache.l1d.demand_hit": 1.0},
                "L1_MISS": {"cache.l1d.demand_miss": 1.0},
                "L2_HIT": {"cache.l2.demand_rd_hit": 1.0},
                "L2_MISS": {"cache.l2.demand_rd_miss": 1.0},
                "L3_HIT": {"cache.l3.hit": 1.0},
                "L3_MISS": {"cache.l3.miss": 1.0},
                "FB_HIT": {"cache.l1d.fb_hit": 1.0},
            },
            noise_class="memory",
            # The L2 hit/miss attribution of this family is notoriously
            # unreliable on real parts; modelled as offcore-class noise, it
            # gets filtered at tau=1e-1 so the pipeline lands on
            # L2_RQSTS:DEMAND_DATA_RD_HIT for the L2DH dimension — the same
            # event the paper's analysis selects.
            noise_overrides={"L2_HIT": "offcore", "L2_MISS": "offcore"},
            descriptions={
                "L1_HIT": "Retired load instructions with L1 cache hits as data sources.",
                "L1_MISS": "Retired load instructions missed L1 cache as data sources.",
                "L3_HIT": "Retired load instructions with L3 cache hits as data sources.",
            },
        )
    )
    events.extend(
        family(
            "L2_RQSTS",
            EventDomain.CACHE,
            {
                "DEMAND_DATA_RD_HIT": {"cache.l2.demand_rd_hit": 1.0},
                "DEMAND_DATA_RD_MISS": {"cache.l2.demand_rd_miss": 1.0},
                "ALL_DEMAND_DATA_RD": {"cache.l2.all_demand_rd": 1.0},
                "ALL_DEMAND_MISS": {"cache.l2.demand_rd_miss": 1.0, "cache.l2.prefetch_req": 0.05},
                "ALL_DEMAND_REFERENCES": {"cache.l2.all_demand_rd": 1.0},
                "MISS": {"cache.l2.demand_rd_miss": 1.0, "cache.l2.prefetch_req": 0.2},
                "REFERENCES": {"cache.l2.references": 1.0},
                "ALL_HWPF": {"cache.l2.prefetch_req": 1.0},
                "HWPF_MISS": {"cache.l2.prefetch_req": 0.6},
                "SWPF_HIT": {},
                "SWPF_MISS": {},
            },
            noise_class="memory",
            noise_overrides={
                "ALL_HWPF": "offcore",
                "HWPF_MISS": "offcore",
                "SWPF_HIT": "idle_floor",
                "SWPF_MISS": "idle_floor",
            },
            descriptions={
                "DEMAND_DATA_RD_HIT": "Demand data read requests that hit the L2 cache."
            },
        )
    )
    events.extend(
        family(
            "LONGEST_LAT_CACHE",
            EventDomain.CACHE,
            {
                "MISS": {"cache.l3.miss": 1.0, "cache.l2.prefetch_req": 0.3},
                "REFERENCE": {"cache.l3.references": 1.0, "cache.l2.prefetch_req": 0.3},
            },
            noise_class="offcore",
        )
    )
    events.extend(
        family(
            "L1D",
            EventDomain.CACHE,
            {
                "REPLACEMENT": {"cache.l1d.replacement": 1.0},
                "HWPF_MISS": {"cache.l2.prefetch_req": 0.4},
            },
            noise_class="memory",
        )
    )
    events.extend(
        family(
            "L1D_PEND_MISS",
            EventDomain.CACHE,
            {
                "PENDING": {"cache.l1d.demand_miss": 14.0, "stall.mem": 0.4},
                "PENDING_CYCLES": {"cache.l1d.demand_miss": 9.0, "stall.mem": 0.3},
                "FB_FULL": {"cache.l1d.demand_miss": 0.8},
            },
            noise_class="timing_coarse",
        )
    )
    events.extend(
        family(
            "MEM_LOAD_L3_HIT_RETIRED",
            EventDomain.CACHE,
            {
                "XSNP_MISS": {"cache.l3.hit": 0.02},
                "XSNP_NO_FWD": {"cache.l3.hit": 0.015},
                "XSNP_FWD": {"cache.l3.hit": 0.01},
                "XSNP_NONE": {"cache.l3.hit": 0.955},
            },
            noise_class="memory",
        )
    )
    events.extend(
        family(
            "MEM_INST_RETIRED",
            EventDomain.MEMORY,
            {
                "ALL_LOADS": {"mem.loads_retired": 1.0},
                "ALL_STORES": {"mem.stores_retired": 1.0},
                "STLB_MISS_LOADS": {"tlb.walks": 0.95},
                "STLB_MISS_STORES": {},
                "LOCK_LOADS": {},
                "SPLIT_LOADS": {},
                "SPLIT_STORES": {},
                "ANY": {"mem.loads_retired": 1.0, "mem.stores_retired": 1.0},
            },
            noise_class="exact",
            noise_overrides={
                "STLB_MISS_LOADS": "memory",
                "STLB_MISS_STORES": "idle_floor",
                "LOCK_LOADS": "idle_floor",
                "SPLIT_LOADS": "idle_floor",
                "SPLIT_STORES": "idle_floor",
            },
        )
    )
    events.extend(
        family(
            "OFFCORE_REQUESTS",
            EventDomain.MEMORY,
            {
                "DEMAND_DATA_RD": {"cache.l2.demand_rd_miss": 1.0},
                "ALL_REQUESTS": {"cache.l2.demand_rd_miss": 1.0, "cache.l2.prefetch_req": 1.0},
                "DATA_RD": {"cache.l2.demand_rd_miss": 1.0, "cache.l2.prefetch_req": 0.9},
                "DEMAND_RFO": {"mem.stores_retired": 0.01},
                "OUTSTANDING_CYCLES_WITH_DATA_RD": {"cache.l2.demand_rd_miss": 30.0},
            },
            noise_class="offcore",
        )
    )
    # Off-core response (OCR) matrix events: combinations of request type x
    # response source, mostly redundant with the above — realistic clutter.
    ocr: Dict[str, Dict[str, float]] = {}
    for req, req_key, scale in (
        ("DEMAND_DATA_RD", "cache.l2.demand_rd_miss", 1.0),
        ("READS_TO_CORE", "cache.l2.demand_rd_miss", 1.1),
        ("HWPF_L3", "cache.l2.prefetch_req", 0.5),
    ):
        ocr[f"{req}.L3_HIT"] = {"cache.l3.hit": 0.95 * scale}
        ocr[f"{req}.L3_HIT_SNOOP"] = {"cache.l3.hit": 0.05 * scale}
        ocr[f"{req}.DRAM"] = {"cache.l3.miss": 1.0 * scale}
        ocr[f"{req}.LOCAL_DRAM"] = {"cache.l3.miss": 0.97 * scale}
        ocr[f"{req}.SNC_DRAM"] = {"cache.l3.miss": 0.03 * scale}
    events.extend(family("OCR", EventDomain.MEMORY, ocr, noise_class="offcore"))
    events.extend(
        family(
            "SW_PREFETCH_ACCESS",
            EventDomain.MEMORY,
            {"T0": {}, "T1_T2": {}, "NTA": {}, "PREFETCHW": {}},
            noise_class="idle_floor",
        )
    )
    return events


def _tlb_events() -> List[RawEvent]:
    events: List[RawEvent] = []
    for base, weight in (("DTLB_LOAD_MISSES", 1.0), ("DTLB_STORE_MISSES", 0.0)):
        events.extend(
            family(
                base,
                EventDomain.TLB,
                {
                    # Fires on any first-level DTLB miss (whether the STLB
                    # covers it or a page walk follows).
                    "MISS_CAUSES_A_WALK": {"tlb.dtlb_load_miss": weight},
                    "WALK_COMPLETED": {"tlb.walks": weight},
                    "WALK_COMPLETED_4K": {"tlb.walks": 0.9 * weight},
                    "WALK_COMPLETED_2M_4M": {"tlb.walks": 0.1 * weight},
                    "WALK_PENDING": {"tlb.walk_cycles": weight},
                    "WALK_ACTIVE": {"tlb.walk_cycles": 0.8 * weight},
                    "STLB_HIT": {"tlb.stlb_hit": weight},
                },
                noise_class="memory",
                noise_overrides={} if weight else {
                    q: "idle_floor"
                    for q in (
                        "MISS_CAUSES_A_WALK",
                        "WALK_COMPLETED",
                        "WALK_COMPLETED_4K",
                        "WALK_COMPLETED_2M_4M",
                        "WALK_PENDING",
                        "WALK_ACTIVE",
                        "STLB_HIT",
                    )
                },
            )
        )
    events.extend(
        family(
            "ITLB_MISSES",
            EventDomain.TLB,
            {
                "MISS_CAUSES_A_WALK": {"tlb.itlb_miss": 1.0},
                "WALK_COMPLETED": {"tlb.itlb_miss": 0.9},
                "WALK_PENDING": {"tlb.itlb_miss": 20.0},
                "STLB_HIT": {"tlb.itlb_miss": 2.0},
            },
            noise_class="timing_coarse",
        )
    )
    return events


def _pipeline_events() -> List[RawEvent]:
    events: List[RawEvent] = []
    events.extend(
        family(
            "CPU_CLK_UNHALTED",
            EventDomain.PIPELINE,
            {
                "THREAD": {"cycles.core": 1.0},
                "THREAD_P": {"cycles.core": 1.0},
                "REF_TSC": {"cycles.ref": 1.0},
                "REF_DISTRIBUTED": {"cycles.ref": 1.0},
                "DISTRIBUTED": {"cycles.core": 1.0},
                "ONE_THREAD_ACTIVE": {"cycles.ref": 0.98},
            },
            noise_class="timing",
            descriptions={"THREAD": "Core cycles when the thread is not in a halt state."},
        )
    )
    events.extend(
        family(
            "INST_RETIRED",
            EventDomain.PIPELINE,
            {
                "ANY": {"instr.total": 1.0},
                "ANY_P": {"instr.total": 1.0},
                "NOP": {"instr.nop": 1.0},
                "MACRO_FUSED": {"branch.cond_retired": 0.95},
            },
            noise_class="exact",
        )
    )
    events.extend(
        family(
            "UOPS_ISSUED",
            EventDomain.PIPELINE,
            {"ANY": {"uops.issued": 1.0}, "CYCLES": {"uops.issued": 0.3, "cycles.core": 0.2}},
            noise_class="timing",
        )
    )
    events.extend(
        family(
            "UOPS_RETIRED",
            EventDomain.PIPELINE,
            {
                "SLOTS": {"uops.retired": 1.0},
                "MS": {"uops.ms": 1.0},
                "CYCLES": {"uops.retired": 0.3, "cycles.core": 0.15},
                "STALLS": {"stall.total": 0.7},
                "HEAVY": {"instr.div": 3.0},
            },
            noise_class="timing",
            noise_overrides={"SLOTS": "exact", "MS": "exact", "HEAVY": "exact"},
        )
    )
    events.extend(
        family(
            "UOPS_EXECUTED",
            EventDomain.PIPELINE,
            {
                "THREAD": {"uops.executed": 1.0},
                "CORE": {"uops.executed": 1.0},
                "CYCLES_GE_1": {"cycles.core": 0.8},
                "CYCLES_GE_2": {"cycles.core": 0.6},
                "CYCLES_GE_3": {"cycles.core": 0.4},
                "CYCLES_GE_4": {"cycles.core": 0.25},
                "STALLS": {"stall.exec": 1.0},
            },
            noise_class="timing",
        )
    )
    # Port-level dispatch counters: mixes of load/store/FP/branch work.
    port_mix = {
        "PORT_0": {"uops.executed": 0.18},
        "PORT_1": {"uops.executed": 0.18},
        # Dispatch exceeds retirement: replayed and wrong-path load uops.
        "PORT_2_3_10": {"instr.load": 1.1},
        "PORT_4_9": {"instr.store": 1.1},
        "PORT_5_11": {"uops.executed": 0.14},
        "PORT_6": {"branch.cond_retired": 0.8, "branch.uncond_direct": 0.8},
        "PORT_7_8": {"instr.store": 0.9},
    }
    events.extend(
        family("UOPS_DISPATCHED", EventDomain.PIPELINE, port_mix, noise_class="timing")
    )
    events.extend(
        family(
            "EXE_ACTIVITY",
            EventDomain.PIPELINE,
            {
                "1_PORTS_UTIL": {"cycles.core": 0.2},
                "2_PORTS_UTIL": {"cycles.core": 0.3},
                "3_PORTS_UTIL": {"cycles.core": 0.2},
                "4_PORTS_UTIL": {"cycles.core": 0.1},
                "BOUND_ON_LOADS": {"stall.mem": 0.9},
                "BOUND_ON_STORES": {"stall.mem": 0.05},
            },
            noise_class="timing_coarse",
        )
    )
    events.extend(
        family(
            "CYCLE_ACTIVITY",
            EventDomain.PIPELINE,
            {
                "STALLS_TOTAL": {"stall.total": 1.0},
                "STALLS_MEM_ANY": {"stall.mem": 1.0},
                "STALLS_L1D_MISS": {"stall.mem": 0.7},
                "STALLS_L2_MISS": {"stall.mem": 0.5},
                "STALLS_L3_MISS": {"stall.mem": 0.3},
                "CYCLES_MEM_ANY": {"stall.mem": 1.2},
            },
            noise_class="timing_coarse",
        )
    )
    events.extend(
        family(
            "RESOURCE_STALLS",
            EventDomain.PIPELINE,
            {"ANY": {"stall.total": 0.8}, "SB": {"stall.mem": 0.1}, "SCOREBOARD": {"stall.total": 0.2}},
            noise_class="timing_coarse",
        )
    )
    events.extend(
        family(
            "TOPDOWN",
            EventDomain.PIPELINE,
            {
                "SLOTS": {"cycles.core": 6.0},
                "SLOTS_P": {"cycles.core": 6.0},
                "BACKEND_BOUND_SLOTS": {"stall.total": 4.0},
                "MEMORY_BOUND_SLOTS": {"stall.mem": 4.0},
                "BR_MISPREDICT_SLOTS": {"branch.mispredicted": 30.0},
                "BAD_SPEC_SLOTS": {"branch.mispredicted": 32.0, "machine_clears": 40.0},
            },
            noise_class="timing_coarse",
        )
    )
    events.extend(
        family(
            "ARITH",
            EventDomain.PIPELINE,
            {
                "DIV_ACTIVE": {"instr.div": 12.0},
                "FPDIV_ACTIVE": {"instr.div": 11.0},
                "IDIV_ACTIVE": {},
                "MUL": {"instr.int": 0.1},
            },
            noise_class="timing",
            noise_overrides={"IDIV_ACTIVE": "idle_floor"},
        )
    )
    events.extend(
        family(
            "INT_VEC_RETIRED",
            EventDomain.PIPELINE,
            {
                "ADD_128": {},
                "ADD_256": {},
                "MUL_256": {},
                "VNNI_128": {},
                "VNNI_256": {},
                "SHUFFLES": {},
            },
            noise_class="idle_floor",
        )
    )
    events.extend(
        family(
            "LSD",
            EventDomain.PIPELINE,
            {"UOPS": {"uops.issued": 0.85}, "CYCLES_ACTIVE": {"cycles.core": 0.5}},
            noise_class="timing",
        )
    )
    events.extend(
        family(
            "MACHINE_CLEARS",
            EventDomain.PIPELINE,
            {
                "COUNT": {"machine_clears": 1.0},
                "MEMORY_ORDERING": {"machine_clears": 0.3},
                "SMC": {},
                "DISAMBIGUATION": {"machine_clears": 0.1},
            },
            noise_class="timing_coarse",
            noise_overrides={"SMC": "idle_floor"},
        )
    )
    return events


def _frontend_events() -> List[RawEvent]:
    events: List[RawEvent] = []
    events.extend(
        family(
            "ICACHE_DATA",
            EventDomain.FRONTEND,
            {"STALLS": {"frontend.fetch_bubbles": 0.3}},
            noise_class="timing_coarse",
        )
    )
    events.extend(
        family(
            "ICACHE_TAG",
            EventDomain.FRONTEND,
            {"STALLS": {"frontend.fetch_bubbles": 0.1}},
            noise_class="timing_coarse",
        )
    )
    events.extend(
        family(
            "IDQ",
            EventDomain.FRONTEND,
            {
                "DSB_UOPS": {"frontend.dsb_uops": 1.0},
                "MITE_UOPS": {"frontend.mite_uops": 1.0},
                "MS_UOPS": {"uops.ms": 1.0},
                "DSB_CYCLES_OK": {"cycles.core": 0.7},
                "DSB_CYCLES_ANY": {"cycles.core": 0.75},
                "MITE_CYCLES_OK": {"cycles.core": 0.05},
                "MS_SWITCHES": {"uops.ms": 0.02},
            },
            noise_class="timing",
        )
    )
    events.extend(
        family(
            "IDQ_BUBBLES",
            EventDomain.FRONTEND,
            {"CORE": {"frontend.fetch_bubbles": 1.0}, "CYCLES_0_UOPS_DELIV": {"frontend.fetch_bubbles": 0.4}},
            noise_class="timing_coarse",
        )
    )
    events.extend(
        family(
            "FRONTEND_RETIRED",
            EventDomain.FRONTEND,
            {
                "DSB_MISS": {"frontend.mite_uops": 0.02},
                "ANY_DSB_MISS": {"frontend.mite_uops": 0.025},
                "ITLB_MISS": {"tlb.itlb_miss": 1.0},
                "L1I_MISS": {"frontend.fetch_bubbles": 0.01},
                "L2_MISS": {},
                "LATENCY_GE_2": {"frontend.fetch_bubbles": 0.1},
                "LATENCY_GE_4": {"frontend.fetch_bubbles": 0.05},
                "LATENCY_GE_8": {"frontend.fetch_bubbles": 0.02},
                "LATENCY_GE_16": {"frontend.fetch_bubbles": 0.01},
                "LATENCY_GE_32": {},
                "MS_FLOWS": {"uops.ms": 0.04},
            },
            noise_class="timing_coarse",
            noise_overrides={"L2_MISS": "idle_floor", "LATENCY_GE_32": "idle_floor"},
        )
    )
    events.extend(
        family(
            "DECODE",
            EventDomain.FRONTEND,
            {"LCP": {}, "MS_BUSY": {"uops.ms": 0.5}},
            noise_class="timing_coarse",
            noise_overrides={"LCP": "idle_floor"},
        )
    )
    return events


def _misc_events() -> List[RawEvent]:
    """Families that are dead or near-dead on CAT workloads.

    These provide the all-zero columns (discarded as irrelevant), the
    noise-floor columns (the >1 extreme of Fig. 2's variability tail), and
    OS-interference counters.
    """
    events: List[RawEvent] = []
    events.extend(
        family(
            "AMX_OPS_RETIRED",
            EventDomain.OTHER,
            {"INT8": {}, "BF16": {}, "FP16": {}},
            noise_class="exact",  # truly silent: all-zero columns
        )
    )
    events.extend(
        family(
            "RTM_RETIRED",
            EventDomain.OTHER,
            {"START": {}, "COMMIT": {}, "ABORTED": {}, "ABORTED_MEM": {}},
            noise_class="exact",
        )
    )
    events.extend(
        family(
            "HLE_RETIRED",
            EventDomain.OTHER,
            {"START": {}, "COMMIT": {}, "ABORTED": {}},
            noise_class="exact",
        )
    )
    events.extend(
        family(
            "MISC_RETIRED",
            EventDomain.OTHER,
            {"LBR_INSERTS": {}, "PAUSE_INST": {}},
            noise_class="idle_floor",
        )
    )
    events.extend(
        family(
            "MEM_TRANS_RETIRED",
            EventDomain.MEMORY,
            {
                "LOAD_LATENCY_GT_4": {"cache.l1d.demand_miss": 0.3},
                "LOAD_LATENCY_GT_8": {"cache.l1d.demand_miss": 0.2},
                "LOAD_LATENCY_GT_16": {"cache.l2.demand_rd_miss": 0.3},
                "LOAD_LATENCY_GT_32": {"cache.l2.demand_rd_miss": 0.15},
                "LOAD_LATENCY_GT_64": {"cache.l3.miss": 0.4},
                "LOAD_LATENCY_GT_128": {"cache.l3.miss": 0.2},
                "STORE_SAMPLE": {"mem.stores_retired": 0.001},
            },
            noise_class="offcore",
        )
    )
    events.extend(
        family(
            "XQ",
            EventDomain.MEMORY,
            {"FULL_CYCLES": {"cache.l3.miss": 2.0}},
            noise_class="offcore",
        )
    )
    events.extend(
        family(
            "SQ_MISC",
            EventDomain.MEMORY,
            {"BUS_LOCK": {}, "SQ_FULL": {"cache.l2.demand_rd_miss": 0.5}},
            noise_class="offcore",
            noise_overrides={"BUS_LOCK": "idle_floor"},
        )
    )
    events.extend(
        family(
            "CORE_POWER",
            EventDomain.OTHER,
            {"LVL0_TURBO_LICENSE": {"cycles.core": 0.999}, "LVL1_TURBO_LICENSE": {"cycles.core": 0.001}, "LVL2_TURBO_LICENSE": {}},
            noise_class="timing_coarse",
            noise_overrides={"LVL2_TURBO_LICENSE": "idle_floor"},
        )
    )
    events.extend(
        family(
            "SYS",
            EventDomain.OTHER,
            {
                "PAGE_FAULTS": {"sw.page_faults": 1.0},
                "CONTEXT_SWITCHES": {"sw.context_switches": 1.0},
                "CPU_MIGRATIONS": {},
            },
            noise_class="timing_coarse",
            noise_overrides={"CPU_MIGRATIONS": "idle_floor"},
        )
    )
    events.extend(
        family(
            "LD_BLOCKS",
            EventDomain.MEMORY,
            {
                "STORE_FORWARD": {},
                "NO_SR": {},
                "ADDRESS_ALIAS": {"instr.load": 0.0005},
            },
            noise_class="idle_floor",
            noise_overrides={"ADDRESS_ALIAS": "memory"},
        )
    )
    events.extend(
        family(
            "LOCK_CYCLES",
            EventDomain.MEMORY,
            {"CACHE_LOCK_DURATION": {}},
            noise_class="idle_floor",
        )
    )
    return events


def _extended_events() -> List[RawEvent]:
    """Long tail of the native-event list: uncore, snoop-attribution,
    power, serialization and deep-latency families.

    These widen the sweep toward the ~350-event population of the paper's
    Figure 2b.  None of them introduces a clean basis-aligned column — by
    construction they are either dead (zero response), idle-floor noisy,
    timing-class, or scaled mixtures — so they exercise every filtering
    stage without perturbing the Section-V selections.
    """
    events: List[RawEvent] = []
    # Uncore CHA (coherence/home agent) — offcore-class noise, L3-coupled.
    events.extend(
        family(
            "UNC_CHA_TOR_INSERTS",
            EventDomain.MEMORY,
            {
                "IA_MISS_DRD": {"cache.l3.references": 0.9},
                "IA_MISS_DRD_LOCAL": {"cache.l3.references": 0.85},
                "IA_MISS_DRD_REMOTE": {"cache.l3.references": 0.05},
                "IA_MISS_RFO": {"mem.stores_retired": 0.02},
                "IA_HIT_CRD": {"cache.l3.hit": 0.3},
                "ALL": {"cache.l3.references": 1.4},
            },
            noise_class="offcore",
        )
    )
    events.extend(
        family(
            "UNC_CHA_TOR_OCCUPANCY",
            EventDomain.MEMORY,
            {"IA_MISS": {"cache.l3.miss": 60.0}, "IA": {"cache.l3.references": 45.0}},
            noise_class="offcore",
        )
    )
    events.extend(
        family(
            "UNC_CHA_CLOCKTICKS",
            EventDomain.OTHER,
            {"": {"cycles.ref": 1.1}},
            noise_class="timing_coarse",
        )
    )
    # Uncore memory controller.
    events.extend(
        family(
            "UNC_M_CAS_COUNT",
            EventDomain.MEMORY,
            {
                "RD": {"cache.l3.miss": 1.0},
                "WR": {"cache.l3.miss": 0.12},
                "ALL": {"cache.l3.miss": 1.12},
            },
            noise_class="offcore",
        )
    )
    events.extend(
        family(
            "UNC_M",
            EventDomain.MEMORY,
            {
                "CLOCKTICKS": {"cycles.ref": 0.6},
                "ACT_COUNT.ALL": {"cache.l3.miss": 0.55},
                "PRE_COUNT.ALL": {"cache.l3.miss": 0.5},
                "RPQ_INSERTS.PCH0": {"cache.l3.miss": 0.48},
                "WPQ_INSERTS.PCH0": {"cache.l3.miss": 0.06},
            },
            noise_class="offcore",
        )
    )
    # Snoop attribution of L3 misses (local vs remote service).
    events.extend(
        family(
            "MEM_LOAD_L3_MISS_RETIRED",
            EventDomain.CACHE,
            {
                "LOCAL_DRAM": {"cache.l3.miss": 0.96},
                "REMOTE_DRAM": {"cache.l3.miss": 0.04},
                "REMOTE_FWD": {},
                "REMOTE_HITM": {},
            },
            noise_class="memory",
            noise_overrides={"REMOTE_FWD": "idle_floor", "REMOTE_HITM": "idle_floor"},
        )
    )
    events.extend(
        family(
            "MEM_LOAD_MISC_RETIRED",
            EventDomain.CACHE,
            {"UC": {}},
            noise_class="idle_floor",
        )
    )
    # Deep-latency sampling buckets (mostly silent on CAT workloads).
    events.extend(
        family(
            "MEM_TRANS_RETIRED_EXT",
            EventDomain.MEMORY,
            {
                "LOAD_LATENCY_GT_256": {"cache.l3.miss": 0.05},
                "LOAD_LATENCY_GT_512": {},
            },
            noise_class="offcore",
            noise_overrides={"LOAD_LATENCY_GT_512": "idle_floor"},
        )
    )
    # Extra off-core response combinations.
    ocr: Dict[str, Dict[str, float]] = {}
    for req, key, scale in (
        ("DEMAND_RFO", "mem.stores_retired", 0.02),
        ("HWPF_L2_DATA_RD", "cache.l2.prefetch_req", 0.8),
        ("STREAMING_WR", "mem.stores_retired", 0.0),
    ):
        ocr[f"{req}.L3_HIT"] = {key: 0.4 * scale} if scale else {}
        ocr[f"{req}.DRAM"] = {key: 0.6 * scale} if scale else {}
        ocr[f"{req}.ANY_RESPONSE"] = {key: scale} if scale else {}
    events.extend(
        family(
            "OCR2",
            EventDomain.MEMORY,
            ocr,
            noise_class="offcore",
            noise_overrides={q: "idle_floor" for q, r in ocr.items() if not r},
        )
    )
    # x87 / AMX / legacy silent units.
    events.extend(
        family(
            "X87_OPS_RETIRED",
            EventDomain.FLOPS,
            {"ANY": {}, "FP_DIV": {}, "FP_TRANS": {}},
            noise_class="exact",
        )
    )
    events.extend(
        family(
            "AMX",
            EventDomain.OTHER,
            {"TMUL_CYCLES": {}, "TILE_LOADS": {}, "TILE_STORES": {}},
            noise_class="exact",
        )
    )
    # Frontend long tail.
    events.extend(
        family(
            "FRONTEND_RETIRED_EXT",
            EventDomain.FRONTEND,
            {
                "LATENCY_GE_64": {},
                "LATENCY_GE_128": {},
                "LATENCY_GE_256": {},
                "LATENCY_GE_512": {},
            },
            noise_class="idle_floor",
        )
    )
    events.extend(
        family(
            "UOPS_DECODED",
            EventDomain.FRONTEND,
            {"DEC0_UOPS": {"frontend.mite_uops": 0.5}},
            noise_class="timing",
        )
    )
    events.extend(
        family(
            "ICACHE_64B",
            EventDomain.FRONTEND,
            {
                "IFTAG_HIT": {"frontend.dsb_uops": 0.2, "frontend.mite_uops": 0.2},
                "IFTAG_MISS": {"frontend.fetch_bubbles": 0.02},
            },
            noise_class="timing_coarse",
        )
    )
    # Backend bookkeeping long tail.
    events.extend(
        family(
            "RS",
            EventDomain.PIPELINE,
            {
                "EMPTY_CYCLES": {"frontend.fetch_bubbles": 0.6},
                "EMPTY_COUNT": {"frontend.fetch_bubbles": 0.1},
            },
            noise_class="timing_coarse",
        )
    )
    events.extend(
        family(
            "SERIALIZATION",
            EventDomain.PIPELINE,
            {"NON_C01_MS_SCB": {}},
            noise_class="idle_floor",
        )
    )
    events.extend(
        family(
            "MISC2_RETIRED",
            EventDomain.PIPELINE,
            {"LFENCE": {}, "PAUSE": {}},
            noise_class="idle_floor",
        )
    )
    events.extend(
        family(
            "TOPDOWN_EXT",
            EventDomain.PIPELINE,
            {
                "RETIRING_SLOTS": {"uops.retired": 1.0, "cycles.core": 0.01},
                "FE_BOUND_SLOTS": {"frontend.fetch_bubbles": 5.0},
                "HEAVY_OPS_SLOTS": {"instr.div": 4.0},
                "LIGHT_OPS_SLOTS": {"uops.retired": 0.96},
            },
            noise_class="timing_coarse",
        )
    )
    # Power/thermal pseudo-events.
    events.extend(
        family(
            "PM",
            EventDomain.OTHER,
            {
                "ENERGY_PKG": {"cycles.ref": 0.002},
                "ENERGY_DRAM": {"cache.l3.miss": 0.001},
                "THROTTLE_CYCLES": {},
            },
            noise_class="timing_coarse",
            noise_overrides={"THROTTLE_CYCLES": "idle_floor"},
        )
    )
    # Integer vector long tail (silent on FP/branch/cache kernels).
    events.extend(
        family(
            "INT_VEC_RETIRED_EXT",
            EventDomain.PIPELINE,
            {"VNNI_512": {}, "MUL_128": {}, "ADD_512": {}},
            noise_class="idle_floor",
        )
    )
    return events


@cached_catalog
def sapphire_rapids_events() -> EventRegistry:
    """The full SPR core-event catalog (deterministic; built once per process)."""
    registry = EventRegistry(name="intel_sapphire_rapids")
    for builder in (
        _fp_events,
        _branch_events,
        _cache_events,
        _tlb_events,
        _pipeline_events,
        _frontend_events,
        _misc_events,
        _extended_events,
    ):
        registry.extend(builder())
    return registry
