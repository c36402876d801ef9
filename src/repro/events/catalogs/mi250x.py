"""Raw-event catalog for an AMD MI250X GPU (Frontier node, `rocm:::` component).

Frontier exposes eight logical GPU devices per node; PAPI surfaces every
native event once per device (``rocm:::SQ_INSTS_VALU_ADD_F16:device=N``),
which is how the paper's GPU-FLOPs variability sweep reaches ~1200 measured
events (Figure 2c).  CAT runs its kernels on device 0, so device-0 events
respond to the workload while devices 1-7 read zero (plus an idle-noise
floor for busy/occupancy-style counters).

The semantic quirk the paper's Table VI hinges on: MI200-class hardware has
no subtraction-specific VALU counter — ``SQ_INSTS_VALU_ADD_F*`` counts both
additions and subtractions.  ``SQ_INSTS_VALU_TRANS_F*`` covers the
transcendental pipe (square roots in the CAT GPU benchmark), and FMA events
count *instructions* (one per FMA, unlike Intel's FP_ARITH double count).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.events.catalogs._builders import cached_catalog, family
from repro.events.model import EventDomain
from repro.events.registry import EventRegistry
from repro.activity import VALU_PRECISIONS, valu_instr_key

__all__ = ["mi250x_events", "MI250X_DEVICE_COUNT"]

MI250X_DEVICE_COUNT = 8

#: (family name, domain, umask table, noise class) — responses are for the
#: device actually executing the kernels; other devices get zeroed copies.
def _device_families() -> List[Tuple[str, str, Dict[str, Dict[str, float]], str, Dict[str, str]]]:
    fams: List[Tuple[str, str, Dict[str, Dict[str, float]], str, Dict[str, str]]] = []

    # --- SQ: sequencer instruction counters (the key VALU events) ---------
    valu: Dict[str, Dict[str, float]] = {}
    prec_suffix = {"f16": "F16", "f32": "F32", "f64": "F64"}
    for prec in VALU_PRECISIONS:
        suffix = prec_suffix[prec]
        # No dedicated SUB counter: ADD fires for additions and subtractions.
        valu[f"SQ_INSTS_VALU_ADD_{suffix}"] = {
            valu_instr_key("add", prec): 1.0,
            valu_instr_key("sub", prec): 1.0,
        }
        valu[f"SQ_INSTS_VALU_MUL_{suffix}"] = {valu_instr_key("mul", prec): 1.0}
        valu[f"SQ_INSTS_VALU_TRANS_{suffix}"] = {valu_instr_key("trans", prec): 1.0}
        valu[f"SQ_INSTS_VALU_FMA_{suffix}"] = {valu_instr_key("fma", prec): 1.0}
    for name, response in valu.items():
        fams.append((name, EventDomain.GPU_VALU, {"": response}, "exact", {}))

    # Aggregates (dependent columns for the QR to discard).
    all_valu = {}
    for prec in VALU_PRECISIONS:
        for op in ("add", "sub", "mul", "trans", "fma"):
            all_valu[valu_instr_key(op, prec)] = 1.0
    all_valu["gpu.valu.int"] = 1.0
    fams.append(("SQ_INSTS_VALU", EventDomain.GPU_VALU, {"": all_valu}, "exact", {}))
    fams.append(
        (
            "SQ_INSTS_VALU_CVT",
            EventDomain.GPU_VALU,
            {"": {}},
            "exact",
            {"": "VALU conversion instructions (unused by CAT kernels)."},
        )
    )
    for prec, suffix in prec_suffix.items():
        fams.append(
            (
                f"SQ_INSTS_VALU_MFMA_{suffix}",
                EventDomain.GPU_VALU,
                {"": {}},
                "exact",
                {"": "Matrix-fused multiply-add instructions (idle in CAT)."},
            )
        )
    fams.append(("SQ_INSTS_VALU_INT32", EventDomain.GPU_VALU, {"": {"gpu.valu.int": 1.0}}, "exact", {}))
    fams.append(("SQ_INSTS_VALU_INT64", EventDomain.GPU_VALU, {"": {}}, "exact", {}))

    sq_misc: Dict[str, Dict[str, float]] = {
        "SQ_INSTS_SALU": {"gpu.salu": 1.0},
        "SQ_INSTS_SMEM": {"gpu.smem": 1.0},
        "SQ_INSTS_VMEM_RD": {"gpu.vmem.read": 1.0},
        "SQ_INSTS_VMEM_WR": {"gpu.vmem.write": 1.0},
        "SQ_INSTS_VMEM": {"gpu.vmem.read": 1.0, "gpu.vmem.write": 1.0},
        "SQ_INSTS_FLAT": {"gpu.flat": 1.0},
        "SQ_INSTS_FLAT_LDS_ONLY": {},
        "SQ_INSTS_LDS": {"gpu.lds": 1.0},
        "SQ_INSTS_GDS": {"gpu.gds": 1.0},
        "SQ_INSTS_BRANCH": {"gpu.branch": 1.0},
        "SQ_INSTS_CBRANCH": {"gpu.branch": 0.9},
        "SQ_INSTS_SENDMSG": {"gpu.sendmsg": 1.0},
        "SQ_INSTS_EXP_GDS": {},
        "SQ_INSTS": {
            "gpu.valu.total": 1.0,
            "gpu.salu": 1.0,
            "gpu.smem": 1.0,
            "gpu.vmem.read": 1.0,
            "gpu.vmem.write": 1.0,
            "gpu.branch": 1.0,
            "gpu.lds": 1.0,
        },
    }
    for name, response in sq_misc.items():
        fams.append((name, EventDomain.GPU_PIPELINE, {"": response}, "exact", {}))

    sq_timing: Dict[str, Dict[str, float]] = {
        "SQ_WAVES": {"gpu.waves": 1.0},
        "SQ_WAVES_EQ_64": {"gpu.waves": 1.0},
        "SQ_WAVES_LT_64": {},
        "SQ_WAVES_RESTORED": {},
        "SQ_WAVES_SAVED": {},
        "SQ_BUSY_CYCLES": {"gpu.busy_cycles": 1.0},
        "SQ_BUSY_CU_CYCLES": {"gpu.busy_cycles": 0.95},
        "SQ_WAVE_CYCLES": {"gpu.wave_cycles": 1.0},
        "SQ_CYCLES": {"gpu.cycles": 1.0},
        "SQ_ACTIVE_INST_VALU": {"gpu.valu_busy": 1.0},
        "SQ_ACTIVE_INST_SCA": {"gpu.salu_busy": 1.0},
        "SQ_ACTIVE_INST_LDS": {"gpu.lds": 2.0},
        "SQ_ACTIVE_INST_ANY": {"gpu.valu_busy": 1.0, "gpu.salu_busy": 1.0},
        "SQ_INST_CYCLES_SALU": {"gpu.salu": 4.0},
        "SQ_INST_CYCLES_SMEM": {"gpu.smem": 4.0},
        "SQ_INST_CYCLES_VMEM_RD": {"gpu.vmem.read": 4.0},
        "SQ_INST_CYCLES_VMEM_WR": {"gpu.vmem.write": 4.0},
        "SQ_WAIT_INST_LDS": {"gpu.lds": 1.5},
        "SQ_WAIT_ANY": {"gpu.mem_unit_stalled": 0.8},
        "SQ_IFETCH": {"gpu.fetch_size": 0.25},
        "SQ_ITEMS": {"gpu.waves": 64.0},
        "SQ_THREAD_CYCLES_VALU": {"gpu.valu_busy": 64.0},
    }
    for name, response in sq_timing.items():
        noise = "exact" if name in ("SQ_WAVES", "SQ_WAVES_EQ_64", "SQ_ITEMS") else "timing_coarse"
        if not response:
            noise = "idle_floor"
        fams.append((name, EventDomain.GPU_PIPELINE, {"": response}, noise, {}))

    # --- SQC: sequencer caches (instruction/constant) ----------------------
    sqc = {
        "SQC_ICACHE_REQ": {"gpu.fetch_size": 0.1},
        "SQC_ICACHE_HITS": {"gpu.fetch_size": 0.097},
        "SQC_ICACHE_MISSES": {"gpu.fetch_size": 0.003},
        "SQC_ICACHE_MISSES_DUPLICATE": {},
        "SQC_DCACHE_REQ": {"gpu.smem": 1.0},
        "SQC_DCACHE_HITS": {"gpu.smem": 0.98},
        "SQC_DCACHE_MISSES": {"gpu.smem": 0.02},
        "SQC_DCACHE_MISSES_DUPLICATE": {},
        "SQC_TC_REQ": {"gpu.smem": 0.03},
        "SQC_TC_DATA_READ_REQ": {"gpu.smem": 0.025},
    }
    for name, response in sqc.items():
        fams.append((name, EventDomain.GPU_MEMORY, {"": response}, "timing_coarse" if response else "idle_floor", {}))

    # --- TA/TD/TCP/TCC: vector-memory path ---------------------------------
    ta = {
        "TA_TA_BUSY": {"gpu.mem_unit_busy": 1.0},
        "TA_TOTAL_WAVEFRONTS": {"gpu.waves": 1.0},
        "TA_BUFFER_WAVEFRONTS": {"gpu.vmem.read": 0.5, "gpu.vmem.write": 0.5},
        "TA_BUFFER_READ_WAVEFRONTS": {"gpu.vmem.read": 0.5},
        "TA_BUFFER_WRITE_WAVEFRONTS": {"gpu.vmem.write": 0.5},
        "TA_FLAT_WAVEFRONTS": {"gpu.flat": 0.5},
        "TA_FLAT_READ_WAVEFRONTS": {"gpu.flat": 0.3},
        "TA_ADDR_STALLED_BY_TC_CYCLES": {"gpu.mem_unit_stalled": 0.4},
    }
    for name, response in ta.items():
        fams.append((name, EventDomain.GPU_MEMORY, {"": response}, "timing_coarse", {}))

    td = {
        "TD_TD_BUSY": {"gpu.mem_unit_busy": 0.9},
        "TD_TC_STALL": {"gpu.mem_unit_stalled": 0.5},
        "TD_LOAD_WAVEFRONT": {"gpu.vmem.read": 0.5, "gpu.flat": 0.3},
        "TD_STORE_WAVEFRONT": {"gpu.vmem.write": 0.5},
        "TD_ATOMIC_WAVEFRONT": {},
        "TD_COALESCABLE_WAVEFRONT": {"gpu.vmem.read": 0.4},
    }
    for name, response in td.items():
        fams.append((name, EventDomain.GPU_MEMORY, {"": response}, "timing_coarse" if response else "idle_floor", {}))

    tcp = {
        "TCP_TCP_TA_DATA_STALL_CYCLES": {"gpu.mem_unit_stalled": 0.6},
        "TCP_TD_TCP_STALL_CYCLES": {"gpu.mem_unit_stalled": 0.3},
        "TCP_TCR_TCP_STALL_CYCLES": {"gpu.mem_unit_stalled": 0.2},
        "TCP_READ_TAGCONFLICT_STALL_CYCLES": {"gpu.l1.miss": 0.1},
        "TCP_PENDING_STALL_CYCLES": {"gpu.mem_unit_stalled": 0.5},
        "TCP_TOTAL_CACHE_ACCESSES": {"gpu.l1.hit": 1.0, "gpu.l1.miss": 1.0},
        "TCP_CACHE_ACCESSES_HIT": {"gpu.l1.hit": 1.0},
        "TCP_CACHE_ACCESSES_MISS": {"gpu.l1.miss": 1.0},
        "TCP_TOTAL_WRITEBACK_INVALIDATES": {},
        "TCP_UTCL1_REQUEST": {"gpu.l1.hit": 1.0, "gpu.l1.miss": 1.0},
        "TCP_UTCL1_TRANSLATION_HIT": {"gpu.l1.hit": 0.99, "gpu.l1.miss": 0.99},
        "TCP_UTCL1_TRANSLATION_MISS": {"gpu.l1.miss": 0.01},
    }
    for name, response in tcp.items():
        fams.append((name, EventDomain.GPU_MEMORY, {"": response}, "memory" if response else "idle_floor", {}))

    tcc = {
        "TCC_HIT_sum": {"gpu.l2.hit": 1.0},
        "TCC_MISS_sum": {"gpu.l2.miss": 1.0},
        "TCC_REQ_sum": {"gpu.l2.hit": 1.0, "gpu.l2.miss": 1.0},
        "TCC_READ_sum": {"gpu.l2.hit": 0.7, "gpu.l2.miss": 0.7},
        "TCC_WRITE_sum": {"gpu.l2.hit": 0.3, "gpu.l2.miss": 0.3},
        "TCC_ATOMIC_sum": {},
        "TCC_EA_RDREQ_sum": {"gpu.l2.miss": 1.0},
        "TCC_EA_RDREQ_32B_sum": {"gpu.l2.miss": 0.2},
        "TCC_EA_WRREQ_sum": {"gpu.l2.miss": 0.3},
        "TCC_EA_WRREQ_64B_sum": {"gpu.l2.miss": 0.25},
        "TCC_EA_RDREQ_DRAM_sum": {"gpu.l2.miss": 0.95},
        "TCC_EA_WRREQ_DRAM_sum": {"gpu.l2.miss": 0.28},
        "TCC_TAG_STALL_sum": {"gpu.mem_unit_stalled": 0.2},
        "TCC_NORMAL_WRITEBACK_sum": {"gpu.l2.miss": 0.1},
        "TCC_ALL_TC_OP_WB_WRITEBACK_sum": {},
        "TCC_PROBE_sum": {},
    }
    for name, response in tcc.items():
        fams.append((name, EventDomain.GPU_MEMORY, {"": response}, "offcore" if response else "idle_floor", {}))

    # --- GRBM/SPI/CP: global pipeline occupancy ----------------------------
    grbm = {
        "GRBM_COUNT": {"gpu.cycles": 1.0},
        "GRBM_GUI_ACTIVE": {"gpu.busy_cycles": 1.0},
        "GRBM_CP_BUSY": {"gpu.busy_cycles": 0.3},
        "GRBM_SPI_BUSY": {"gpu.busy_cycles": 0.8},
        "GRBM_TA_BUSY": {"gpu.mem_unit_busy": 1.0},
        "GRBM_TC_BUSY": {"gpu.mem_unit_busy": 0.7},
        "GRBM_CB_BUSY": {},
        "GRBM_DB_BUSY": {},
        "GRBM_GDS_BUSY": {"gpu.gds": 5.0},
        "GRBM_EA_BUSY": {"gpu.l2.miss": 2.0},
    }
    for name, response in grbm.items():
        fams.append((name, EventDomain.GPU_PIPELINE, {"": response}, "timing_coarse" if response else "idle_floor", {}))

    spi = {
        "SPI_CSN_BUSY": {"gpu.busy_cycles": 0.6},
        "SPI_CSN_WINDOW_VALID": {"gpu.busy_cycles": 0.65},
        "SPI_CSN_NUM_THREADGROUPS": {"gpu.workgroups": 1.0},
        "SPI_CSN_WAVE": {"gpu.waves": 1.0},
        "SPI_RA_REQ_NO_ALLOC": {"gpu.mem_unit_stalled": 0.1},
        "SPI_RA_REQ_NO_ALLOC_CSN": {"gpu.mem_unit_stalled": 0.08},
        "SPI_RA_RES_STALL_CSN": {"gpu.mem_unit_stalled": 0.12},
        "SPI_RA_TMP_STALL_CSN": {},
        "SPI_RA_WAVE_SIMD_FULL_CSN": {"gpu.occupancy": 0.5},
        "SPI_RA_VGPR_SIMD_FULL_CSN": {},
        "SPI_RA_SGPR_SIMD_FULL_CSN": {},
        "SPI_VWC_CSC_WR": {"gpu.waves": 0.5},
    }
    for name, response in spi.items():
        fams.append((name, EventDomain.GPU_PIPELINE, {"": response}, "timing_coarse" if response else "idle_floor", {}))

    cp = {
        "CPC_ME1_BUSY_FOR_PACKET_DECODE": {"gpu.workgroups": 2.0},
        "CPC_UTCL1_STALL_ON_TRANSLATION": {},
        "CPC_ALWAYS_COUNT": {"gpu.cycles": 1.0},
        "CPC_CSN_BUSY": {"gpu.busy_cycles": 0.2},
        "CPF_CMP_UTCL1_STALL_ON_TRANSLATION": {},
        "CPF_CPF_STAT_BUSY": {"gpu.busy_cycles": 0.1},
        "CPF_CPF_STAT_IDLE": {"gpu.cycles": 0.9},
        "CPF_CPF_TCIU_BUSY": {"gpu.fetch_size": 0.05},
    }
    for name, response in cp.items():
        fams.append((name, EventDomain.GPU_PIPELINE, {"": response}, "timing_coarse" if response else "idle_floor", {}))

    gds = {
        "GDS_DS_ADDR_CONFLICT": {},
        "GDS_WBUF_BUSY": {},
        "GDS_INPUT_VALID": {"gpu.gds": 1.0},
        "GDS_VALID_BANK_CONFLICT": {},
    }
    for name, response in gds.items():
        fams.append((name, EventDomain.GPU_MEMORY, {"": response}, "idle_floor" if not response else "timing_coarse", {}))

    return fams


@cached_catalog
def mi250x_events(device_count: int = MI250X_DEVICE_COUNT, active_device: int = 0) -> EventRegistry:
    """The MI250X catalog: every family instantiated per device.

    Only ``active_device`` (where CAT launches its kernels) carries live
    responses; the other devices' copies are idle — instruction counters
    read exactly zero, busy/stall counters read an OS/driver noise floor.
    """
    registry = EventRegistry(name="amd_mi250x")
    for device in range(device_count):
        for name, domain, umasks, noise_class, descriptions in _device_families():
            if device == active_device:
                dev_umasks = umasks
                dev_noise = noise_class
            else:
                dev_umasks = {q: {} for q in umasks}
                # Idle devices: deterministic counters are silent (all-zero);
                # busy/stall counters tick a driver-activity floor.
                dev_noise = "idle_floor" if noise_class in ("timing_coarse", "offcore", "memory") else "exact"
            registry.extend(
                family(
                    name,
                    domain,
                    dev_umasks,
                    noise_class=dev_noise,
                    descriptions=descriptions,
                    device=device,
                )
            )
    return registry
