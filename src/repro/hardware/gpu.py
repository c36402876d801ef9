"""Simulated GPU (AMD MI250X-like): wavefront-level activity for the CAT
GPU-FLOPs benchmark.

CAT's GPU benchmark launches register-resident kernels whose bodies repeat
one vector ALU operation (add / sub / mul / sqrt / fma) at one precision;
the analysis consumes per-iteration VALU instruction counts.  The machine
model adds the surrounding reality: wavefront bookkeeping, scalar-unit loop
overhead, occupancy/busy cycles, and light instruction-fetch traffic, so
that the ~90 live non-VALU events in the catalog respond and must be
filtered by the pipeline rather than being trivially absent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.activity import Activity

__all__ = ["GPUConfig", "GPUKernel", "SimulatedGPU"]


@dataclass(frozen=True)
class GPUConfig:
    """Launch geometry and issue model of the simulated device."""

    name: str = "amd_mi250x"
    wavefront_size: int = 64
    waves_per_workgroup: int = 4
    workgroups: int = 220  # one wave per CU pipeline, MI250X GCD-ish
    valu_issue_rate: float = 1.0  # VALU instructions per cycle per wave slot
    trans_issue_rate: float = 0.25  # transcendental pipe is quarter rate
    f64_rate_penalty: float = 2.0


@dataclass(frozen=True)
class GPUKernel:
    """One GPU microkernel configuration.

    ``valu_ops`` maps VALU activity keys (``gpu.valu.<op>.<prec>``) to
    per-iteration instruction counts per wavefront.
    """

    name: str
    valu_ops: Mapping[str, float] = field(default_factory=dict)
    salu_ops: float = 3.0  # loop counter + compare + branch setup
    smem_ops: float = 0.5
    iterations: int = 256


class SimulatedGPU:
    """Executes GPU kernels on one logical device; per-iteration activity."""

    def __init__(self, config: GPUConfig = GPUConfig()):
        self.config = config

    def run(self, kernel: GPUKernel) -> Activity:
        """Per-iteration, per-wavefront activity for one kernel."""
        cfg = self.config
        counts: Dict[str, float] = {}
        valu_total = 0.0
        trans_cycles = 0.0
        valu_cycles = 0.0
        for key, value in kernel.valu_ops.items():
            value = float(value)
            counts[key] = counts.get(key, 0.0) + value
            valu_total += value
            rate = cfg.valu_issue_rate
            if ".trans." in key:
                rate = cfg.trans_issue_rate
            if key.endswith(".f64"):
                rate = rate / cfg.f64_rate_penalty
            issue_cycles = value / rate
            if ".trans." in key:
                trans_cycles += issue_cycles
            else:
                valu_cycles += issue_cycles

        waves = float(cfg.waves_per_workgroup * cfg.workgroups)
        per_iter_cycles = max(valu_cycles + trans_cycles, kernel.salu_ops * 0.25) + 1.0

        counts.update(
            {
                "gpu.valu.total": valu_total,
                "gpu.valu.int": 1.0,  # induction-variable update
                "gpu.salu": kernel.salu_ops,
                "gpu.smem": kernel.smem_ops,
                "gpu.branch": 1.0,  # loop back-branch
                "gpu.sendmsg": 0.0,
                "gpu.lds": 0.0,
                "gpu.gds": 0.0,
                "gpu.flat": 0.0,
                "gpu.vmem.read": 0.0,
                "gpu.vmem.write": 0.0,
                # Launch bookkeeping amortized per iteration.
                "gpu.waves": waves / kernel.iterations,
                "gpu.workgroups": float(cfg.workgroups) / kernel.iterations,
                "gpu.cycles": per_iter_cycles * 1.05,
                "gpu.busy_cycles": per_iter_cycles,
                "gpu.wave_cycles": per_iter_cycles * waves,
                "gpu.valu_busy": valu_cycles + trans_cycles,
                "gpu.salu_busy": kernel.salu_ops * 0.25,
                "gpu.occupancy": 0.8,
                "gpu.fetch_size": 0.3,
                "gpu.write_size": 0.0,
                "gpu.l1.hit": kernel.smem_ops * 0.98,
                "gpu.l1.miss": kernel.smem_ops * 0.02,
                "gpu.l2.hit": kernel.smem_ops * 0.019,
                "gpu.l2.miss": kernel.smem_ops * 0.001,
                "gpu.mem_unit_busy": 0.05,
                "gpu.mem_unit_stalled": 0.01,
                "gpu.write_unit_stalled": 0.0,
            }
        )
        return Activity(counts)
