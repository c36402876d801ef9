"""System configurations: Aurora (Intel SPR) and Frontier (AMD MI250X) nodes.

A :class:`MachineNode` bundles everything a CAT benchmark run needs: the
simulated machine, the raw-event catalog a native-event sweep would expose
on it, the PMU geometry, and a base seed that anchors all measurement-noise
reproducibility for the node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.events.catalogs import mi250x_events, sapphire_rapids_events, zen3_events
from repro.events.registry import EventRegistry
from repro.hardware.cache import CacheConfig
from repro.hardware.cpu import CPUConfig, SimulatedCPU
from repro.hardware.gpu import GPUConfig, SimulatedGPU
from repro.hardware.pmu import PMU

__all__ = ["MachineNode", "aurora_node", "frontier_cpu_node", "frontier_node"]


@dataclass
class MachineNode:
    """One compute node's measurement substrate."""

    name: str
    machine: Union[SimulatedCPU, SimulatedGPU]
    events: EventRegistry
    pmu: PMU
    seed: int = 0

    @property
    def is_gpu(self) -> bool:
        return isinstance(self.machine, SimulatedGPU)


def aurora_node(seed: int = 2024, config: Optional[CPUConfig] = None) -> MachineNode:
    """An Aurora compute node: Intel Sapphire Rapids CPU substrate."""
    return MachineNode(
        name="aurora-spr",
        machine=SimulatedCPU(config or CPUConfig()),
        events=sapphire_rapids_events(),
        pmu=PMU(programmable_counters=8, fixed_counters=3),
        seed=seed,
    )


def frontier_node(seed: int = 2024, config: Optional[GPUConfig] = None) -> MachineNode:
    """A Frontier compute node: AMD MI250X GPU substrate (8 devices)."""
    return MachineNode(
        name="frontier-mi250x",
        machine=SimulatedGPU(config or GPUConfig()),
        events=mi250x_events(),
        pmu=PMU(programmable_counters=8, fixed_counters=0),
        seed=seed,
    )


def frontier_cpu_node(seed: int = 2024, config: Optional[CPUConfig] = None) -> MachineNode:
    """Frontier's host CPU: AMD Zen 3 "Trento" substrate.

    Beyond the paper's evaluation (which used Frontier's GPUs only); this
    node exercises the cross-architecture portability story on a CPU whose
    FP counters count *operations with merged precisions* rather than
    per-precision instructions.  Geometry: 32 KiB/8-way L1D, 512 KiB/8-way
    L2, a 32 MiB/16-way L3 slice; Zen PMCs: 6 programmable, no fixed
    counters.
    """
    trento = config or CPUConfig(
        name="amd_zen3_trento",
        l1d=CacheConfig("L1D", 32 * 1024, 64, 8),
        l2=CacheConfig("L2", 512 * 1024, 64, 8),
        l3=CacheConfig("L3", 32 * 1024 * 1024, 64, 16),
    )
    return MachineNode(
        name="frontier-trento",
        machine=SimulatedCPU(trento),
        events=zen3_events(),
        pmu=PMU(programmable_counters=6, fixed_counters=0),
        seed=seed,
    )
