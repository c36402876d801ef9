"""CAT GPU-FLOPs benchmark: 15 kernels x 3 loop sizes on the MI250X model.

Kernels perform one of addition, subtraction, multiplication, square root
or fused multiply-add at half, single or double precision (paper Section
III-C).  Square-root work lands on the transcendental pipe, which is why
``SQ_INSTS_VALU_TRANS_F*`` is the raw event that tracks it.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.activity import Activity
from repro.cat.kernels import GPU_FLOPS_DIMENSIONS, GPU_FLOPS_LOOP_BLOCKS
from repro.events.model import EventDomain
from repro.hardware.gpu import GPUKernel, SimulatedGPU

__all__ = ["GPUFlopsBenchmark"]


class GPUFlopsBenchmark:
    """The CAT GPU floating-point benchmark (runs on device 0)."""

    name = "gpu_flops"
    #: The rocm component exposes every event on every device; a blind sweep
    #: measures all of them (paper Fig. 2c: ~1200 events).
    measured_domains: Tuple[str, ...] = (
        EventDomain.GPU_VALU,
        EventDomain.GPU_MEMORY,
        EventDomain.GPU_PIPELINE,
    )
    environment_noise = None
    n_threads = 1

    def __init__(self, salu_ops_per_iter: float = 3.0):
        self.salu_ops_per_iter = salu_ops_per_iter
        self._kernels: List[Tuple[str, GPUKernel]] = []
        for dim in GPU_FLOPS_DIMENSIONS:
            for block in GPU_FLOPS_LOOP_BLOCKS:
                kernel = GPUKernel(
                    name=f"{dim.kernel_name}/loop{block}",
                    valu_ops={dim.activity_key: float(block)},
                    salu_ops=self.salu_ops_per_iter,
                )
                self._kernels.append((kernel.name, kernel))

    def row_labels(self) -> List[str]:
        return [label for label, _ in self._kernels]

    def execute(self, machine: SimulatedGPU) -> List[List[Activity]]:
        if not isinstance(machine, SimulatedGPU):
            raise TypeError("the GPU-FLOPs benchmark requires a SimulatedGPU")
        return [[machine.run(kernel)] for _, kernel in self._kernels]
