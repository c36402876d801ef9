"""CAT CPU-FLOPs benchmark: 16 kernels x 3 loop sizes.

One microkernel per ideal floating-point instruction class —
{scalar, 128, 256, 512} x {SP, DP} x {FMA, non-FMA} — each with three
unrolled loops (24/48/96 instructions per iteration; half that for the FMA
kernels), as described in the paper's Section III and Figure 1.  Every
kernel carries the same loop overhead (two integer ops and the loop
back-branch), which is what contaminates events like ``INST_RETIRED:ANY``
and gets them rejected at the representation stage.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.activity import Activity
from repro.cat.kernels import CPU_FLOPS_DIMENSIONS
from repro.events.model import EventDomain
from repro.hardware.branch import BranchSpec
from repro.hardware.cpu import ComputeKernel, SimulatedCPU

__all__ = ["CPUFlopsBenchmark"]


class CPUFlopsBenchmark:
    """The CAT CPU floating-point benchmark."""

    name = "cpu_flops"
    #: A blind native-event sweep over the core PMU (paper Fig. 2b).
    measured_domains: Tuple[str, ...] = (
        EventDomain.FLOPS,
        EventDomain.BRANCH,
        EventDomain.CACHE,
        EventDomain.MEMORY,
        EventDomain.TLB,
        EventDomain.PIPELINE,
        EventDomain.FRONTEND,
        EventDomain.OTHER,
    )
    environment_noise = None
    n_threads = 1

    def __init__(self, int_ops_per_iter: float = 2.0):
        self.int_ops_per_iter = int_ops_per_iter
        self._kernels: List[Tuple[str, ComputeKernel]] = []
        for dim in CPU_FLOPS_DIMENSIONS:
            for block in dim.loop_blocks:
                kernel = ComputeKernel(
                    name=f"{dim.kernel_name}/loop{block}",
                    fp_ops={dim.activity_key: float(block)},
                    int_ops=self.int_ops_per_iter,
                    branches=(BranchSpec("taken"),),
                )
                self._kernels.append((kernel.name, kernel))

    def row_labels(self) -> List[str]:
        return [label for label, _ in self._kernels]

    def execute(self, machine: SimulatedCPU) -> List[List[Activity]]:
        """Run all kernel rows; returns activities indexed [row][thread]."""
        if not isinstance(machine, SimulatedCPU):
            raise TypeError("the CPU-FLOPs benchmark requires a SimulatedCPU")
        return [[machine.run_compute(kernel)] for _, kernel in self._kernels]
