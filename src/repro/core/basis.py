"""Expectation bases: the "ideal hardware dimensions" coordinate systems.

An :class:`ExpectationBasis` collects the expectation vectors of ideal
events — what a perfect event for each hardware concept would measure over
a benchmark's kernel rows (paper Section III-B).  Its matrix ``E`` (rows x
dimensions) is the coordinate system in which raw-event measurements are
re-expressed: solving ``E x_e = m_e`` by least squares yields the
representation ``x_e``, and an event whose measurement cannot be expressed
in the basis (large residual) is rejected from further analysis.

Four concrete bases mirror the paper:

* :func:`cpu_flops_basis` — 16 dimensions, {scalar,128,256,512} x {SP,DP}
  x {FMA,non-FMA}; 48 kernel rows.
* :func:`gpu_flops_basis` — 15 dimensions (A,S,M,SQ,F) x (H,S,D); 45 rows.
* :func:`branch_basis` — 5 dimensions (CE, CR, T, D, M); 11 rows; its
  matrix equals the paper's Equation 3 verbatim (and, by construction, the
  exact output of the simulated branch unit).
* :func:`dcache_basis` — 4 dimensions (L1DM, L1DH, L2DH, L3DH) over the
  data-cache benchmark's size/stride sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cat.branch import BRANCH_KERNEL_SPECS
from repro.cat.dcache import DCacheBenchmark
from repro.cat.kernels import (
    CPU_FLOPS_DIMENSIONS,
    GPU_FLOPS_DIMENSIONS,
    GPU_FLOPS_LOOP_BLOCKS,
)
from repro.hardware.branch import BranchUnit

__all__ = [
    "ExpectationBasis",
    "branch_basis",
    "cpu_flops_basis",
    "dcache_basis",
    "dtlb_basis",
    "gpu_flops_basis",
]


@dataclass(frozen=True)
class ExpectationBasis:
    """A coordinate system of ideal-event expectation vectors.

    Attributes
    ----------
    name:
        Domain name (``cpu_flops`` etc.).
    dimension_labels:
        One symbol per ideal event, in signature order (e.g. ``SSCAL``).
    row_labels:
        One label per kernel row; must match the benchmark's rows.
    matrix:
        ``E`` of shape ``(len(row_labels), len(dimension_labels))``.
    """

    name: str
    dimension_labels: tuple
    row_labels: tuple
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", m)
        if m.shape != (len(self.row_labels), len(self.dimension_labels)):
            raise ValueError(
                f"basis matrix shape {m.shape} does not match "
                f"{len(self.row_labels)} rows x {len(self.dimension_labels)} dims"
            )
        if np.linalg.matrix_rank(m) != len(self.dimension_labels):
            raise ValueError(
                f"expectation basis {self.name!r} is rank deficient; ideal "
                "dimensions must be independent"
            )

    @property
    def n_dimensions(self) -> int:
        return len(self.dimension_labels)

    @property
    def n_rows(self) -> int:
        return len(self.row_labels)

    def dimension_index(self, label: str) -> int:
        try:
            return self.dimension_labels.index(label)
        except ValueError:
            raise KeyError(
                f"dimension {label!r} not in basis {self.name!r}: "
                f"{self.dimension_labels}"
            ) from None

    def expectation(self, label: str) -> np.ndarray:
        """The expectation vector of one ideal dimension."""
        return self.matrix[:, self.dimension_index(label)].copy()


def cpu_flops_basis() -> ExpectationBasis:
    """Ideal FP-instruction expectations over the CPU-FLOPs kernels."""
    dims = CPU_FLOPS_DIMENSIONS
    row_labels: List[str] = []
    rows: List[np.ndarray] = []
    for kernel_dim in dims:
        for block in kernel_dim.loop_blocks:
            row = np.zeros(len(dims))
            row[dims.index(kernel_dim)] = float(block)
            rows.append(row)
            row_labels.append(f"{kernel_dim.kernel_name}/loop{block}")
    return ExpectationBasis(
        name="cpu_flops",
        dimension_labels=tuple(d.symbol for d in dims),
        row_labels=tuple(row_labels),
        matrix=np.vstack(rows),
    )


def gpu_flops_basis() -> ExpectationBasis:
    """Ideal VALU-instruction expectations over the GPU-FLOPs kernels."""
    dims = GPU_FLOPS_DIMENSIONS
    row_labels: List[str] = []
    rows: List[np.ndarray] = []
    for kernel_dim in dims:
        for block in GPU_FLOPS_LOOP_BLOCKS:
            row = np.zeros(len(dims))
            row[dims.index(kernel_dim)] = float(block)
            rows.append(row)
            row_labels.append(f"{kernel_dim.kernel_name}/loop{block}")
    return ExpectationBasis(
        name="gpu_flops",
        dimension_labels=tuple(d.symbol for d in dims),
        row_labels=tuple(row_labels),
        matrix=np.vstack(rows),
    )


#: The paper's Equation 3, verbatim: rows are the 11 branching kernels,
#: columns are (CE, CR, T, D, M).
BRANCH_EXPECTATION_MATRIX = np.array(
    [
        [2.0, 2.0, 1.5, 0.0, 0.0],
        [2.0, 2.0, 1.0, 0.0, 0.0],
        [2.0, 2.0, 2.0, 0.0, 0.0],
        [2.0, 2.0, 1.5, 0.0, 0.5],
        [2.5, 2.5, 1.5, 0.0, 0.5],
        [2.5, 2.5, 2.0, 0.0, 0.5],
        [2.5, 2.0, 1.5, 0.0, 0.5],
        [3.0, 2.5, 1.5, 0.0, 0.5],
        [3.0, 2.5, 2.0, 0.0, 0.5],
        [2.0, 2.0, 1.0, 1.0, 0.0],
        [1.0, 1.0, 1.0, 0.0, 0.0],
    ]
)


def branch_basis(derive: bool = False) -> ExpectationBasis:
    """The branching expectation basis (CE, CR, T, D, M).

    With ``derive=True`` the matrix is recomputed by running the kernel
    specs through the branch unit instead of using the paper's literal
    Equation 3 — the two agree exactly (asserted in the test suite), which
    is the strongest evidence the simulated substrate matches the paper's
    measured hardware behaviour.
    """
    if derive:
        unit = BranchUnit()
        rows = []
        for _, specs in BRANCH_KERNEL_SPECS:
            counts = unit.run(specs)
            rows.append(
                [
                    counts.cond_executed,
                    counts.cond_retired,
                    counts.cond_taken,
                    counts.uncond_direct,
                    counts.mispredicted,
                ]
            )
        matrix = np.array(rows)
    else:
        matrix = BRANCH_EXPECTATION_MATRIX.copy()
    return ExpectationBasis(
        name="branch",
        dimension_labels=("CE", "CR", "T", "D", "M"),
        row_labels=tuple(label for label, _ in BRANCH_KERNEL_SPECS),
        matrix=matrix,
    )


def dtlb_basis(benchmark: Optional["DTLBBenchmark"] = None) -> ExpectationBasis:
    """Ideal translation expectations over the page-stride chase sweep.

    Per access: within first-level reach every translation hits the DTLB;
    within STLB reach it misses the first level and hits the second;
    beyond that it walks.  Dimensions: (DTLBH, STLBH, WALK).
    """
    from repro.cat.dtlb import DTLBBenchmark

    benchmark = benchmark or DTLBBenchmark()
    regions = benchmark.row_regions()
    dims = ("DTLBH", "STLBH", "WALK")
    matrix = np.zeros((len(regions), len(dims)))
    for i, region in enumerate(regions):
        if region == "TLB":
            matrix[i, dims.index("DTLBH")] = 1.0
        elif region == "STLB":
            matrix[i, dims.index("STLBH")] = 1.0
        else:
            matrix[i, dims.index("WALK")] = 1.0
    return ExpectationBasis(
        name="dtlb",
        dimension_labels=dims,
        row_labels=tuple(benchmark.row_labels()),
        matrix=matrix,
    )


def dcache_basis(benchmark: Optional[DCacheBenchmark] = None) -> ExpectationBasis:
    """Ideal demand-hit/miss expectations over the pointer-chase sweep.

    Per access: within the L1 region every load hits L1; beyond it, every
    load misses L1 and hits the deepest level that holds the working set.
    """
    benchmark = benchmark or DCacheBenchmark()
    regions = benchmark.row_regions()
    dims = ("L1DM", "L1DH", "L2DH", "L3DH")
    matrix = np.zeros((len(regions), len(dims)))
    for i, region in enumerate(regions):
        if region == "L1":
            matrix[i, dims.index("L1DH")] = 1.0
        else:
            matrix[i, dims.index("L1DM")] = 1.0
            if region == "L2":
                matrix[i, dims.index("L2DH")] = 1.0
            elif region == "L3":
                matrix[i, dims.index("L3DH")] = 1.0
            # region "M": misses every level; only L1DM fires.
    return ExpectationBasis(
        name="dcache",
        dimension_labels=dims,
        row_labels=tuple(benchmark.row_labels()),
        matrix=matrix,
    )
