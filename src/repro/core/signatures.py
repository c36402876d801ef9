"""Metric signatures: Tables I-IV of the paper.

A :class:`Signature` is the handcrafted description of what an ideal event
for a high-level metric would measure, expressed in the coordinates of an
expectation basis.  E.g. "DP Ops" over the CPU FLOPs basis is
``(0,0,0,0, 1,2,4,8, 0,0,0,0, 2,4,8,16)``: each double-precision
instruction class contributes its FLOPs-per-instruction.

Note the paper's instruction-count signatures assign weight 2 to the FMA
dimensions: CAT inherits the convention of Intel's FP_ARITH events (which
fire twice per FMA), so "Instrs." counts FMA instructions twice by
definition — exactly what lets those metrics compose with unit coefficients
on real events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.cat.kernels import (
    CPU_FLOPS_DIMENSIONS,
    GPU_FLOPS_DIMENSIONS,
    flops_per_instruction,
)
from repro.core.basis import ExpectationBasis

__all__ = [
    "Signature",
    "branch_signatures",
    "cpu_flops_signatures",
    "dcache_signatures",
    "dtlb_signatures",
    "gpu_flops_signatures",
    "signatures_for",
]


@dataclass(frozen=True)
class Signature:
    """One metric's coordinates in an expectation basis."""

    name: str
    basis_name: str
    coords: np.ndarray
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coords", np.asarray(self.coords, dtype=np.float64)
        )

    def in_kernel_space(self, basis: ExpectationBasis) -> np.ndarray:
        """The signature's expected measurement vector over kernel rows."""
        if basis.name != self.basis_name:
            raise ValueError(
                f"signature {self.name!r} belongs to basis {self.basis_name!r}, "
                f"not {basis.name!r}"
            )
        return basis.matrix @ self.coords


def cpu_flops_signatures() -> List[Signature]:
    """Paper Table I: the six CPU floating-point metric signatures."""
    dims = CPU_FLOPS_DIMENSIONS
    n = len(dims)

    def build(name, weight_fn, description=""):
        coords = np.zeros(n)
        for i, d in enumerate(dims):
            coords[i] = weight_fn(d)
        return Signature(name, "cpu_flops", coords, description)

    def instrs(precision):
        # FMA dims weighted 2: the FP_ARITH double-count convention.
        return lambda d: (2.0 if d.fma else 1.0) if d.precision == precision else 0.0

    def ops(precision):
        return lambda d: (
            float(flops_per_instruction(d.width, d.precision, d.fma))
            if d.precision == precision
            else 0.0
        )

    def fma_instrs(precision):
        return lambda d: 2.0 if (d.fma and d.precision == precision) else 0.0

    return [
        build("SP Instrs.", instrs("sp"), "Single-precision FP instructions retired."),
        build("SP Ops.", ops("sp"), "Single-precision floating-point operations."),
        build("SP FMA Instrs.", fma_instrs("sp"), "Single-precision FMA instructions."),
        build("DP Instrs.", instrs("dp"), "Double-precision FP instructions retired."),
        build("DP Ops.", ops("dp"), "Double-precision floating-point operations."),
        build("DP FMA Instrs.", fma_instrs("dp"), "Double-precision FMA instructions."),
    ]


def gpu_flops_signatures() -> List[Signature]:
    """Paper Table II: GPU floating-point metric signatures."""
    dims = GPU_FLOPS_DIMENSIONS
    n = len(dims)

    def coords_for(pred):
        coords = np.zeros(n)
        for i, d in enumerate(dims):
            coords[i] = pred(d)
        return coords

    def single(op, prec):
        return coords_for(lambda d: 1.0 if (d.op == op and d.precision == prec) else 0.0)

    def all_ops(prec):
        # FMA kernels issue instructions worth two operations each.
        return coords_for(
            lambda d: (d.ops_per_instruction if d.precision == prec else 0.0)
        )

    out = [
        Signature("HP Add Ops.", "gpu_flops", single("add", "f16"), "Half-precision additions."),
        Signature("HP Sub Ops.", "gpu_flops", single("sub", "f16"), "Half-precision subtractions."),
        Signature(
            "HP Add and Sub Ops.",
            "gpu_flops",
            single("add", "f16") + single("sub", "f16"),
            "Half-precision additions and subtractions.",
        ),
        Signature("All HP Ops.", "gpu_flops", all_ops("f16"), "All half-precision operations."),
        Signature("All SP Ops.", "gpu_flops", all_ops("f32"), "All single-precision operations."),
        Signature("All DP Ops.", "gpu_flops", all_ops("f64"), "All double-precision operations."),
    ]
    return out


def branch_signatures() -> List[Signature]:
    """Paper Table III: branching metric signatures over (CE, CR, T, D, M)."""
    table = {
        "Unconditional Branches.": [0, 0, 0, 1, 0],
        "Conditional Branches Taken.": [0, 0, 1, 0, 0],
        "Conditional Branches Not Taken.": [0, 1, -1, 0, 0],
        "Mispredicted Branches.": [0, 0, 0, 0, 1],
        "Correctly Predicted Branches.": [0, 1, 0, 0, -1],
        "Conditional Branches Retired.": [0, 1, 0, 0, 0],
        "Conditional Branches Executed.": [1, 0, 0, 0, 0],
    }
    return [Signature(name, "branch", np.array(coords, dtype=float)) for name, coords in table.items()]


def dcache_signatures() -> List[Signature]:
    """Paper Table IV: data-cache metric signatures over
    (L1DM, L1DH, L2DH, L3DH)."""
    table = {
        "L1 Misses.": [1, 0, 0, 0],
        "L1 Hits.": [0, 1, 0, 0],
        "L1 Reads.": [1, 1, 0, 0],
        "L2 Hits.": [0, 0, 1, 0],
        "L2 Misses.": [1, 0, -1, 0],
        "L3 Hits.": [0, 0, 0, 1],
    }
    return [Signature(name, "dcache", np.array(coords, dtype=float)) for name, coords in table.items()]


def dtlb_signatures() -> List[Signature]:
    """Translation metrics over (DTLBH, STLBH, WALK) — the fifth-domain
    extension; structured like the paper's Table IV."""
    table = {
        "DTLB Hits.": [1, 0, 0],
        "DTLB Misses.": [0, 1, 1],
        "STLB Hits.": [0, 1, 0],
        "Page Walks.": [0, 0, 1],
        "Translation Reads.": [1, 1, 1],
    }
    return [Signature(name, "dtlb", np.array(coords, dtype=float)) for name, coords in table.items()]


_SIGNATURE_TABLES = {
    "cpu_flops": cpu_flops_signatures,
    "gpu_flops": gpu_flops_signatures,
    "branch": branch_signatures,
    "dcache": dcache_signatures,
    "dtlb": dtlb_signatures,
}


def signatures_for(domain: str) -> List[Signature]:
    """All paper signatures for a benchmark domain."""
    try:
        return _SIGNATURE_TABLES[domain]()
    except KeyError:
        raise KeyError(
            f"no signature table for domain {domain!r}; "
            f"known: {sorted(_SIGNATURE_TABLES)}"
        ) from None
