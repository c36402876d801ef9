"""The microarchitectural activity record shared by machines and events.

Lives at the package root (rather than under ``repro.hardware``) because it
is the interface *between* the hardware simulators and the event catalogs;
placing it in either subpackage would create an import cycle.

For the vectorized measurement hot path, :meth:`Activity.to_vector` turns
the sparse mapping into a dense coordinate vector over an explicit key
ordering, so a batch of activities becomes a ``(samples, keys)`` matrix that
multiplies a registry's packed weight matrix (see
:meth:`repro.events.registry.EventRegistry.weight_matrix`).

Running one CAT microkernel configuration on a simulated machine produces an
:class:`Activity`: a flat mapping from namespaced activity keys (the "ground
truth" of what the hardware did) to occurrence counts.  Raw events are
*linear functionals* over this record (see :mod:`repro.events.model`): each
event holds a sparse weight vector over activity keys, which is exactly how
real PMU events relate to microarchitectural occurrences (an event such as
``FP_ARITH_INST_RETIRED:SCALAR_DOUBLE`` fires once per scalar non-FMA DP
instruction and *twice* per scalar FMA DP instruction).

Keys are plain strings; the constants below enumerate the schema so that the
machine simulators and the event catalogs cannot drift apart.  Unknown keys
read as zero, mirroring a counter that never fires.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Activity",
    "flops_per_instruction",
    "CPU_ACTIVITY_KEYS",
    "GPU_ACTIVITY_KEYS",
    "fp_instr_key",
    "valu_instr_key",
]

# --------------------------------------------------------------------------
# CPU activity schema
# --------------------------------------------------------------------------

FP_WIDTHS: Tuple[str, ...] = ("scalar", "128", "256", "512")
FP_PRECISIONS: Tuple[str, ...] = ("sp", "dp")
FP_KINDS: Tuple[str, ...] = ("nonfma", "fma")


def flops_per_instruction(width: str, precision: str, fma: bool) -> int:
    """FLOPs performed by one FP instruction of the class.

    Scalar = 1 operand pair; packed widths hold 128/256/512 bits of the
    element type; FMA doubles the operation count.  A pure ISA fact shared
    by the kernel tables, the signature definitions and the catalogs.
    """
    if width == "scalar":
        lanes = 1
    else:
        bits = int(width)
        lanes = bits // (32 if precision == "sp" else 64)
    return lanes * (2 if fma else 1)


def fp_instr_key(width: str, precision: str, kind: str) -> str:
    """Activity key for a floating-point instruction class.

    ``width`` in {"scalar", "128", "256", "512"}, ``precision`` in
    {"sp", "dp"}, ``kind`` in {"nonfma", "fma"}.
    """
    if width not in FP_WIDTHS:
        raise ValueError(f"unknown FP width {width!r}")
    if precision not in FP_PRECISIONS:
        raise ValueError(f"unknown FP precision {precision!r}")
    if kind not in FP_KINDS:
        raise ValueError(f"unknown FP kind {kind!r}")
    return f"instr.fp.{width}.{precision}.{kind}"


_CPU_SCALAR_KEYS = (
    # Instruction mix
    "instr.total",
    "instr.int",
    "instr.load",
    "instr.store",
    "instr.mov",
    "instr.nop",
    "instr.div",
    # Branch unit (retired = architectural; executed includes wrong path)
    "branch.cond_executed",
    "branch.cond_retired",
    "branch.cond_taken",
    "branch.cond_ntaken",
    "branch.uncond_direct",
    "branch.uncond_indirect",
    "branch.call",
    "branch.return",
    "branch.all_retired",
    "branch.all_executed",
    "branch.mispredicted",
    "branch.misp_taken",
    # L1D / L2 / L3 demand traffic
    "cache.l1d.demand_hit",
    "cache.l1d.demand_miss",
    "cache.l1d.fb_hit",
    "cache.l1d.replacement",
    "cache.l2.demand_rd_hit",
    "cache.l2.demand_rd_miss",
    "cache.l2.all_demand_rd",
    "cache.l2.references",
    "cache.l2.prefetch_req",
    "cache.l3.hit",
    "cache.l3.miss",
    "cache.l3.references",
    # Retired memory instructions
    "mem.loads_retired",
    "mem.stores_retired",
    # TLB
    "tlb.dtlb_load_hit",
    "tlb.dtlb_load_miss",
    "tlb.stlb_hit",
    "tlb.walks",
    "tlb.walk_cycles",
    "tlb.itlb_miss",
    # Pipeline / time-like quantities (these are where run-to-run noise
    # lives on real hardware)
    "cycles.core",
    "cycles.ref",
    "uops.issued",
    "uops.retired",
    "uops.executed",
    "uops.ms",
    "frontend.fetch_bubbles",
    "frontend.dsb_uops",
    "frontend.mite_uops",
    "stall.mem",
    "stall.exec",
    "stall.total",
    "machine_clears",
    "sw.page_faults",
    "sw.context_switches",
)

CPU_ACTIVITY_KEYS: Tuple[str, ...] = _CPU_SCALAR_KEYS + tuple(
    fp_instr_key(w, p, k) for w in FP_WIDTHS for p in FP_PRECISIONS for k in FP_KINDS
)

# --------------------------------------------------------------------------
# GPU activity schema (AMD MI250X-like)
# --------------------------------------------------------------------------

VALU_OPS: Tuple[str, ...] = ("add", "sub", "mul", "trans", "fma")
VALU_PRECISIONS: Tuple[str, ...] = ("f16", "f32", "f64")


def valu_instr_key(op: str, precision: str) -> str:
    """Activity key for a VALU instruction class (e.g. ``gpu.valu.add.f32``)."""
    if op not in VALU_OPS:
        raise ValueError(f"unknown VALU op {op!r}")
    if precision not in VALU_PRECISIONS:
        raise ValueError(f"unknown VALU precision {precision!r}")
    return f"gpu.valu.{op}.{precision}"


_GPU_SCALAR_KEYS = (
    "gpu.waves",
    "gpu.workgroups",
    "gpu.valu.total",
    "gpu.valu.int",
    "gpu.salu",
    "gpu.smem",
    "gpu.vmem.read",
    "gpu.vmem.write",
    "gpu.flat",
    "gpu.lds",
    "gpu.gds",
    "gpu.branch",
    "gpu.sendmsg",
    "gpu.vskipped",
    "gpu.cycles",
    "gpu.busy_cycles",
    "gpu.valu_busy",
    "gpu.salu_busy",
    "gpu.occupancy",
    "gpu.fetch_size",
    "gpu.write_size",
    "gpu.l2.hit",
    "gpu.l2.miss",
    "gpu.l1.hit",
    "gpu.l1.miss",
    "gpu.wave_cycles",
    "gpu.mem_unit_busy",
    "gpu.mem_unit_stalled",
    "gpu.write_unit_stalled",
)

GPU_ACTIVITY_KEYS: Tuple[str, ...] = _GPU_SCALAR_KEYS + tuple(
    valu_instr_key(op, p) for op in VALU_OPS for p in VALU_PRECISIONS
)


class Activity(Mapping[str, float]):
    """Immutable-by-convention record of microarchitectural occurrences.

    A thin mapping wrapper: unknown keys read as 0.0 via :meth:`get`, and
    arithmetic helpers support composing activity from kernel pieces
    (e.g. loop body + loop overhead).
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Mapping[str, float] | None = None):
        self._counts: Dict[str, float] = dict(counts or {})

    # Mapping protocol -----------------------------------------------------
    def __getitem__(self, key: str) -> float:
        return self._counts[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def get(self, key: str, default: float = 0.0) -> float:  # type: ignore[override]
        return self._counts.get(key, default)

    # Composition ----------------------------------------------------------
    def scaled(self, factor: float) -> "Activity":
        """Return a copy with every count multiplied by ``factor``."""
        return Activity({k: v * factor for k, v in self._counts.items()})

    def merged(self, *others: "Activity") -> "Activity":
        """Return the element-wise sum of this record and ``others``."""
        out = dict(self._counts)
        for other in others:
            for k, v in other.items():
                out[k] = out.get(k, 0.0) + v
        return Activity(out)

    # Vectorization ---------------------------------------------------------
    def to_vector(
        self,
        keys: Sequence[str],
        key_index: Optional[Mapping[str, int]] = None,
    ) -> np.ndarray:
        """Dense coordinate vector of this record over ``keys``.

        Unknown keys read as 0.0 (a counter that never fires), exactly as
        :meth:`get` does; counts under keys absent from ``keys`` are
        dropped.  ``key_index`` (key -> position, consistent with ``keys``)
        lets callers that vectorize many activities share one lookup table.
        """
        out = np.zeros(len(keys), dtype=np.float64)
        if key_index is None:
            key_index = {k: i for i, k in enumerate(keys)}
        for key, value in self._counts.items():
            pos = key_index.get(key)
            if pos is not None:
                out[pos] = value
        return out

    def as_dict(self) -> Dict[str, float]:
        """A plain-dict copy (for serialization)."""
        return dict(self._counts)

    def __repr__(self) -> str:
        nonzero = sum(1 for v in self._counts.values() if v)
        return f"Activity({len(self._counts)} keys, {nonzero} nonzero)"
