"""Validation of derived metric definitions against ground truth.

The paper validates compositions on the CAT kernels themselves (Figure 3).
This module generalizes that check to *arbitrary* workloads: because the
simulated machines expose ground-truth activity, any metric definition can
be evaluated two ways — through its raw-event combination (what a tool
would measure) and directly from the activity record (what actually
happened) — and compared.  A definition that only fits the calibration
kernels but misbehaves on unseen instruction mixes would be caught here.

The bridge between the two views is the signature: each expectation-basis
dimension corresponds to one activity key (the ideal event), so the ground
truth of a metric is the signature-weighted sum of those keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.activity import Activity
from repro.cat.kernels import CPU_FLOPS_DIMENSIONS, GPU_FLOPS_DIMENSIONS
from repro.core.basis import ExpectationBasis
from repro.core.metrics import MetricDefinition
from repro.events.registry import EventRegistry

__all__ = [
    "MetricValidation",
    "dimension_activity_keys",
    "ground_truth",
    "validate_definition",
]

#: Activity keys of the branch and cache ideal dimensions.
_STATIC_DIMENSION_KEYS: Dict[str, Dict[str, str]] = {
    "branch": {
        "CE": "branch.cond_executed",
        "CR": "branch.cond_retired",
        "T": "branch.cond_taken",
        "D": "branch.uncond_direct",
        "M": "branch.mispredicted",
    },
    "dcache": {
        "L1DM": "cache.l1d.demand_miss",
        "L1DH": "cache.l1d.demand_hit",
        "L2DH": "cache.l2.demand_rd_hit",
        "L3DH": "cache.l3.hit",
    },
    "dtlb": {
        "DTLBH": "tlb.dtlb_load_hit",
        "STLBH": "tlb.stlb_hit",
        "WALK": "tlb.walks",
    },
}


def dimension_activity_keys(basis: ExpectationBasis) -> Dict[str, str]:
    """Map each basis dimension label to its ground-truth activity key."""
    if basis.name in _STATIC_DIMENSION_KEYS:
        return dict(_STATIC_DIMENSION_KEYS[basis.name])
    if basis.name == "cpu_flops":
        return {d.symbol: d.activity_key for d in CPU_FLOPS_DIMENSIONS}
    if basis.name == "gpu_flops":
        return {d.symbol: d.activity_key for d in GPU_FLOPS_DIMENSIONS}
    raise KeyError(f"no activity-key mapping for basis {basis.name!r}")


def ground_truth(
    definition: MetricDefinition, basis: ExpectationBasis, activity: Activity
) -> float:
    """What the metric's signature says the workload actually did."""
    if definition.signature is None:
        raise ValueError(
            f"metric {definition.metric!r} carries no signature; ground "
            "truth is signature-defined"
        )
    keys = dimension_activity_keys(basis)
    coords = definition.signature.coords
    return float(
        sum(
            coords[i] * activity.get(keys[label])
            for i, label in enumerate(basis.dimension_labels)
        )
    )


@dataclass(frozen=True)
class MetricValidation:
    """Outcome of validating one metric over a set of workloads."""

    metric: str
    cases: Tuple[Tuple[str, float, float], ...]  # (name, measured, truth)
    tolerance: float

    @property
    def max_rel_error(self) -> float:
        worst = 0.0
        for _, measured, truth in self.cases:
            scale = max(abs(truth), 1.0)
            worst = max(worst, abs(measured - truth) / scale)
        return worst

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.metric}: {len(self.cases)} workloads, max relative "
            f"error {self.max_rel_error:.2e} [{status}]"
        )


def validate_definition(
    definition: MetricDefinition,
    basis: ExpectationBasis,
    workloads: Sequence[Tuple[str, Activity]],
    events: EventRegistry,
    tolerance: float = 1e-6,
    rng_for_event=None,
) -> MetricValidation:
    """Evaluate a definition on workloads and compare against ground truth.

    ``workloads`` are (name, activity) pairs — typically produced by
    running application-like kernels on the node's machine.  Readings are
    noise-free unless ``rng_for_event`` supplies generators (to study how
    measurement noise propagates into the composed metric).
    """
    rng_for_event = rng_for_event or (lambda event: None)
    cases: List[Tuple[str, float, float]] = []
    needed = [name for name, c in definition.terms().items()]
    resolved = {name: events.get(name) for name in needed}
    for workload_name, activity in workloads:
        readings = {
            name: event.read(activity, rng_for_event(event))
            for name, event in resolved.items()
        }
        measured = float(
            sum(coeff * readings[name] for name, coeff in definition.terms().items())
        )
        truth = ground_truth(definition, basis, activity)
        cases.append((workload_name, measured, truth))
    return MetricValidation(
        metric=definition.metric, cases=tuple(cases), tolerance=tolerance
    )
