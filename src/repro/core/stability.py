"""Selection-stability harness: the pipeline's robustness across seeds.

The QRCP's tie-breaks can legitimately land on different — but
*semantically equivalent* — events when the noise realization changes
(two raw events carrying the same expectation dimension).  This harness
quantifies that: it reruns a domain's pipeline over many node seeds and
reports, per expectation dimension, the set of events observed carrying
it and how often each won.

A healthy domain shows (a) identical selections for the exact-measurement
domains, and (b) per-dimension carrier families that are small and
semantically coherent for the noisy domains.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pipeline import AnalysisPipeline, PipelineConfig
from repro.events.registry import EventRegistry
from repro.guard.validate import require_nonempty
from repro.hardware.systems import MachineNode

__all__ = ["StabilityReport", "selection_stability"]


@dataclass
class StabilityReport:
    """Observed selections for one domain across seeds."""

    domain: str
    seeds: Tuple[int, ...]
    selections: Dict[int, Tuple[str, ...]]  # seed -> selected events
    dimension_carriers: Dict[str, Counter]  # dimension label -> event counts

    @property
    def is_deterministic(self) -> bool:
        """True when every seed produced the identical event set."""
        unique = {frozenset(sel) for sel in self.selections.values()}
        return len(unique) == 1

    def carrier_families(self) -> Dict[str, List[str]]:
        """Per dimension: every event observed carrying it, ordered by
        frequency."""
        return {
            dim: [event for event, _ in counter.most_common()]
            for dim, counter in self.dimension_carriers.items()
        }

    def summary(self) -> str:
        lines = [
            f"{self.domain}: {len(self.seeds)} seeds, "
            f"{'deterministic selection' if self.is_deterministic else 'carrier families vary'}"
        ]
        for dim, counter in self.dimension_carriers.items():
            parts = ", ".join(f"{e} x{c}" for e, c in counter.most_common())
            lines.append(f"  {dim}: {parts}")
        return "\n".join(lines)


def selection_stability(
    node_factory: Callable[[int], MachineNode],
    domain: str,
    seeds: Sequence[int],
    config: Optional[PipelineConfig] = None,
    events: Optional[EventRegistry] = None,
) -> StabilityReport:
    """Rerun the domain's pipeline per seed and aggregate the selections.

    Carrier attribution mirrors what the QR actually did: walking the
    selection in pivot order, each event is assigned to the expectation
    dimension of its largest component *orthogonal to the previously
    selected representations* — the novel direction it contributed.  (A
    plain argmax would misattribute multi-dimension events such as
    ``BR_INST_RETIRED:ALL_BRANCHES``, whose novel contribution after COND
    is the unconditional dimension.)

    ``events`` restricts each pipeline to a fixed registry subset — e.g.
    to probe stability when fewer events than basis dimensions survive
    (a rank-deficient selection, where the report must still be coherent
    rather than crash or misattribute).
    """
    require_nonempty(seeds, "seeds", "selection_stability")
    selections: Dict[int, Tuple[str, ...]] = {}
    carriers: Dict[str, Counter] = {}
    for seed in seeds:
        node = node_factory(seed)
        pipeline = AnalysisPipeline.for_domain(
            domain, node, config=config, events=events
        )
        result = pipeline.run()
        selections[seed] = tuple(result.selected_events)
        basis = result.representation.basis
        chosen_reps: List[np.ndarray] = []
        for event in result.selected_events:
            rep = result.representation.representation(event)
            if chosen_reps:
                q = np.column_stack(chosen_reps)
                coeff, *_ = np.linalg.lstsq(q, rep, rcond=None)
                novel = rep - q @ coeff
            else:
                novel = rep
            dim = basis.dimension_labels[int(np.argmax(np.abs(novel)))]
            carriers.setdefault(dim, Counter())[event] += 1
            chosen_reps.append(rep)
    return StabilityReport(
        domain=domain,
        seeds=tuple(seeds),
        selections=selections,
        dimension_carriers=carriers,
    )
