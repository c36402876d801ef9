#!/usr/bin/env python3
"""Third architecture, zero new analysis code: AMD Zen 3 (Frontier's CPU).

The paper evaluates Intel Sapphire Rapids and an AMD GPU; its introduction
motivates the whole method with the cost of *porting* metric definitions
between architectures.  This example runs the unmodified pipeline against
a Zen 3 "Trento" model — Frontier's host CPU — whose raw vocabulary differs
from Intel's in kind, not just in name:

* FP counters tally merged-precision *operations* (FLOPs), so the
  per-precision metrics of the paper's Table I are honestly reported as
  uncomposable — the exact AMD limitation the paper mentions in
  Section III-B — while total-FLOPs composes with unit coefficients;
* there is no conditional-taken branch counter, so "Conditional Branches
  Taken" derives as (all taken) - (unconditional);
* there is no L1-hit cache event, so "L1 Hits" derives by subtraction
  from an access counter.

Run:  python examples/amd_cpu_portability.py
"""

import numpy as np

from repro.activity import FP_PRECISIONS, FP_WIDTHS
from repro.cat.kernels import flops_per_instruction
from repro.core import AnalysisPipeline
from repro.core.metrics import compose_metric
from repro.core.signatures import Signature
from repro.hardware.systems import aurora_node, frontier_cpu_node


def main() -> None:
    intel = AnalysisPipeline.for_domain("branch", aurora_node()).run()
    amd = AnalysisPipeline.for_domain("branch", frontier_cpu_node()).run()

    print("Concept: Conditional Branches Taken")
    print("  Intel SPR :", dict_terms(intel.metric("Conditional Branches Taken.")))
    print("  AMD Zen 3 :", dict_terms(amd.metric("Conditional Branches Taken.")))
    print()

    amd_fp = AnalysisPipeline.for_domain("cpu_flops", frontier_cpu_node()).run()
    print("Per-precision FP metrics on Zen 3 (merged-precision counters):")
    for name in ("SP Ops.", "DP Ops."):
        m = amd_fp.metric(name)
        print(f"  {name:<10} error {m.error:.2e}  -> "
              f"{'composable' if m.composable else 'UNCOMPOSABLE (as the paper notes for AMD CPUs)'}")

    # The concept Zen *can* express: total FLOPs across precisions.
    basis = amd_fp.representation.basis
    coords = np.zeros(basis.n_dimensions)
    for i, label in enumerate(basis.dimension_labels):
        fma = label.endswith("_FMA")
        prec = "sp" if label.startswith("S") else "dp"
        token = label.replace("_FMA", "")[1:]
        width = "scalar" if token == "SCAL" else token
        coords[i] = flops_per_instruction(width, prec, fma)
    total = compose_metric(
        "All FP Ops.",
        amd_fp.x_hat,
        amd_fp.selected_events,
        Signature("All FP Ops.", "cpu_flops", coords),
    )
    print(f"\n  All FP Ops.  error {total.error:.2e}")
    print(f"  {dict_terms(total)}")

    amd_cache = AnalysisPipeline.for_domain("dcache", frontier_cpu_node()).run()
    print("\nL1 Hits on Zen 3 (no L1-hit event exists; derived by subtraction):")
    print(" ", dict_terms(amd_cache.rounded_metrics["L1 Hits."]))


def dict_terms(metric, tol=1e-6):
    return {e: round(c, 3) for e, c in metric.terms().items() if abs(c) > tol}


if __name__ == "__main__":
    main()
