#!/usr/bin/env python3
"""Shared-L3 contention: watching derived metrics respond to thread count.

The data-cache benchmark pressures the shared L3 with concurrent threads
(paper Section III-E).  This example uses the *derived* cache metrics —
not raw events — to chart that pressure: a fixed 4 MiB-per-thread pointer
chase is run at increasing thread counts, and the automatically composed
"L3 Hits" / "L2 Misses" definitions are evaluated from raw readings.  Up
to 8 threads the aggregate footprint fits the 32 MiB L3 and every L2 miss
is an L3 hit; beyond that, threads evict each other and the same derived
metrics expose the collapse.

This is the consumer-side payoff of the paper: once the event-to-metric
mapping is derived, capacity studies are three lines of instrumentation.

Run:  python examples/l3_contention_study.py
"""

from repro.core import AnalysisPipeline
from repro.hardware import PointerChase, aurora_node


def main() -> None:
    node = aurora_node(seed=2024)
    result = AnalysisPipeline.for_domain("dcache", node).run()
    l3_hits = result.rounded_metrics["L3 Hits."]
    l2_misses = result.rounded_metrics["L2 Misses."]
    needed = sorted(set(l3_hits.terms()) | set(l2_misses.terms()))
    events = [node.events.get(name) for name in needed]

    print("Derived definitions in use:")
    print(f"  L3 Hits.  = {l3_hits.terms()}")
    print(f"  L2 Misses = {l2_misses.terms()}")
    print()
    print("4 MiB per thread, sweeping thread count (shared L3 = 32 MiB):")
    print(f"{'threads':>8} {'agg footprint':>14} {'L2 misses/acc':>14} "
          f"{'L3 hits/acc':>12} {'L3 hit rate':>12}")

    for threads in (1, 2, 4, 8, 12, 16):
        chase = PointerChase(n_pointers=65536, stride_bytes=64, n_threads=threads)
        activity = node.machine.run_pointer_chase(chase)[0]
        readings = {e.full_name: e.true_count(activity) for e in events}
        misses = l2_misses.evaluate(readings)
        hits = l3_hits.evaluate(readings)
        rate = hits / misses if misses else float("nan")
        print(
            f"{threads:>8} {threads * 4:>11} MiB {misses:>14.3f} "
            f"{hits:>12.3f} {rate:>11.1%}"
        )

    print()
    print(
        "Shape: every access misses L2 (4 MiB >> 2 MiB per-core L2); the "
        "L3 absorbs all of it until the aggregate footprint crosses 32 MiB "
        "(8 threads), after which the shared cache thrashes and the hit "
        "rate collapses — read entirely through automatically derived "
        "metrics."
    )


if __name__ == "__main__":
    main()
