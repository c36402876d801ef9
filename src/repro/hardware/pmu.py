"""Performance monitoring unit: limited physical counters and multiplexing.

The paper's motivation includes the fact that real hardware has orders of
magnitude fewer physical counters than events; measuring a thousand events
therefore requires scheduling them into counter-sized groups and re-running
the workload once per group (CAT runs each benchmark repeatedly anyway, so
the toolkit schedules rather than time-multiplexes within a run — every
event is measured over a *complete* execution, which is why the analysis can
treat readings from different groups as one coherent vector).

:class:`PMU` implements that contract: a greedy first-fit scheduler over
programmable counters, with a handful of fixed counters that can host the
architectural events (cycles, instructions) without consuming programmable
slots — mirroring Intel's fixed-counter arrangement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.events.model import RawEvent
from repro.activity import Activity

__all__ = ["CounterSchedule", "PMU"]

#: Event base names servable by fixed counters (architectural events).
_FIXED_ELIGIBLE = frozenset({"INST_RETIRED", "CPU_CLK_UNHALTED", "TOPDOWN"})


@dataclass(frozen=True)
class CounterSchedule:
    """Assignment of events to measurement runs (groups)."""

    groups: List[List[RawEvent]]

    @property
    def n_runs(self) -> int:
        return len(self.groups)


class PMU:
    """Counter-constrained measurement of raw events over one activity."""

    def __init__(self, programmable_counters: int = 8, fixed_counters: int = 3):
        if programmable_counters < 1:
            raise ValueError("need at least one programmable counter")
        if fixed_counters < 0:
            raise ValueError("fixed counter count must be non-negative")
        self.programmable_counters = programmable_counters
        self.fixed_counters = fixed_counters

    def schedule(self, events: Sequence[RawEvent]) -> CounterSchedule:
        """Greedy first-fit grouping of events into measurement runs.

        Fixed-eligible events fill the fixed counters of each group first;
        everything else consumes programmable slots.  Deterministic: events
        are placed in the order given.

        Slots only ever fill, so the first group with a free programmable
        slot and the first with a free fixed slot only move forward: each
        event is placed in O(1) amortized time instead of rescanning every
        group from the first.
        """
        groups: List[List[RawEvent]] = []
        prog_used: List[int] = []
        fixed_used: List[int] = []
        first_prog = 0  # first group with a free programmable slot
        first_fixed = 0  # first group with a free fixed slot

        for event in events:
            eligible_fixed = event.name in _FIXED_ELIGIBLE
            i = min(first_prog, first_fixed) if eligible_fixed else first_prog
            if i == len(groups):
                groups.append([])
                prog_used.append(0)
                fixed_used.append(0)
            groups[i].append(event)
            if eligible_fixed and fixed_used[i] < self.fixed_counters:
                fixed_used[i] += 1
            else:
                prog_used[i] += 1
            while first_prog < len(groups) and (
                prog_used[first_prog] >= self.programmable_counters
            ):
                first_prog += 1
            while first_fixed < len(groups) and (
                fixed_used[first_fixed] >= self.fixed_counters
            ):
                first_fixed += 1
        return CounterSchedule(groups=groups)

    def read(
        self,
        events: Sequence[RawEvent],
        activity: Activity,
        rng_for_event,
    ) -> Dict[str, float]:
        """Measure all events against one activity, group by group.

        ``rng_for_event`` maps an event to the :class:`numpy.random.Generator`
        (or ``None``) used for its noise draw; the caller keys it by
        (event, repetition, thread) for reproducibility.  The group
        structure does not change readings (each group sees a complete
        execution) but enforces the counter-budget contract and surfaces
        the number of required runs to callers.
        """
        readings: Dict[str, float] = {}
        schedule = self.schedule(events)
        for group in schedule.groups:
            for event in group:
                readings[event.full_name] = event.read(activity, rng_for_event(event))
        return readings
