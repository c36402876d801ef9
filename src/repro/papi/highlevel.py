"""PAPI high-level API: region-based instrumentation over derived presets.

Real tools rarely juggle event sets by hand — they wrap code regions with
``PAPI_hl_region_begin``/``_end`` and read preset metrics.  This module
closes the reproduction's loop the same way: a :class:`HighLevelMonitor`
takes the preset table the analysis pipeline derived, resolves each
preset's native events against the node's catalog, schedules them onto the
PMU (splitting across event sets when the counter budget requires — the
paper's "far fewer physical counters than events" reality), and reports
per-region metric values.

The "workload" is anything that produces an :class:`~repro.activity.Activity`
on the node's machine; in this simulated setting that is a kernel run, and
on real hardware it would be the instrumented region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.activity import Activity
from repro.hardware.systems import MachineNode
from repro.papi.component import Component
from repro.papi.eventset import EventSet, PAPIError
from repro.papi.presets import PresetTable

__all__ = ["HighLevelMonitor", "RegionReading"]


@dataclass(frozen=True)
class RegionReading:
    """Measurements for one instrumented region."""

    region: str
    metrics: Dict[str, float]
    raw: Dict[str, float]
    runs: int  # how many passes the counter budget required

    def metric(self, name: str) -> float:
        try:
            return self.metrics[name]
        except KeyError:
            raise KeyError(
                f"metric {name!r} was not monitored in region {self.region!r}; "
                f"monitored: {sorted(self.metrics)}"
            ) from None


class HighLevelMonitor:
    """Region-based preset measurement on one node."""

    def __init__(self, node: MachineNode, presets: PresetTable):
        self.node = node
        self.presets = presets
        self._component = Component(name="cpu", events=node.events)
        # Resolve and validate every preset's native events up front so a
        # missing event fails at construction, not mid-measurement.
        missing = [
            (p.name, e)
            for p in presets
            for e in p.native_events
            if e not in node.events
        ]
        if missing:
            raise PAPIError(
                f"presets reference events absent from {node.events.name!r}: "
                f"{missing[:5]}"
            )

    def _fits(self, names: List[str]) -> bool:
        trial = EventSet(self._component, self.node.pmu)
        try:
            for name in names:
                trial.add_event(name)
        except PAPIError:
            return False
        return True

    def _event_groups(self, names: List[str]) -> List[List[str]]:
        """Split native events into counter-budget-sized measurement sets
        (greedy first-fit, like CAT's own scheduling)."""
        groups: List[List[str]] = []
        for name in names:
            for group in groups:
                if self._fits(group + [name]):
                    group.append(name)
                    break
            else:
                groups.append([name])
        return groups

    def measure_region(
        self,
        region: str,
        activity: Activity,
        metrics: Optional[List[str]] = None,
    ) -> RegionReading:
        """Measure the given activity under the named region.

        ``metrics`` selects presets by name (default: every preset in the
        table).  Multiple measurement passes are scheduled automatically
        when the union of native events exceeds one counter group —
        deterministic activity makes the passes coherent, exactly as CAT's
        repeated complete executions do.
        """
        selected = [
            self.presets.get(name) for name in (metrics or [p.name for p in self.presets])
        ]
        native: List[str] = []
        for preset in selected:
            for event in preset.native_events:
                if event not in native:
                    native.append(event)

        readings: Dict[str, float] = {}
        groups = self._event_groups(native)
        for group in groups:
            eventset = EventSet(self._component, self.node.pmu)
            for name in group:
                eventset.add_event(name)
            eventset.start()
            readings.update(eventset.stop(activity))

        values = {p.name: p.evaluate(readings) for p in selected}
        return RegionReading(
            region=region, metrics=values, raw=readings, runs=len(groups)
        )
