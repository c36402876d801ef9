"""PAPI-style components: named providers of raw events.

Real PAPI organizes native events into components (``perf_event`` for the
CPU core PMU, ``rocm`` for AMD GPUs, …); tools enumerate components and the
events each exposes.  Here a component wraps an event registry together
with the machine that realizes measurements, which is all the middleware
needs to service event sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.events.registry import EventRegistry

__all__ = ["Component"]


@dataclass
class Component:
    """One event provider (``cpu``, ``rocm``, …)."""

    name: str
    events: EventRegistry
    description: str = ""

    def __contains__(self, full_name: str) -> bool:
        return full_name in self.events

    def native_avail(self, prefix: Optional[str] = None) -> List[str]:
        """Enumerate native event names (the ``papi_native_avail`` view)."""
        names = self.events.full_names
        if prefix is not None:
            names = [n for n in names if n.startswith(prefix)]
        return names
