"""PAPI-like middleware: components, event sets, and preset metrics."""

from repro.papi.component import Component
from repro.papi.eventset import EventSet, EventSetState, PAPIError
from repro.papi.highlevel import HighLevelMonitor, RegionReading
from repro.papi.presets import PAPI_PRESET_NAMES, PresetMetric, PresetTable

__all__ = [
    "Component",
    "HighLevelMonitor",
    "RegionReading",
    "EventSet",
    "EventSetState",
    "PAPIError",
    "PAPI_PRESET_NAMES",
    "PresetMetric",
    "PresetTable",
]
