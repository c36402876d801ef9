"""Tests for the PAPI-like middleware layer."""

import numpy as np
import pytest

from repro.activity import Activity
from repro.events import EventDomain, EventRegistry, RawEvent
from repro.hardware import PMU
from repro.papi import (
    Component,
    EventSet,
    EventSetState,
    PAPIError,
    PresetMetric,
    PresetTable,
)


def _registry(n=5):
    return EventRegistry(
        [
            RawEvent(name=f"EV{i}", domain=EventDomain.OTHER, response={"a": float(i)})
            for i in range(n)
        ],
        name="test",
    )


@pytest.fixture
def component():
    return Component(name="cpu", events=_registry())


@pytest.fixture
def pmu():
    return PMU(programmable_counters=3, fixed_counters=0)


class TestComponent:
    def test_contains(self, component):
        assert "EV1" in component
        assert "NOPE" not in component

    def test_native_avail(self, component):
        assert component.native_avail() == [f"EV{i}" for i in range(5)]
        assert component.native_avail(prefix="EV4") == ["EV4"]


class TestEventSetLifecycle:
    def test_add_start_stop_read(self, component, pmu):
        es = EventSet(component, pmu)
        es.add_event("EV1")
        es.add_event("EV2")
        es.start()
        assert es.state is EventSetState.RUNNING
        readings = es.stop(Activity({"a": 10.0}))
        assert readings == {"EV1": 10.0, "EV2": 20.0}
        assert es.read() == readings
        assert es.state is EventSetState.STOPPED

    def test_counter_budget_enforced(self, component, pmu):
        es = EventSet(component, pmu)
        for i in range(3):
            es.add_event(f"EV{i}")
        with pytest.raises(PAPIError, match="counter budget"):
            es.add_event("EV3")

    def test_unknown_event_rejected(self, component, pmu):
        es = EventSet(component, pmu)
        with pytest.raises(PAPIError, match="not exposed"):
            es.add_event("NOPE")

    def test_duplicate_event_rejected(self, component, pmu):
        es = EventSet(component, pmu)
        es.add_event("EV1")
        with pytest.raises(PAPIError, match="already"):
            es.add_event("EV1")

    def test_cannot_start_empty(self, component, pmu):
        with pytest.raises(PAPIError, match="empty"):
            EventSet(component, pmu).start()

    def test_cannot_start_twice(self, component, pmu):
        es = EventSet(component, pmu)
        es.add_event("EV1")
        es.start()
        with pytest.raises(PAPIError):
            es.start()

    def test_cannot_stop_when_not_running(self, component, pmu):
        es = EventSet(component, pmu)
        es.add_event("EV1")
        with pytest.raises(PAPIError):
            es.stop(Activity({}))

    def test_cannot_add_while_running(self, component, pmu):
        es = EventSet(component, pmu)
        es.add_event("EV1")
        es.start()
        with pytest.raises(PAPIError):
            es.add_event("EV2")

    def test_read_before_measurement(self, component, pmu):
        es = EventSet(component, pmu)
        with pytest.raises(PAPIError):
            es.read()

    def test_cleanup(self, component, pmu):
        es = EventSet(component, pmu)
        es.add_event("EV1")
        es.cleanup()
        assert es.events == []
        with pytest.raises(PAPIError):
            es.read()


class TestPresets:
    def test_evaluate(self):
        p = PresetMetric(name="PAPI_X", terms={"A": 2.0, "B": -1.0})
        assert p.evaluate({"A": 5.0, "B": 3.0}) == 7.0

    def test_evaluate_missing_event(self):
        p = PresetMetric(name="PAPI_X", terms={"A": 1.0})
        with pytest.raises(KeyError, match="missing"):
            p.evaluate({"B": 1.0})

    def test_pretty_renders_signs(self):
        p = PresetMetric(name="PAPI_X", terms={"A": 1.0, "B": -2.0}, fitness=1e-16)
        text = p.pretty()
        assert "1 x A" in text and "- 2 x B" in text

    def test_table_lifecycle(self):
        table = PresetTable("spr")
        table.define(PresetMetric(name="PAPI_A", terms={"E": 1.0}, fitness=1e-16))
        table.define(PresetMetric(name="PAPI_B", terms={"E": 1.0}, fitness=0.9))
        assert "PAPI_A" in table
        assert len(table) == 2
        assert [p.name for p in table.composable()] == ["PAPI_A"]
        with pytest.raises(KeyError, match="available"):
            table.get("PAPI_C")
