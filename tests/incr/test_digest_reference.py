"""Memoized event digests are byte-identical to the per-call hashing
they replaced.

The references below are ``event_set_digest``,
``EventRegistry.event_digests`` and ``column_key`` as they were before
each event memoized its content chunk and digest and before column keys
shared one serialized frame: every call re-serializes every event and
every key re-dumps the whole payload.  Cache keys, catalog dependency
maps and registry digests are all on-disk formats, so these byte
comparisons are what guard the stored catalog and measurement cache.
"""

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro.core.pipeline import DOMAIN_CONFIGS, AnalysisPipeline
from repro.core.sweep import SWEEP_SYSTEMS, SYSTEM_DOMAINS
from repro.events.model import EventDomain, RawEvent
from repro.incr import (
    RegistryEdit,
    apply_edits,
    column_key,
    domain_event_digests,
    measured_event_domains,
)
from repro.incr.delta import _column_keys
from repro.io.cache import (
    _benchmark_fingerprint,
    _node_fingerprint,
    event_set_digest,
    measurement_cache_key,
)

SEED = 7


def reference_event_set_digest(events):
    """``event_set_digest`` re-serializing every event, kept verbatim."""
    h = hashlib.sha256()
    for event in events:
        h.update(event.full_name.encode())
        h.update(repr(sorted(event.response.items())).encode())
        h.update(repr(event.noise).encode())
        h.update(b"\x00")
    return h.hexdigest()


def reference_event_digests(registry):
    """``EventRegistry.event_digests`` hashing each event again."""
    return {
        event.full_name: reference_event_set_digest([event])[:16]
        for event in registry
    }


def reference_json_digest(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def reference_column_key(node, benchmark, event, repetitions):
    """``column_key`` with one full payload dump per event."""
    return reference_json_digest(
        {
            "node": _node_fingerprint(node),
            "benchmark": _benchmark_fingerprint(benchmark),
            "event": reference_event_set_digest([event]),
            "repetitions": repetitions,
            "column": True,
        }
    )


def reference_cache_key(node, benchmark, events, repetitions):
    return reference_json_digest(
        {
            "node": _node_fingerprint(node),
            "benchmark": _benchmark_fingerprint(benchmark),
            "events": reference_event_set_digest(events),
            "repetitions": repetitions,
        }
    )


@pytest.fixture(scope="module", params=sorted(SWEEP_SYSTEMS))
def system(request):
    return request.param, SWEEP_SYSTEMS[request.param](seed=SEED)


class TestSweepRegistries:
    def test_every_event_digest(self, system):
        _, node = system
        registry = node.events
        for event in registry:
            assert event.digest == reference_event_set_digest([event])
            assert event_set_digest([event]) == event.digest
        # Dict order is part of the stored dependency map's JSON.
        assert list(registry.event_digests().items()) == list(
            reference_event_digests(registry).items()
        )
        assert registry.content_digest() == reference_event_set_digest(registry)
        assert event_set_digest(registry) == reference_event_set_digest(registry)

    def test_domain_maps_column_and_cache_keys(self, system):
        name, node = system
        for domain in SYSTEM_DOMAINS[name]:
            benchmark = AnalysisPipeline.for_domain(domain, node).benchmark
            reps = DOMAIN_CONFIGS[domain].repetitions
            sliced = node.events.select(domains=measured_event_domains(domain))
            assert list(domain_event_digests(node.events, domain).items()) == list(
                reference_event_digests(sliced).items()
            )
            events = list(sliced)
            expected = [
                reference_column_key(node, benchmark, e, reps) for e in events
            ]
            assert _column_keys(node, benchmark, events, reps) == expected
            assert column_key(node, benchmark, events[0], reps) == expected[0]
            assert measurement_cache_key(
                node, benchmark, sliced, reps
            ) == reference_cache_key(node, benchmark, events, reps)


def _edits(registry):
    """One edit of each action against ``registry``."""
    responsive = [e for e in registry if e.response]
    target, other = responsive[0], responsive[-1]
    key = next(iter(target.response))
    new_event = RawEvent(
        "REFERENCE_ADDED", domain=EventDomain.OTHER, response={key: 3.0}
    )
    return [
        RegistryEdit("scale-response", event=target.full_name, factor=1.5),
        RegistryEdit("set-weight", event=target.full_name, key=key, weight=7.0),
        RegistryEdit("add", new_event=new_event),
        RegistryEdit("remove", event=other.full_name),
    ]


class TestEdits:
    @pytest.mark.parametrize(
        "action", ["scale-response", "set-weight", "add", "remove"]
    )
    def test_edit_changes_only_the_edited_digest(self, system, action):
        _, node = system
        registry = node.events
        before = {e.full_name: (e, e.digest) for e in registry}
        edit = next(e for e in _edits(registry) if e.action == action)
        edited = apply_edits(registry, [edit])
        touched = edit.new_event.full_name if action == "add" else edit.event

        after = {e.full_name: e for e in edited}
        if action == "remove":
            assert touched not in after
        else:
            event = after[touched]
            assert event.digest == reference_event_set_digest([event])
            if action != "add":
                assert event.digest != before[touched][1]
        for name, event in after.items():
            if name == touched:
                continue
            old_event, old_digest = before[name]
            assert event is old_event
            assert event.digest == old_digest
        assert list(edited.event_digests().items()) == list(
            reference_event_digests(edited).items()
        )
        assert edited.content_digest() == reference_event_set_digest(edited)
        assert edited.content_digest() != registry.content_digest()


class TestPickle:
    def test_event_round_trip(self, system):
        _, node = system
        memoized = next(iter(node.events))
        memoized.digest  # the memo travels in the pickled __dict__
        fresh = dataclasses.replace(memoized)
        assert "digest" not in vars(fresh)
        for event in (fresh, memoized):
            clone = pickle.loads(pickle.dumps(event))
            assert clone == event
            assert clone.content_chunk == event.content_chunk
            assert clone.digest == reference_event_set_digest([event])

    def test_registry_round_trip(self, system):
        _, node = system
        registry = node.events
        registry.content_digest()
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.content_digest() == reference_event_set_digest(registry)
        assert list(clone.event_digests().items()) == list(
            reference_event_digests(registry).items()
        )
