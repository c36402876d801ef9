"""Delta-keyed measurement reuse: re-measure only the changed columns.

Measuring is the expensive stage of a pipeline run, yet a registry edit
changes the measured data of exactly the edited events — every other
column of the ``(repetitions, threads, rows, events)`` array is, by the
substrate's reproducibility contract, bit-identical to the previous
sweep's.  The runner consumes each event's noise stream independently
(seeded by ``(node seed, event-name CRC)`` and drawn in (rep, thread,
row) order), environment noise is salted per event, and true counts are
per-column functionals of the shared activity — so a column measured as
part of *any* event subset equals the same column of the full sweep,
bit for bit.  That makes the column the natural unit of caching.

:func:`column_key` derives a content address for one event's column from
the same lineage coordinates as :func:`repro.io.cache.measurement_cache_key`
— node fingerprint, benchmark fingerprint, the *single event's* content
digest, repetition count — so an edited event misses (its content digest
changed), an added event misses (never stored), a removed event simply
stops being asked for, and everything else hits.

:func:`measure_with_deltas` assembles a full measurement set from cached
columns plus one benchmark run over only the missing events, and returns
it with a :class:`DeltaReport`.  The assembled set is bit-identical to a
from-scratch ``BenchmarkRunner.run`` over the same registry (property
tested), including the PMU scheduling metadata, which is recomputed for
the full event set (how many hardware runs a real sweep would need does
depend on the co-scheduled set, so per-column caching cannot reuse it).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cat.measurement import MeasurementSet
from repro.cat.runner import BenchmarkRunner, CATBenchmark
from repro.events.model import RawEvent
from repro.events.registry import EventRegistry
from repro.hardware.systems import MachineNode
from repro.io.cache import (
    MeasurementCache,
    _benchmark_fingerprint,
    _node_fingerprint,
)
from repro.io.digest import canonical_json
from repro.obs import get_tracer

__all__ = [
    "DeltaReport",
    "column_key",
    "default_column_cache",
    "measure_with_deltas",
]

#: Stand-in for the event digest while the shared part of the column-key
#: payload is serialized.  No other field serializes to its JSON text
#: (``"\u0000event\u0000"``); if one ever did, the two-way split in
#: :func:`_column_keys` would raise instead of mis-keying.
_EVENT_SLOT = "\x00event\x00"


def _column_keys(
    node: MachineNode,
    benchmark: CATBenchmark,
    events: Sequence[RawEvent],
    repetitions: int,
) -> List[str]:
    """Column keys of ``events``: the canonical-JSON digest of
    ``{node, benchmark, event, repetitions, column}`` for each event.

    Only ``event`` differs between the columns of one measurement, so the
    payload is serialized once and split around that slot; the prefix
    (about 1 kB: the node's config repr) is hashed once, and each key
    continues a copy of that hash with the event's memoized digest and
    the suffix — byte for byte the text ``json_digest`` would hash.
    """
    payload = {
        "node": _node_fingerprint(node),
        "benchmark": _benchmark_fingerprint(benchmark),
        "event": _EVENT_SLOT,
        "repetitions": repetitions,
        "column": True,
    }
    prefix, suffix = canonical_json(payload).split(canonical_json(_EVENT_SLOT))
    framed, tail = hashlib.sha256(prefix.encode()), suffix.encode()
    keys = []
    for event in events:
        key = framed.copy()
        key.update(f'"{event.digest}"'.encode() + tail)
        keys.append(key.hexdigest())
    return keys


def column_key(
    node: MachineNode,
    benchmark: CATBenchmark,
    event: RawEvent,
    repetitions: int,
) -> str:
    """Content address of one event's measurement column.

    Covers everything the column's bits depend on: the node (seed,
    machine geometry, PMU budget), the benchmark configuration, the
    event's own content (name, response weights, noise model), and the
    repetition count.  Deliberately *not* the rest of the registry —
    per-event noise streams make columns independent of their
    co-measured set, which is what lets an unrelated registry edit keep
    this column's cache entry valid.
    """
    return _column_keys(node, benchmark, [event], repetitions)[0]


@dataclass(frozen=True)
class DeltaReport:
    """Accounting of one delta-assembled measurement."""

    total: int
    reused: int
    measured: int
    measured_events: Tuple[str, ...] = ()


_COLUMN_CACHE: Optional[MeasurementCache] = None


def default_column_cache() -> MeasurementCache:
    """Process-wide cache sized for per-column entries.

    The whole-set default cache keeps 32 entries — fine for ~10 sweep
    measurements, hopeless for ~300 single-event columns, which would
    thrash the LRU on every assembly.  Column entries are two orders of
    magnitude smaller, so a much larger capacity costs the same memory.
    """
    global _COLUMN_CACHE
    if _COLUMN_CACHE is None:
        _COLUMN_CACHE = MeasurementCache(max_memory_entries=4096)
    return _COLUMN_CACHE


def measure_with_deltas(
    node: MachineNode,
    benchmark: CATBenchmark,
    events: Optional[EventRegistry] = None,
    repetitions: int = 5,
    cache: Optional[MeasurementCache] = None,
) -> Tuple[MeasurementSet, DeltaReport]:
    """Measure ``benchmark``, reusing every column whose key hits.

    Missing columns are measured in *one* benchmark run over the
    sub-registry of missing events and stored back per column.  Returns
    the assembled measurement (bit-identical to a from-scratch run over
    the full registry) plus the reuse accounting; increments the
    ``incr.columns_reused`` / ``incr.columns_measured`` counters.
    """
    registry = (
        events
        if events is not None
        else node.events.select(domains=tuple(benchmark.measured_domains))
    )
    if cache is None:
        cache = default_column_cache()
    event_list = list(registry)
    if not event_list:
        raise ValueError(f"no events selected for benchmark {benchmark.name!r}")

    keys = _column_keys(node, benchmark, event_list, repetitions)
    columns = [cache.get(k) for k in keys]
    missing = [i for i, col in enumerate(columns) if col is None]

    measured_names: Tuple[str, ...] = ()
    if missing:
        missing_set = {event_list[i].full_name for i in missing}
        sub_registry = registry.select(
            predicate=lambda e: e.full_name in missing_set
        )
        runner = BenchmarkRunner(node, repetitions=repetitions)
        fresh = runner.run(benchmark, events=sub_registry)
        for i in missing:
            name = event_list[i].full_name
            piece = fresh.select_events([name])
            # pmu_runs is scheduling metadata of the co-measured set, not
            # a property of the column; strip it so a column's cache entry
            # is independent of which delta run produced it.
            column = MeasurementSet(
                benchmark=piece.benchmark,
                row_labels=list(piece.row_labels),
                event_names=list(piece.event_names),
                data=piece.data,
                pmu_runs=None,
            )
            cache.put(keys[i], column)
            columns[i] = column
        measured_names = tuple(event_list[i].full_name for i in missing)

    reused = len(event_list) - len(missing)
    tracer = get_tracer()
    if reused:
        tracer.incr("incr.columns_reused", reused)
    if missing:
        tracer.incr("incr.columns_measured", len(missing))

    data = np.concatenate([col.data for col in columns], axis=3)
    assembled = MeasurementSet(
        benchmark=benchmark.name,
        row_labels=benchmark.row_labels(),
        event_names=[e.full_name for e in event_list],
        data=data,
        pmu_runs=node.pmu.schedule(event_list).n_runs,
    )
    report = DeltaReport(
        total=len(event_list),
        reused=reused,
        measured=len(missing),
        measured_events=measured_names,
    )
    return assembled, report
