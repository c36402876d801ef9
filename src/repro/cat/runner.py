"""Benchmark runner: benchmark x events x repetitions -> MeasurementSet.

The runner is CAT's measurement loop: it takes a benchmark's activities on
a node's machine (the simulated ground truth shared by all repetitions),
schedules the requested events onto the PMU's limited counters, and
produces per-repetition readings by pushing the activity through each
event's response and noise model.

Ground truth once per machine: a CAT kernel's activity depends only on the
benchmark's constructor parameters and the machine's type and config; the
node seed drives only the noise.  :func:`_ground_truth` keeps, per process,
each benchmark's activities and their packed activity matrix under that
key (never the seed), so a second measurement of the same kernels on the
same machine -- a new seed, a stability study, a validation campaign --
does not execute them again.  The memo holds inputs, not counts: true
counts are recomputed from the registry at hand on every run, so two
registries with equal digests but different responses (a forged event)
still measure differently.

Reproducibility contract: each event's noise draws come from one generator
stream seeded by ``(node seed, event name CRC)``, consumed in
``(repetition, thread, row)`` order, so (a) re-running the same
configuration is bit-identical, (b) deterministic events are *exactly*
identical across repetitions (their max RNMSE is exactly zero, the Fig. 2
zero-noise cluster), (c) noisy events differ per repetition, and (d) noise
decorrelates across rows and threads.  Per-event batching keeps generator
construction off the hot path — the measurement loop is matmul-and-draw,
not 10^5 generator constructions (see ``docs/substrate.md``).

True counts are evaluated through the registry's packed weight matrix
(:meth:`~repro.events.registry.EventRegistry.weight_matrix`): all
``(thread, row)`` activities are packed into one matrix and multiplied
against the ``(keys, events)`` weights, term-ordered so the result is
bit-identical to the scalar ``RawEvent.true_count`` reference.  Events
whose ``true_count`` is overridden (non-linear response) fall back to the
scalar path automatically.
"""

from __future__ import annotations

import inspect
import threading
import zlib
from collections import OrderedDict
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.activity import Activity
from repro.cat.measurement import MeasurementSet
from repro.events.catalogs._builders import log_uniform_sigma
from repro.events.registry import EventRegistry, PackedWeights
from repro.hardware.systems import MachineNode
from repro.io.digest import canonical_json
from repro.obs import get_tracer

if TYPE_CHECKING:
    from repro.faults import FaultConfig, FaultInjector

__all__ = ["BenchmarkRunner", "CATBenchmark", "benchmark_overrides", "benchmark_spec"]


@lru_cache(maxsize=4096)
def _event_crc(event_name: str) -> int:
    """CRC32 of an event name (the per-event noise-stream seed component).

    Cached so repeated sweeps over the same catalog hash each name once;
    ``BenchmarkRunner.run`` builds a per-run table from this cache instead
    of re-encoding and re-hashing inside the per-event loop.
    """
    return zlib.crc32(event_name.encode())


class CATBenchmark(Protocol):
    """Structural interface every CAT benchmark provides.

    ``execute`` may read only the machine's config and the constructor
    parameters the benchmark keeps under their own names: the runner
    memoizes its result per process under exactly those.
    """

    name: str
    measured_domains: Sequence[str]
    environment_noise: Optional[tuple]
    n_threads: int

    def row_labels(self) -> list: ...

    def execute(self, machine) -> list: ...


def _constructor_parameters(benchmark: CATBenchmark):
    """The constructor parameters ``benchmark`` keeps under their own name.

    Config arguments (``cpu_config``, ``tlb_config``) are not kept: they
    only derive the footprints and page counts, which are.
    """
    for name, parameter in inspect.signature(type(benchmark)).parameters.items():
        if hasattr(benchmark, name):
            yield name, parameter.default


def benchmark_spec(benchmark: CATBenchmark) -> Dict[str, Any]:
    """``name -> value`` of every constructor parameter that shapes
    ``benchmark.execute``.  With the benchmark's type this pins its
    kernels exactly."""
    return {
        name: getattr(benchmark, name)
        for name, _ in _constructor_parameters(benchmark)
    }


def benchmark_overrides(benchmark: CATBenchmark) -> Dict[str, Any]:
    """The entries of :func:`benchmark_spec` that differ from their
    constructor defaults.

    Parameters whose default is ``None`` are left out: they are sizes
    derived from the machine config (footprints, page counts), and the row
    labels name each size (a footprint to the KiB).  So a benchmark built with its defaults, or
    from its node's config, has no overrides, and the measurement-cache
    and column keys built from it read as they did before overrides were
    keyed.
    """
    spec = benchmark_spec(benchmark)
    return {
        name: spec[name]
        for name, default in _constructor_parameters(benchmark)
        if default is not None and spec[name] != default
    }


class _LRU:
    """A small thread-safe LRU map; the first value stored under a key
    is the one every caller gets."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any:
        with self._lock:
            value = self._items.get(key)
            if value is not None:
                self._items.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> Any:
        """Store ``value`` unless ``key`` is held; return the held value."""
        with self._lock:
            value = self._items.setdefault(key, value)
            self._items.move_to_end(key)
            while len(self._items) > self.capacity:
                self._items.popitem(last=False)
            return value

    def clear(self) -> None:
        with self._lock:
            self._items.clear()


class _GroundTruth:
    """One benchmark's activities on one machine, with their packings.

    ``activities`` is ``[row][thread]``; ``flat`` lists the same records
    thread-major (``thread * n_rows + row``), the sample order of the
    packed activity matrices.  Each packing is keyed by the
    :attr:`PackedWeights.keys` it was packed against and is read-only.
    """

    #: Packings kept per entry: one per distinct response-key set measured
    #: (a domain sweep, a hand-picked subset, an edited registry).
    MAX_PACKINGS = 8

    def __init__(self, activities: Sequence[Sequence[Activity]]):
        self.n_rows = len(activities)
        self.n_threads = max(len(row) for row in activities)
        if any(len(row) != self.n_threads for row in activities):
            raise ValueError("ragged thread counts across benchmark rows")
        self.activities: Tuple[Tuple[Activity, ...], ...] = tuple(
            tuple(row) for row in activities
        )
        self.flat: Tuple[Activity, ...] = tuple(
            row[thread] for thread in range(self.n_threads) for row in activities
        )
        self._packings = _LRU(self.MAX_PACKINGS)

    def packed(self, weights: PackedWeights) -> np.ndarray:
        """The ``(samples, keys)`` activity matrix over ``weights.keys``."""
        matrix = self._packings.get(weights.keys)
        if matrix is None:
            matrix = weights.pack_activities(self.flat)
            matrix.setflags(write=False)
            matrix = self._packings.put(weights.keys, matrix)
        return matrix


#: Ground-truth entries kept per process: each is one (benchmark, machine
#: config) pair, a few hundred kB at most (the 8-thread dcache sweep).
_MEMO_CAPACITY = 64
_MEMO = _LRU(_MEMO_CAPACITY)


def _ground_truth(benchmark: CATBenchmark, machine) -> Tuple[_GroundTruth, bool]:
    """``benchmark``'s ground truth on ``machine``, and whether it was
    already held (``False``: the benchmark just executed).

    Keyed by the benchmark's type and :func:`benchmark_spec` and the
    machine's type and ``repr(config)`` -- everything ``execute`` reads,
    and never the seed.  A miss executes outside the lock; when threads
    miss on one key together, each executes and all get the first entry
    stored.
    """
    key = (
        type(benchmark),
        canonical_json(benchmark_spec(benchmark)),
        type(machine),
        repr(machine.config),
    )
    entry = _MEMO.get(key)
    if entry is not None:
        return entry, True
    return _MEMO.put(key, _GroundTruth(benchmark.execute(machine))), False


class BenchmarkRunner:
    """Collects measurements of a benchmark over multiple repetitions.

    ``faults`` optionally wraps the measurement in the fault-injection
    substrate (:mod:`repro.faults`): the run may raise
    :class:`~repro.faults.TransientMeasurementError` before measuring
    (retry with ``attempt + 1``), and the returned readings carry the
    injected dropout/spike/overflow corruption for that attempt.  With
    ``faults=None`` (default) the path is byte-for-byte the unfaulted
    one.
    """

    def __init__(
        self,
        node: MachineNode,
        repetitions: int = 5,
        faults: Optional[Union["FaultConfig", "FaultInjector"]] = None,
    ):
        if repetitions < 2:
            raise ValueError(
                "the noise analysis needs at least two repetitions to "
                "compute pairwise RNMSE"
            )
        self.node = node
        self.repetitions = repetitions
        self.faults = self._as_injector(faults)

    @staticmethod
    def _as_injector(faults):
        if faults is None:
            return None
        from repro.faults import FaultConfig, FaultInjector

        if isinstance(faults, FaultConfig):
            return FaultInjector(faults)
        return faults

    def select_events(self, benchmark: CATBenchmark) -> EventRegistry:
        """The events a blind sweep measures for this benchmark."""
        return self.node.events.select(domains=tuple(benchmark.measured_domains))

    def activities(self, benchmark: CATBenchmark) -> Tuple[Tuple[Activity, ...], ...]:
        """``benchmark``'s activities on this node's machine, ``[row][thread]``.

        The same records every measurement of the benchmark reads; the
        benchmark executes at most once per process and machine config.
        """
        return _ground_truth(benchmark, self.node.machine)[0].activities

    def _rng(self, event_name: str) -> np.random.Generator:
        """The event's measurement-noise stream for this node seed."""
        return np.random.default_rng((self.node.seed, _event_crc(event_name)))

    def run(
        self,
        benchmark: CATBenchmark,
        events: Optional[EventRegistry] = None,
        attempt: int = 0,
    ) -> MeasurementSet:
        """Measure ``events`` (default: the benchmark's domain sweep).

        ``attempt`` only matters under fault injection: it salts the
        per-attempt injection streams so a retry draws a fresh fault
        pattern while a re-run of the same attempt is bit-identical.
        """
        tracer = get_tracer()
        with tracer.span(
            "runner-run", benchmark=benchmark.name, attempt=attempt
        ) as span:
            measurement, hit = self._run_impl(benchmark, events, attempt, tracer)
            span.set(
                events=len(measurement.event_names),
                pmu_runs=measurement.pmu_runs,
                ground_truth="hit" if hit else "miss",
            )
        tracer.incr("measure.events", len(measurement.event_names))
        tracer.incr("measure.pmu_runs", measurement.pmu_runs)
        return measurement

    def _run_impl(
        self,
        benchmark: CATBenchmark,
        events: Optional[EventRegistry],
        attempt: int,
        tracer,
    ) -> Tuple[MeasurementSet, bool]:
        context = f"{self.node.name}:{benchmark.name}"
        if self.faults is not None and self.faults.enabled:
            self.faults.check_run_failure(context, attempt)
        registry = events if events is not None else self.select_events(benchmark)
        event_list = list(registry)
        if not event_list:
            raise ValueError(f"no events selected for benchmark {benchmark.name!r}")

        truth, hit = _ground_truth(benchmark, self.node.machine)
        n_rows, n_threads = truth.n_rows, truth.n_threads

        # The PMU schedule determines how many times the workload must run
        # to cover all events; recorded for realism and diagnostics.
        schedule = self.node.pmu.schedule(event_list)

        env_sigmas = None
        if benchmark.environment_noise is not None:
            lo, hi = benchmark.environment_noise
            env_sigmas = np.array(
                [
                    log_uniform_sigma(e.full_name, lo, hi, salt=f"env:{benchmark.name}")
                    for e in event_list
                ]
            )

        # True counts depend only on (row, thread, event) — hoist them out
        # of the repetition loop (the activity is the shared ground truth
        # of every repetition; only the noise draws differ).  All linear
        # events evaluate as one packed activity-times-weights product;
        # only events with an overridden true_count loop scalar.
        packed = registry.weight_matrix()
        flat_counts = packed.true_counts(truth.packed(packed))
        if packed.fallback:
            tracer.incr("measure.fallback_events", len(packed.fallback))
        for j, event in packed.fallback:
            for i, activity in enumerate(truth.flat):
                flat_counts[i, j] = event.true_count(activity)
        true_counts = flat_counts.reshape(n_threads, n_rows, len(event_list))

        data = np.zeros((self.repetitions, n_threads, n_rows, len(event_list)))
        quiet_run = env_sigmas is None
        batch_shape = (self.repetitions, n_threads, n_rows)
        # Per-run seed table: CRCs hashed once, outside the event loop.
        crc_table = [_event_crc(e.full_name) for e in event_list]
        # Deterministic events on a quiet run are bit-identical across
        # repetitions: one broadcast assignment covers them all.
        noisy_cols = []
        if quiet_run:
            det = [j for j, e in enumerate(event_list) if e.noise.is_deterministic]
            if det:
                data[:, :, :, det] = true_counts[:, :, det][None, :, :]
            noisy_cols = [
                j for j, e in enumerate(event_list) if not e.noise.is_deterministic
            ]
        else:
            noisy_cols = list(range(len(event_list)))
        for j in noisy_cols:
            event = event_list[j]
            # One stream per (node seed, event): all of this event's draws
            # for the sweep come from it in (rep, thread, row) order.
            rng = np.random.default_rng((self.node.seed, crc_table[j]))
            tiled = np.broadcast_to(true_counts[:, :, j], batch_shape)
            readings = event.noise.apply_batch(tiled, rng)
            if not quiet_run:
                readings = readings * (
                    1.0 + rng.normal(0.0, float(env_sigmas[j]), batch_shape)
                )
                np.maximum(readings, 0.0, out=readings)
            data[:, :, :, j] = readings

        measurement = MeasurementSet(
            benchmark=benchmark.name,
            row_labels=benchmark.row_labels(),
            event_names=[e.full_name for e in event_list],
            data=data,
            # Scheduling metadata: how many hardware runs the sweep cost.
            pmu_runs=schedule.n_runs,
        )
        if self.faults is not None and self.faults.enabled:
            measurement = self.faults.corrupt_measurement(
                measurement, context, attempt
            )
        return measurement, hit
