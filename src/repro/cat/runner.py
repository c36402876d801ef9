"""Benchmark runner: benchmark x events x repetitions -> MeasurementSet.

The runner is CAT's measurement loop: it executes a benchmark's kernels on
a node's machine (once — the simulated activity is the ground truth shared
by all repetitions), schedules the requested events onto the PMU's limited
counters, and produces per-repetition readings by pushing the activity
through each event's response and noise model.

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

import zlib
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Protocol, Sequence, Union

import numpy as np

from repro.cat.measurement import MeasurementSet
from repro.events.catalogs._builders import log_uniform_sigma
from repro.events.registry import EventRegistry
from repro.hardware.systems import MachineNode
from repro.obs import get_tracer

if TYPE_CHECKING:
    from repro.faults import FaultConfig, FaultInjector

__all__ = ["BenchmarkRunner", "CATBenchmark"]


@lru_cache(maxsize=4096)
def _event_crc(event_name: str) -> int:
    """CRC32 of an event name (the per-event noise-stream seed component).

    Cached so repeated sweeps over the same catalog hash each name once;
    ``BenchmarkRunner.run`` builds a per-run table from this cache instead
    of re-encoding and re-hashing inside the per-event loop.
    """
    return zlib.crc32(event_name.encode())


class CATBenchmark(Protocol):
    """Structural interface every CAT benchmark provides."""

    name: str
    measured_domains: Sequence[str]
    environment_noise: Optional[tuple]
    n_threads: int

    def row_labels(self) -> list: ...

    def execute(self, machine) -> list: ...


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
            measurement = self._run_impl(benchmark, events, attempt, tracer)
            span.set(
                events=len(measurement.event_names),
                pmu_runs=measurement.pmu_runs,
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
    ) -> MeasurementSet:
        context = f"{self.node.name}:{benchmark.name}"
        if self.faults is not None and self.faults.enabled:
            self.faults.check_run_failure(context, attempt)
        registry = events if events is not None else self.select_events(benchmark)
        event_list = list(registry)
        if not event_list:
            raise ValueError(f"no events selected for benchmark {benchmark.name!r}")

        activities = benchmark.execute(self.node.machine)
        n_rows = len(activities)
        n_threads = max(len(row) for row in activities)
        if any(len(row) != n_threads for row in activities):
            raise ValueError("ragged thread counts across benchmark rows")

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
        flat_activities = [
            row_acts[thread]
            for thread in range(n_threads)
            for row_acts in activities
        ]
        activity_matrix = packed.pack_activities(flat_activities)
        flat_counts = packed.true_counts(activity_matrix)
        if packed.fallback:
            tracer.incr("measure.fallback_events", len(packed.fallback))
        for j, event in packed.fallback:
            for i, activity in enumerate(flat_activities):
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
        return measurement
