"""Parallel sweep engine: fan (node x domain) pipelines across workers.

The portability story multiplies pipelines — every node runs every
applicable domain, and each pipeline is independent of all others (its
node, benchmark, and noise streams are fully determined by its own
configuration).  That makes the sweep embarrassingly parallel; this module
exploits it with a ``concurrent.futures`` pool while keeping the repo's
reproducibility contract:

* **Deterministic results** — each task's pipeline is bit-deterministic
  (including under fault injection: the injector draws from per-site
  streams), so parallel, serial, and resumed execution produce identical
  artifacts.
* **Deterministic ordering** — outcomes are returned in task-submission
  order regardless of completion order, so downstream consumers (reports,
  portability matrices, CLI output) never observe scheduling jitter.

Resilience: each task runs under a bounded retry loop with exponential
backoff; pool executions honour a per-task timeout so a hung worker can
not stall the sweep; failures capture the exception type and formatted
traceback in :class:`SweepOutcome`; and a :class:`SweepCheckpoint`
directory persists completed outcomes so a killed sweep resumes from
where it died instead of re-running everything.

Used by the ``sweep`` CLI subcommand, the portability benches, and the
cross-architecture example.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
import time
import traceback as traceback_module
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.pipeline import (
    AnalysisPipeline,
    DOMAIN_CONFIGS,
    PipelineConfig,
    PipelineResult,
)
from repro.faults import FaultConfig, FaultInjector, FaultRecord
from repro.hardware.systems import aurora_node, frontier_cpu_node, frontier_node
from repro.io.digest import sha256_hex
from repro.obs import get_tracer

__all__ = [
    "SWEEP_SYSTEMS",
    "SYSTEM_DOMAINS",
    "SweepCheckpoint",
    "SweepEngine",
    "SweepOutcome",
    "SweepTask",
    "expand_grid",
    "result_digest",
    "results_by_label",
]

logger = logging.getLogger(__name__)

#: Node factories by sweep-facing system name.
SWEEP_SYSTEMS = {
    "aurora": aurora_node,
    "frontier": frontier_node,
    "frontier-cpu": frontier_cpu_node,
}

#: Domains each system's substrate can measure (the GPU node only hosts
#: the GPU FLOPs benchmark; the CPU nodes host everything else).
SYSTEM_DOMAINS: Dict[str, Tuple[str, ...]] = {
    "aurora": ("cpu_flops", "branch", "dcache", "dtlb"),
    "frontier": ("gpu_flops",),
    "frontier-cpu": ("cpu_flops", "branch", "dcache", "dtlb"),
}


@dataclass(frozen=True)
class SweepTask:
    """One (system, domain) pipeline invocation.

    ``cache_dir`` points the pipeline's measurement cache at a shared
    on-disk root so cache hits survive process boundaries and re-runs
    (it implies measurement caching even if ``config`` does not set it).
    ``faults`` wraps the task in the fault-injection substrate
    (:mod:`repro.faults`); each task builds its own injector from the
    config, so injection stays deterministic per task regardless of
    which worker runs it.
    """

    system: str
    domain: str
    seed: int = 2024
    config: Optional[PipelineConfig] = None
    cache_dir: Optional[str] = None
    faults: Optional[FaultConfig] = None

    def __post_init__(self) -> None:
        from repro.guard.validate import require_int

        if self.system not in SWEEP_SYSTEMS:
            raise ValueError(
                f"unknown system {self.system!r}; expected one of "
                f"{sorted(SWEEP_SYSTEMS)}"
            )
        if self.domain not in SYSTEM_DOMAINS[self.system]:
            raise ValueError(
                f"domain {self.domain!r} is not measurable on "
                f"{self.system!r} (has: {SYSTEM_DOMAINS[self.system]})"
            )
        require_int(
            self.seed, "seed", f"SweepTask[{self.system}:{self.domain}]", minimum=0
        )

    @property
    def label(self) -> str:
        return f"{self.system}:{self.domain}"

    def fingerprint(self) -> str:
        """Content address of everything that determines this task's
        result — the checkpoint key."""
        blob = "\x00".join(
            (
                self.system,
                self.domain,
                str(self.seed),
                repr(self.config),
                repr(self.faults),
            )
        )
        return sha256_hex(blob, length=24)


@dataclass
class SweepOutcome:
    """Result (or failure) of one sweep task, plus execution metadata.

    On failure, ``error`` keeps the human-readable one-liner while
    ``error_type`` and ``traceback`` preserve the exception class name
    and the full formatted traceback — a sweep failure is diagnosable
    without re-running the task.  ``attempts`` counts executions
    (1 = first try succeeded); ``resumed`` marks outcomes loaded from a
    checkpoint instead of executed.
    """

    task: SweepTask
    result: Optional[PipelineResult] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    traceback: Optional[str] = None
    seconds: float = 0.0
    attempts: int = 1
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


def expand_grid(
    systems: Sequence[str],
    domains: Sequence[str],
    seed: int = 2024,
    cache_dir: Optional[str] = None,
    faults: Optional[FaultConfig] = None,
) -> List[SweepTask]:
    """Cartesian (system x domain) task list, skipping combinations the
    system cannot measure (e.g. ``gpu_flops`` on a CPU node).

    Order is deterministic: systems outer, domains inner, as given.
    """
    tasks: List[SweepTask] = []
    for system in systems:
        if system not in SWEEP_SYSTEMS:
            raise ValueError(
                f"unknown system {system!r}; expected one of {sorted(SWEEP_SYSTEMS)}"
            )
        for domain in domains:
            if domain not in SYSTEM_DOMAINS[system]:
                continue
            config = None
            if cache_dir is not None:
                if domain not in DOMAIN_CONFIGS:
                    raise KeyError(f"unknown domain {domain!r}")
                config = replace(DOMAIN_CONFIGS[domain], use_measurement_cache=True)
            tasks.append(
                SweepTask(
                    system=system,
                    domain=domain,
                    seed=seed,
                    config=config,
                    cache_dir=cache_dir,
                    faults=faults,
                )
            )
    return tasks


def _execute_task(
    task: SweepTask, attempt: int = 0, cancel: Optional[threading.Event] = None
) -> PipelineResult:
    """Worker body: build the node and run its pipeline (picklable,
    module-level, so it works under a process pool).

    ``cancel`` is set by a thread-pool engine when it abandons the attempt
    on timeout.  An attempt abandoned during its injected hang, or before it
    builds its node, stops there and runs no pipeline in the caller's
    process; one already building its node or running its pipeline runs to
    the end.  Process workers get none and sleep the hang out, as before.
    """
    injector = None
    pre_records: List[FaultRecord] = []
    if task.faults is not None and task.faults.enabled:
        injector = FaultInjector(task.faults)
        injector.check_worker_crash(task.label, attempt)
        hang = injector.hang_duration(task.label, attempt)
        if hang > 0:
            if (cancel or threading.Event()).wait(hang):
                raise TimeoutError(
                    f"{task.label} attempt {attempt} abandoned during its hang"
                )
            # The worker outlived its injected hang (no timeout killed
            # it): the fault delayed the task but cost nothing else.
            injector.records[-1].outcome = "recovered"
            injector.records[-1].detail += "; completed after the delay"
        if task.cache_dir is not None:
            injector.maybe_corrupt_cache(task.cache_dir, task.label)
        pre_records = list(injector.records)
    if cancel is not None and cancel.is_set():
        raise TimeoutError(f"{task.label} attempt {attempt} abandoned before its run")
    node = SWEEP_SYSTEMS[task.system](seed=task.seed)
    cache = None
    config = task.config
    if task.cache_dir is not None:
        from repro.io.cache import MeasurementCache

        cache = MeasurementCache(root=task.cache_dir)
        if config is None:
            config = replace(DOMAIN_CONFIGS[task.domain], use_measurement_cache=True)
    pipeline = AnalysisPipeline.for_domain(
        task.domain, node, config=config, cache=cache, faults=injector
    )
    result = pipeline.run()
    if pre_records and result.robustness is not None:
        # Worker-level faults (cache corruption, survived hangs) fired
        # before the pipeline opened its record window: fold them into
        # the audit so nothing injected here goes unaccounted.
        result.robustness.records[:0] = pre_records
        if cache is not None:
            result.robustness.mark_cache_recovered(
                getattr(cache, "quarantined", ())
            )
    return result


def _run_one(
    task: SweepTask, attempt: int = 0, cancel: Optional[threading.Event] = None
) -> SweepOutcome:
    start = time.perf_counter()
    try:
        result = _execute_task(task, attempt, cancel)
    except Exception as exc:  # noqa: BLE001 — one task must not sink the sweep
        return SweepOutcome(
            task=task,
            error=f"{type(exc).__name__}: {exc}",
            error_type=type(exc).__name__,
            traceback=traceback_module.format_exc(),
            seconds=time.perf_counter() - start,
            attempts=attempt + 1,
        )
    return SweepOutcome(
        task=task,
        result=result,
        seconds=time.perf_counter() - start,
        attempts=attempt + 1,
    )


class SweepCheckpoint:
    """Per-task persistence so a killed sweep resumes instead of redoing.

    Each *successful* outcome is pickled under the task's content
    fingerprint (system, domain, seed, config, fault config) — resuming
    with a changed grid or fault universe never reuses stale results.
    Writes are atomic (tmp + rename), so a kill mid-write leaves no
    half-checkpoint; unreadable files are treated as absent.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, task: SweepTask) -> Path:
        return self.root / f"{task.label.replace(':', '_')}-{task.fingerprint()}.pkl"

    def load(self, task: SweepTask) -> Optional[SweepOutcome]:
        path = self._path(task)
        if not path.exists():
            return None
        try:
            with path.open("rb") as fh:
                outcome = pickle.load(fh)
        except Exception as exc:  # truncated/corrupt checkpoint: redo
            logger.warning(
                "sweep checkpoint %s unreadable (%s: %s); re-running task",
                path,
                type(exc).__name__,
                exc,
            )
            return None
        if not isinstance(outcome, SweepOutcome) or not outcome.ok:
            return None
        return outcome

    def store(self, outcome: SweepOutcome) -> None:
        if not outcome.ok:
            return  # failures are retried on resume, never replayed
        path = self._path(outcome.task)
        tmp = path.with_suffix(".tmp")
        with tmp.open("wb") as fh:
            pickle.dump(outcome, fh)
        os.replace(tmp, path)


class SweepEngine:
    """Runs sweep tasks across a worker pool with ordered results.

    Parameters
    ----------
    max_workers:
        Pool size; ``None`` lets ``concurrent.futures`` pick (CPU count).
    executor:
        ``"process"`` (default — true parallelism; pipelines are
        numpy/CPU-bound), ``"thread"``, or ``"serial"`` (in-process, no
        pool; also the automatic fallback when a pool cannot start, e.g.
        in sandboxes that forbid forking).
    task_timeout:
        Seconds a single task attempt may run before it is abandoned and
        counted as failed (pool executors only; serial execution cannot
        interrupt a task).  ``None`` disables the timeout.
    max_retries:
        How many times a failed (or timed-out) attempt is re-submitted
        before the failure is final.  Retries pass an incremented
        ``attempt`` to the fault injector, so transient injected faults
        clear on retry exactly like transient hardware faults do.
    backoff:
        Base of the exponential backoff slept between retry waves
        (``backoff * 2**wave`` seconds).
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        executor: str = "process",
        task_timeout: Optional[float] = None,
        max_retries: int = 1,
        backoff: float = 0.25,
    ):
        if executor not in ("process", "thread", "serial"):
            raise ValueError(
                f"executor must be process, thread or serial; got {executor!r}"
            )
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        self.max_workers = max_workers
        self.executor = executor
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.backoff = backoff

    # ------------------------------------------------------------------
    def _make_pool(self) -> Executor:
        if self.executor == "process":
            return ProcessPoolExecutor(max_workers=self.max_workers)
        return ThreadPoolExecutor(max_workers=self.max_workers)

    @staticmethod
    def _note_recovery(
        outcome: SweepOutcome, failures: List[Tuple[str, str]]
    ) -> None:
        """Fold earlier attempts' failures into the successful outcome's
        robustness report (injected crashes/hangs settle as recovered)."""
        report = outcome.result.robustness if outcome.result else None
        if report is None:
            return
        for error_type, error in failures:
            report.retries.append(
                f"task attempt failed ({error}); retried successfully"
            )
            kind = {
                "InjectedWorkerCrash": "crash",
                "TimeoutError": "hang",
            }.get(error_type)
            if kind is not None and outcome.task.faults is not None:
                report.records.append(
                    FaultRecord(
                        kind=kind,
                        context=outcome.task.label,
                        outcome="recovered",
                        detail="recovered by sweep retry",
                    )
                )

    def _run_serial(
        self, task: SweepTask, checkpoint: Optional[SweepCheckpoint]
    ) -> SweepOutcome:
        failures: List[Tuple[str, str]] = []
        tracer = get_tracer()
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
                tracer.incr("sweep.retries")
            with tracer.span("sweep-task", label=task.label, attempt=attempt):
                outcome = _run_one(task, attempt)
            if outcome.ok:
                self._note_recovery(outcome, failures)
                if checkpoint is not None:
                    checkpoint.store(outcome)
                return outcome
            failures.append((outcome.error_type or "", outcome.error or ""))
        return outcome

    def _run_pool(
        self,
        tasks: List[SweepTask],
        pending: List[int],
        results: List[Optional[SweepOutcome]],
        checkpoint: Optional[SweepCheckpoint],
    ) -> None:
        pool = self._make_pool()
        threads = isinstance(pool, ThreadPoolExecutor)
        try:
            attempt = {i: 0 for i in pending}
            failures: Dict[int, List[Tuple[str, str]]] = {i: [] for i in pending}
            wave_no = 0
            wave = list(pending)
            while wave:
                if wave_no:
                    time.sleep(self.backoff * 2 ** (wave_no - 1))
                # Thread attempts share this process, so each gets an event
                # to stop it once abandoned; an Event cannot be pickled to
                # a process worker, whose hang is left to run out.
                cancels = {
                    i: threading.Event() if threads else None for i in wave
                }
                futures = {
                    i: pool.submit(_run_one, tasks[i], attempt[i], cancels[i])
                    for i in wave
                }
                next_wave: List[int] = []
                for i in wave:
                    try:
                        outcome = futures[i].result(timeout=self.task_timeout)
                    except FuturesTimeoutError:
                        futures[i].cancel()
                        if cancels[i] is not None:
                            cancels[i].set()
                        outcome = SweepOutcome(
                            task=tasks[i],
                            error=(
                                f"TimeoutError: task exceeded "
                                f"{self.task_timeout:g}s"
                            ),
                            error_type="TimeoutError",
                            seconds=float(self.task_timeout or 0.0),
                            attempts=attempt[i] + 1,
                        )
                    if outcome.ok:
                        self._note_recovery(outcome, failures[i])
                        if checkpoint is not None:
                            checkpoint.store(outcome)
                        results[i] = outcome
                    elif attempt[i] < self.max_retries:
                        failures[i].append(
                            (outcome.error_type or "", outcome.error or "")
                        )
                        attempt[i] += 1
                        next_wave.append(i)
                    else:
                        results[i] = outcome
                wave = next_wave
                wave_no += 1
        finally:
            # wait=False: a worker hung past its timeout must not stall
            # the sweep's exit; live tasks were already abandoned.
            pool.shutdown(wait=False, cancel_futures=True)

    def run(
        self,
        tasks: Sequence[SweepTask],
        checkpoint_dir: Optional[Union[str, Path]] = None,
    ) -> List[SweepOutcome]:
        """Execute all tasks; outcomes are returned in task order.

        With ``checkpoint_dir``, previously completed tasks are loaded
        instead of re-executed (marked ``resumed``) and each new success
        is persisted as soon as it lands — kill the sweep at any point
        and a re-invocation picks up from the survivors.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        tracer = get_tracer()
        checkpoint = (
            SweepCheckpoint(checkpoint_dir) if checkpoint_dir is not None else None
        )
        results: List[Optional[SweepOutcome]] = [None] * len(tasks)
        with tracer.span(
            "sweep", tasks=len(tasks), executor=self.executor
        ) as span:
            pending: List[int] = []
            for i, task in enumerate(tasks):
                loaded = checkpoint.load(task) if checkpoint is not None else None
                if loaded is not None:
                    loaded.resumed = True
                    results[i] = loaded
                else:
                    pending.append(i)

            if pending:
                if self.executor == "serial" or len(pending) == 1:
                    for i in pending:
                        results[i] = self._run_serial(tasks[i], checkpoint)
                else:
                    try:
                        self._run_pool(tasks, pending, results, checkpoint)
                    except (OSError, PermissionError) as exc:
                        # Pool could not start (restricted environment).
                        logger.warning(
                            "sweep worker pool unavailable (%s: %s); "
                            "falling back to serial execution",
                            type(exc).__name__,
                            exc,
                        )
                        for i in pending:
                            if results[i] is None:
                                results[i] = self._run_serial(tasks[i], checkpoint)
            ok = sum(1 for o in results if o is not None and o.ok)
            resumed = sum(1 for o in results if o is not None and o.resumed)
            span.set(ok=ok, failed=len(tasks) - ok, resumed=resumed)
        tracer.incr("sweep.tasks", len(tasks))
        tracer.incr("sweep.ok", ok)
        tracer.incr("sweep.failed", len(tasks) - ok)
        tracer.incr("sweep.resumed", resumed)
        return results  # type: ignore[return-value]


def results_by_label(outcomes: Sequence[SweepOutcome]) -> Dict[str, PipelineResult]:
    """``{"system:domain": PipelineResult}`` for the successful outcomes."""
    return {o.task.label: o.result for o in outcomes if o.ok and o.result is not None}


def result_digest(result: PipelineResult) -> str:
    """Deterministic digest of a pipeline result's *analysis content*.

    Covers the measurement data, the surviving event names, the QRCP
    selection and the rounded metric terms — everything reproducibility
    promises — and nothing incidental (timings, attempt counts, object
    identity).  Two runs of the same configuration must agree on this
    digest whether they ran serially, in parallel, or resumed from a
    checkpoint; the CI fault smoke test compares exactly this.
    """
    chunks: List[Union[str, bytes]] = [
        result.measurement.data.tobytes(),
        "\x00".join(result.measurement.event_names),
        "\x00".join(result.selected_events),
    ]
    for name in sorted(result.rounded_metrics):
        metric = result.rounded_metrics[name]
        terms = sorted((e, round(c, 12)) for e, c in metric.terms().items())
        chunks.extend((name, repr(terms), f"{metric.error:.12e}"))
    return sha256_hex(*chunks, length=16)
