"""Deterministic fault injection over the measurement and sweep paths.

The injector is the runtime half of the fault model: given a
:class:`~repro.faults.model.FaultConfig` it decides, for every injection
site, whether a fault fires and what it does.  Every decision comes from
its own generator stream seeded by ``(config.seed, crc32(site))`` — never
from a shared sequential stream — so decisions are a pure function of the
configuration and the site name.  A parallel sweep, a serial sweep, and a
resumed sweep all inject exactly the same faults, which is what makes the
resilience tests able to assert bit-identical final artifacts.

The injector also keeps a log of every fault it actually injected
(:class:`~repro.faults.model.FaultRecord`); the recovery layers rewrite
each record's outcome, and :class:`~repro.faults.report.RobustnessReport`
audits that none stayed silent.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.cat.measurement import MeasurementSet
from repro.faults.model import (
    FaultConfig,
    FaultRecord,
    InjectedWorkerCrash,
    TransientMeasurementError,
)
from repro.obs import get_tracer

__all__ = ["FaultInjector"]


def _site_rng(seed: int, site: str) -> np.random.Generator:
    """One independent stream per (seed, site) — order-independent."""
    return np.random.default_rng((seed, zlib.crc32(site.encode())))


class FaultInjector:
    """Applies a :class:`FaultConfig` at the measurement and sweep sites.

    One injector instance is scoped to one pipeline (or one sweep task)
    execution; its ``records`` list is the ground truth of what was
    injected there.
    """

    def __init__(self, config: FaultConfig):
        self.config = config
        self.records: List[FaultRecord] = []

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    # -- measurement corruption ---------------------------------------
    def corrupt_measurement(
        self, measurement: MeasurementSet, context: str, attempt: int = 0
    ) -> MeasurementSet:
        """A corrupted copy of ``measurement`` (or the original object
        untouched when no cell-level fault fires).

        Dropouts, spikes and overflow wraps are drawn per cell from
        streams keyed by ``(context, event, attempt)``: re-measuring the
        same context (a retry) draws a fresh corruption pattern, while
        re-running the same attempt reproduces it bit-exactly.
        """
        config = self.config
        if not config.any_measurement_faults:
            return measurement

        data = measurement.data
        cell_shape = data.shape[:3]  # (reps, threads, rows)
        new_data: Optional[np.ndarray] = None
        modulus = float(2**config.overflow_bits) if config.overflow_bits else 0.0

        for j, event in enumerate(measurement.event_names):
            site = f"measure:{context}:{event}:attempt{attempt}"
            rng = _site_rng(config.seed, site)
            # Draw every mask from one stream in a fixed order so the
            # pattern is stable regardless of which rates are zero.
            drop = rng.random(cell_shape) < config.dropout_rate
            spike = rng.random(cell_shape) < config.spike_rate
            wrap = rng.random(cell_shape) < config.overflow_rate
            if modulus > 0:
                wrap &= data[:, :, :, j] >= modulus
            else:
                wrap[:] = False
            # A spike on a zero count changes nothing — not a fault.
            spike &= data[:, :, :, j] != 0.0
            spike &= ~drop
            wrap &= ~drop & ~spike
            if not (drop.any() or spike.any() or wrap.any()):
                continue
            if new_data is None:
                new_data = data.copy()
            col = new_data[:, :, :, j]
            col[spike] *= config.spike_scale
            if modulus > 0:
                col[wrap] = np.mod(col[wrap], modulus)
            col[drop] = config.dropout_value
            for kind, mask in (("dropout", drop), ("spike", spike), ("overflow", wrap)):
                fired = int(mask.sum())
                if fired:
                    get_tracer().incr(f"faults.injected.{kind}", fired)
                for rep, thread, row in zip(*np.nonzero(mask)):
                    self.records.append(
                        FaultRecord(
                            kind=kind,
                            context=context,
                            event=event,
                            coords=(int(rep), int(thread), int(row)),
                            detail=f"attempt {attempt}",
                        )
                    )

        if new_data is None:
            return measurement
        return MeasurementSet(
            benchmark=measurement.benchmark,
            row_labels=list(measurement.row_labels),
            event_names=list(measurement.event_names),
            data=new_data,
            pmu_runs=measurement.pmu_runs,
        )

    # -- whole-run / whole-task faults --------------------------------
    def _attempt_fires(self, rate: float, site: str, attempt: int) -> bool:
        if rate <= 0:
            return False
        if self.config.transient and attempt > 0:
            return False
        return bool(_site_rng(self.config.seed, f"{site}:attempt{attempt}").random() < rate)

    def check_run_failure(self, context: str, attempt: int = 0) -> None:
        """Raise :class:`TransientMeasurementError` when this measurement
        attempt is injected to fail."""
        if self._attempt_fires(
            self.config.run_failure_rate, f"run-failure:{context}", attempt
        ):
            self.records.append(
                FaultRecord(
                    kind="run-failure",
                    context=context,
                    detail=f"attempt {attempt}",
                )
            )
            get_tracer().incr("faults.injected.run-failure")
            raise TransientMeasurementError(
                f"injected transient measurement failure ({context}, attempt {attempt})"
            )

    def check_worker_crash(self, context: str, attempt: int = 0) -> None:
        """Raise :class:`InjectedWorkerCrash` when this task attempt is
        injected to crash."""
        if self._attempt_fires(self.config.crash_rate, f"crash:{context}", attempt):
            self.records.append(
                FaultRecord(kind="crash", context=context, detail=f"attempt {attempt}")
            )
            get_tracer().incr("faults.injected.crash")
            raise InjectedWorkerCrash(
                f"injected worker crash ({context}, attempt {attempt})"
            )

    def hang_duration(self, context: str, attempt: int = 0) -> float:
        """Seconds this task attempt should hang (0.0 = no hang)."""
        if self._attempt_fires(self.config.hang_rate, f"hang:{context}", attempt):
            self.records.append(
                FaultRecord(kind="hang", context=context, detail=f"attempt {attempt}")
            )
            get_tracer().incr("faults.injected.hang")
            return self.config.hang_seconds
        return 0.0

    # -- cache corruption ----------------------------------------------
    def corrupt_cache_file(self, path: Union[str, Path]) -> bool:
        """Truncate one on-disk cache artifact to half its size (simulating
        a partial write / torn page).  Returns whether anything changed."""
        path = Path(path)
        if not path.exists():
            return False
        blob = path.read_bytes()
        path.write_bytes(blob[: max(1, len(blob) // 2)])
        self.records.append(
            FaultRecord(kind="cache-corruption", context=str(path))
        )
        get_tracer().incr("faults.injected.cache-corruption")
        return True

    def maybe_corrupt_cache(self, root: Union[str, Path], context: str) -> int:
        """Corrupt existing ``.npz`` entries under a cache root with the
        configured probability (one independent decision per entry).

        Returns the number of entries corrupted.  Decisions are keyed by
        entry name, not directory order, so they are reproducible.
        """
        rate = self.config.cache_corruption_rate
        if rate <= 0:
            return 0
        root = Path(root)
        if not root.exists():
            return 0
        corrupted = 0
        for npz in sorted(root.rglob("*.npz")):
            if "quarantine" in npz.parts:
                continue
            site = f"cache:{context}:{npz.stem}"
            if _site_rng(self.config.seed, site).random() < rate:
                if self.corrupt_cache_file(npz):
                    corrupted += 1
        return corrupted
