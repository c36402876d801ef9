"""Measurement containers produced by CAT benchmark runs.

A :class:`MeasurementSet` is the raw material of the whole analysis: for one
benchmark on one node it holds a dense array of readings indexed by
(repetition, thread, kernel-row, event).  Repetitions feed the max-RNMSE
noise filter (paper Section IV); threads exist only for the data-cache
benchmark, where the median across threads suppresses measurement noise
(paper Sections IV and VII); rows are the kernel/loop configurations whose
expected counts the signatures describe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["MeasurementSet"]


@dataclass
class MeasurementSet:
    """Readings of many events over a benchmark's kernel rows.

    Attributes
    ----------
    benchmark:
        Benchmark name (``cpu_flops``, ``branch``, ...).
    row_labels:
        One label per kernel row (e.g. ``dp_256_fma/loop48``).
    event_names:
        Full names of the measured events, in measurement order.
    data:
        Array of shape ``(repetitions, threads, rows, events)``.
    pmu_runs:
        How many complete hardware executions the PMU schedule needed to
        cover all events (``None`` when unknown, e.g. hand-built sets).
    """

    benchmark: str
    row_labels: List[str]
    event_names: List[str]
    data: np.ndarray
    pmu_runs: Optional[int] = None

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 4:
            raise ValueError(
                f"data must be (reps, threads, rows, events); got shape {self.data.shape}"
            )
        reps, threads, rows, events = self.data.shape
        if rows != len(self.row_labels):
            raise ValueError(
                f"{rows} data rows vs {len(self.row_labels)} row labels"
            )
        if events != len(self.event_names):
            raise ValueError(
                f"{events} data events vs {len(self.event_names)} event names"
            )
        self._event_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.event_names)
        }
        if len(self._event_index) != len(self.event_names):
            raise ValueError("duplicate event names in measurement set")

    # Shape accessors -------------------------------------------------------
    @property
    def n_repetitions(self) -> int:
        return self.data.shape[0]

    @property
    def n_threads(self) -> int:
        return self.data.shape[1]

    @property
    def n_rows(self) -> int:
        return self.data.shape[2]

    @property
    def n_events(self) -> int:
        return self.data.shape[3]

    def event_index(self, name: str) -> int:
        try:
            return self._event_index[name]
        except KeyError:
            raise KeyError(
                f"event {name!r} was not measured by {self.benchmark!r}"
            ) from None

    # Views -----------------------------------------------------------------
    def repetition_vectors(self, event: str) -> np.ndarray:
        """Per-repetition measurement vectors of one event, threads
        collapsed by median: shape ``(reps, rows)``."""
        idx = self.event_index(event)
        return np.median(self.data[:, :, :, idx], axis=1)

    def mean_vector(self, event: str) -> np.ndarray:
        """Measurement vector averaged over repetitions (threads median).

        For noise-free events all repetitions are identical and this is
        exactly any single repetition (paper Section IV)."""
        return self.repetition_vectors(event).mean(axis=0)

    def measurement_matrix(self) -> np.ndarray:
        """Rows x events matrix of mean measurements (the paper's A)."""
        medianed = np.median(self.data, axis=1)  # (reps, rows, events)
        return medianed.mean(axis=0)

    def select_events(self, names: Sequence[str]) -> "MeasurementSet":
        """Sub-setted measurement set preserving order of ``names``."""
        idx = [self.event_index(n) for n in names]
        return MeasurementSet(
            benchmark=self.benchmark,
            row_labels=list(self.row_labels),
            event_names=list(names),
            data=self.data[:, :, :, idx],
            pmu_runs=self.pmu_runs,
        )

    def __repr__(self) -> str:
        return (
            f"MeasurementSet({self.benchmark!r}, reps={self.n_repetitions}, "
            f"threads={self.n_threads}, rows={self.n_rows}, events={self.n_events})"
        )
