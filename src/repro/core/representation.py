"""Representation of raw-event measurements in an expectation basis.

Paper Section III-B: for each surviving event ``e`` with averaged
measurement vector ``m_e``, solve ``E x_e = m_e`` by least squares.  Events
that cannot be sufficiently represented (relative residual above a
threshold) are disregarded — this is the stage that rejects measurements
contaminated by loop overhead (``INST_RETIRED:ANY``, cycles, uops), whose
constant per-iteration component lies outside the span of the expectation
columns.

Every event is solved against the same ``E``, so ``E`` is factorized once
per call and each event costs one solve against that factorization.

The surviving representations are concatenated column-wise into the matrix
``X`` consumed by the specialized QRCP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.basis import ExpectationBasis
from repro.linalg import LstsqFactor

__all__ = ["RepresentationReport", "represent_events"]


@dataclass
class RepresentationReport:
    """Representations and rejections from the basis-projection stage."""

    basis: ExpectationBasis
    threshold: float
    event_names: List[str]  # represented events, measurement order
    x_matrix: np.ndarray  # (n_dimensions, len(event_names))
    residuals: Dict[str, float]  # relative residual for every scored event
    rejected: List[str]  # events with residual > threshold

    def representation(self, event: str) -> np.ndarray:
        try:
            idx = self.event_names.index(event)
        except ValueError:
            raise KeyError(
                f"event {event!r} was rejected or not scored at the "
                "representation stage"
            ) from None
        return self.x_matrix[:, idx].copy()


def represent_events(
    basis: ExpectationBasis,
    event_names: Sequence[str],
    measurement_matrix: np.ndarray,
    threshold: float,
) -> RepresentationReport:
    """Project measurement columns onto the expectation basis.

    Parameters
    ----------
    basis:
        The expectation basis ``E``.
    event_names:
        Names for the columns of ``measurement_matrix``.
    measurement_matrix:
        ``(rows, events)`` averaged measurements (rows must match the
        basis' kernel rows).
    threshold:
        Maximum relative residual ``||E x - m|| / ||m||`` for an event to
        be kept.  Zero-measurement columns are rejected outright (they
        should have been discarded by the noise stage already).
    """
    m = np.asarray(measurement_matrix, dtype=np.float64)
    if m.shape != (basis.n_rows, len(event_names)):
        raise ValueError(
            f"measurement matrix shape {m.shape} does not match basis rows "
            f"{basis.n_rows} x {len(event_names)} events"
        )
    if threshold <= 0:
        raise ValueError("threshold must be positive")

    kept_names: List[str] = []
    columns: List[np.ndarray] = []
    residuals: Dict[str, float] = {}
    rejected: List[str] = []
    factor = LstsqFactor(basis.matrix)
    for j, name in enumerate(event_names):
        vector = m[:, j]
        norm = float(np.linalg.norm(vector))
        if norm == 0.0:
            residuals[name] = 1.0
            rejected.append(name)
            continue
        result = factor.solve(vector)
        residuals[name] = result.relative_residual
        if result.relative_residual <= threshold:
            kept_names.append(name)
            columns.append(result.x)
        else:
            rejected.append(name)

    x = (
        np.column_stack(columns)
        if columns
        else np.zeros((basis.n_dimensions, 0))
    )
    return RepresentationReport(
        basis=basis,
        threshold=threshold,
        event_names=kept_names,
        x_matrix=x,
        residuals=residuals,
        rejected=rejected,
    )
