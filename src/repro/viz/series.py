"""Figure data-series extraction: the numbers behind Figures 2 and 3.

Separating "compute the series" from "draw it" keeps the benchmark harness
assertable: benches regenerate and check the series, then render them with
:mod:`repro.viz.ascii` and export CSVs via :mod:`repro.io.tables`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.core.basis import ExpectationBasis
from repro.core.metrics import MetricDefinition
from repro.core.noise_filter import NoiseReport
from repro.core.signatures import Signature

__all__ = ["Fig2Series", "fig2_series", "fig3_series", "Fig3Series"]


@dataclass(frozen=True)
class Fig2Series:
    """Sorted variabilities + threshold: one panel of paper Figure 2."""

    benchmark: str
    tau: float
    values: np.ndarray  # ascending variabilities (zeros included)
    event_names: Tuple[str, ...]

    @property
    def n_zero_noise(self) -> int:
        return int(np.count_nonzero(self.values == 0.0))

    @property
    def n_above_tau(self) -> int:
        return int(np.count_nonzero(self.values > self.tau))

    def separation_gap(self) -> Tuple[float, float]:
        """(largest value <= tau, smallest value > tau) — the unambiguous
        threshold window the paper reads off the figure."""
        below = self.values[self.values <= self.tau]
        above = self.values[self.values > self.tau]
        lo = float(below.max()) if below.size else 0.0
        hi = float(above.min()) if above.size else np.inf
        return lo, hi


def fig2_series(noise: NoiseReport) -> Fig2Series:
    """Extract the Figure-2 panel series from a noise report."""
    ordered = noise.sorted_variabilities()
    return Fig2Series(
        benchmark=noise.benchmark,
        tau=noise.tau,
        values=np.array([v for _, v in ordered]),
        event_names=tuple(name for name, _ in ordered),
    )


@dataclass(frozen=True)
class Fig3Series:
    """One panel of paper Figure 3: combination vs signature per row."""

    metric: str
    row_labels: Tuple[str, ...]
    measured: np.ndarray  # the raw-event combination, kernel space
    expected: np.ndarray  # the signature, kernel space

    @property
    def max_abs_deviation(self) -> float:
        return float(np.abs(self.measured - self.expected).max())


def fig3_series(
    metric: MetricDefinition,
    signature: Signature,
    basis: ExpectationBasis,
    measurement_matrix: np.ndarray,
    event_names: Sequence[str],
) -> Fig3Series:
    """Evaluate a metric's event combination against its signature, per
    kernel row (normalized counts, as plotted in Figure 3).

    ``measurement_matrix`` is (rows, events) with columns named by
    ``event_names`` — the *measured* data, so the comparison includes all
    real noise, exactly like the figure.
    """
    m = np.asarray(measurement_matrix, dtype=np.float64)
    name_to_col = {n: i for i, n in enumerate(event_names)}
    combo = np.zeros(m.shape[0])
    for event, coeff in zip(metric.event_names, metric.coefficients):
        if coeff == 0.0:
            continue
        try:
            combo += coeff * m[:, name_to_col[event]]
        except KeyError:
            raise KeyError(
                f"metric {metric.metric!r} uses event {event!r} which is not "
                "in the supplied measurement matrix"
            ) from None
    expected = signature.in_kernel_space(basis)
    return Fig3Series(
        metric=metric.metric,
        row_labels=tuple(basis.row_labels),
        measured=combo,
        expected=expected,
    )
