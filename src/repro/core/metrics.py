"""Metric composition: least squares over the QRCP-selected events.

Paper Section VI.  With the linearly independent event representations
``X-hat`` (one column per selected event, in expectation coordinates) and a
metric signature ``s``, solve ``X-hat y = s`` by least squares.  The
backward error (Equation 5) is the fitness certificate:

* ~machine epsilon — the metric is exactly composable from raw events;
* moderate (e.g. 2.4e-1 for the FMA metrics on SPR) — no event subset
  isolates the concept; the least-squares combination is a best effort and
  the error says *how* partial it is;
* 1.0 — the signature is orthogonal to everything the architecture's
  events can express (e.g. speculatively executed branches on SPR).

Section VI-D's coefficient rounding is also here: cache-event coefficients
land within a couple of percent of {-1, 0, 1} because of measurement noise,
and snapping them recovers the exact combination.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.signatures import Signature
from repro.linalg import lstsq_qr
from repro.linalg.norms import backward_error
from repro.papi.presets import PAPI_PRESET_NAMES, PresetMetric

if TYPE_CHECKING:
    from repro.guard.certify import TrustScore
    from repro.guard.health import GuardConfig, NumericalHealth
    from repro.vet.priors import VetStamp

__all__ = ["MetricDefinition", "compose_metric", "round_coefficients"]


@dataclass(frozen=True)
class MetricDefinition:
    """A metric as a linear combination of raw events, with fitness.

    ``coefficients`` aligns with ``event_names``.  ``error`` is the paper's
    Equation-5 backward error of the fit.
    """

    metric: str
    event_names: Tuple[str, ...]
    coefficients: np.ndarray
    error: float
    signature: Optional[Signature] = None
    # True when the metric was composed over a fault-degraded X-hat
    # (events were lost to corruption); the fit is a best effort over the
    # survivors and the fitness should be read with that caveat.
    degraded: bool = False
    # Conditioning sentinel readings of the composition solve (populated
    # when the pipeline runs with a guard config).
    health: Optional["NumericalHealth"] = None
    # Leave-one-kernel-out certification stamp (certified/caution/reject
    # with reasons); None when certification was not run.
    trust: Optional["TrustScore"] = None
    # Counter-validation evidence (repro.vet): the verdicts of the events
    # this metric composes over and what the priors excluded; None when
    # the pipeline ran without trust priors.
    vet: Optional["VetStamp"] = None

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        object.__setattr__(self, "coefficients", coeffs)
        if coeffs.shape != (len(self.event_names),):
            raise ValueError(
                f"{len(self.event_names)} events vs coefficient shape {coeffs.shape}"
            )

    @property
    def composable(self) -> bool:
        """Whether the error certifies a genuine composition (paper: small
        errors mean good definitions; errors near 1 mean absence)."""
        return self.error < 1e-3

    def terms(self, drop_zero: bool = True) -> Dict[str, float]:
        """Event -> coefficient mapping (zero coefficients dropped)."""
        return {
            e: float(c)
            for e, c in zip(self.event_names, self.coefficients)
            if not (drop_zero and c == 0.0)
        }

    def evaluate(self, readings: Dict[str, float]) -> float:
        """Apply the definition to raw readings.

        Zero-coefficient events are skipped — a tool consuming the
        definition would not program counters for them, so their readings
        need not be present.
        """
        return float(
            sum(
                c * readings[e]
                for e, c in zip(self.event_names, self.coefficients)
                if c != 0.0
            )
        )

    def as_preset(self) -> PresetMetric:
        """Convert to a PAPI-style preset definition."""
        name = PAPI_PRESET_NAMES.get(self.metric, self.metric)
        return PresetMetric(
            name=name,
            terms=self.terms(),
            fitness=self.error,
            description=(self.signature.description if self.signature else ""),
        )

    def pretty(self) -> str:
        """Paper-table style rendering."""
        lines = []
        for event, coeff in zip(self.event_names, self.coefficients):
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            coeff_str = f"{mag:g}" if 1e-3 <= mag else f"{mag:.2e}"
            lines.append(f"  {sign} {coeff_str} x {event}")
        suffix = "  [DEGRADED]" if self.degraded else ""
        if self.trust is not None:
            suffix += f"  [trust: {self.trust.level}]"
        if self.vet is not None and not self.vet.clean:
            suffix += f"  [vet: {self.vet.describe()}]"
        header = f"{self.metric}  (error {self.error:.2e}){suffix}"
        return "\n".join([header] + lines)


def compose_metric(
    metric_name: str,
    x_hat: np.ndarray,
    event_names: Sequence[str],
    signature: Signature,
    rcond: Optional[float] = None,
    guard: Optional["GuardConfig"] = None,
) -> MetricDefinition:
    """Solve ``X-hat y = s`` and wrap the result (paper Section VI).

    With ``guard``, the solve carries a conditioning sentinel and engages
    the fallback ladder (column-scaled re-factorization + iterative
    refinement) when the selection is ill-conditioned; the resulting
    health record rides on the definition.
    """
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x_hat.shape[1] != len(event_names):
        raise ValueError(
            f"X-hat has {x_hat.shape[1]} columns but {len(event_names)} names given"
        )
    if x_hat.shape[0] != signature.coords.shape[0]:
        raise ValueError(
            f"X-hat rows {x_hat.shape[0]} do not match signature dimension "
            f"{signature.coords.shape[0]}"
        )
    result = lstsq_qr(x_hat, signature.coords, rcond=rcond, guard=guard)
    return MetricDefinition(
        metric=metric_name,
        event_names=tuple(event_names),
        coefficients=result.x,
        error=result.backward_error,
        signature=signature,
        health=result.health,
    )


def round_coefficients(
    definition: MetricDefinition,
    x_hat: Optional[np.ndarray] = None,
    snap_tol: float = 0.05,
    zero_tol: float = 0.02,
) -> MetricDefinition:
    """Snap noisy coefficients to nearby integers (paper Section VI-D).

    Coefficients within ``snap_tol`` (relative) of a nonzero integer snap
    to it; coefficients below ``zero_tol`` in magnitude snap to zero.  If
    ``x_hat`` is provided the error is recomputed for the rounded
    combination against the original signature, so callers can verify the
    snap *improved* the match (paper Figure 3 shows the rounded cache
    combinations match the signatures exactly).
    """
    coeffs = definition.coefficients.copy()
    rounded = np.round(coeffs)
    snap = np.abs(coeffs - rounded) <= snap_tol * np.maximum(np.abs(rounded), 1.0)
    coeffs[snap] = rounded[snap]
    coeffs[np.abs(coeffs) <= zero_tol] = 0.0

    error = definition.error
    if x_hat is not None and definition.signature is not None:
        error = backward_error(
            np.asarray(x_hat, dtype=np.float64), coeffs, definition.signature.coords
        )
    return replace(definition, coefficients=coeffs, error=error)
