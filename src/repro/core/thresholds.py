"""Automatic threshold selection.

The paper's Section VII names its future work: "methods to develop
different measures to quantify event noise and more rigorously select
noise suppression thresholds and pivoting criteria."  This module
implements the threshold half of that program:

* **Automatic tau selection** (:func:`select_tau`) — finds the widest gap
  in the sorted log-variability sequence (the paper picks tau by eyeballing
  exactly this gap in Figure 2) and places the threshold at its geometric
  midpoint; degenerate distributions fall back to a quantile rule.

* **Automatic alpha selection** (:func:`select_alpha`) — sweeps the QRCP
  tolerance across decades, enumerates the plateaus on which the selected
  column set is stable, and picks the plateau whose selection scores most
  like clean expectation-basis dimensions (the paper's Section V-E
  observation — "a wide range of values for alpha" works — made
  algorithmic, with a guard against the noise-floor plateau where
  measurement noise masquerades as linear independence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.qrcp import qrcp_specialized
from repro.core.rounding import score_columns

__all__ = [
    "AlphaSelection",
    "TauSelection",
    "select_alpha",
    "select_tau",
]


# ---------------------------------------------------------------------------
# Automatic tau selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauSelection:
    """Outcome of automatic noise-threshold selection."""

    tau: float
    gap_low: float  # largest variability below the chosen threshold
    gap_high: float  # smallest variability above it
    gap_decades: float  # width of the separating gap in decades
    method: str  # "gap" or "quantile"

    @property
    def unambiguous(self) -> bool:
        """True when a Figure-2a-style free window exists (the paper calls
        a gap of several decades 'unambiguous')."""
        return self.method == "gap" and self.gap_decades >= 2.0


def select_tau(
    variabilities: Sequence[float],
    floor: float = 1e-15,
    min_gap_decades: float = 1.0,
    fallback_quantile: float = 0.5,
) -> TauSelection:
    """Pick the noise threshold from the variability distribution.

    Values at or below ``floor`` (including exact zeros) are clamped to
    ``floor``; the widest gap between consecutive sorted log-values that is
    at least ``min_gap_decades`` wide hosts the threshold (geometric
    midpoint).  Without such a gap — the paper's data-cache regime — the
    threshold falls back to the given quantile of the distribution, which
    encodes "keep the quieter half" leniency.
    """
    values = np.asarray(list(variabilities), dtype=np.float64)
    if values.size < 2:
        raise ValueError("need at least two variability values")
    if np.any(values < 0):
        raise ValueError("variabilities must be non-negative")
    clamped = np.sort(np.maximum(values, floor))
    logs = np.log10(clamped)
    gaps = np.diff(logs)
    if gaps.size and gaps.max() >= min_gap_decades:
        idx = int(np.argmax(gaps))
        tau = float(10 ** ((logs[idx] + logs[idx + 1]) / 2.0))
        return TauSelection(
            tau=tau,
            gap_low=float(clamped[idx]),
            gap_high=float(clamped[idx + 1]),
            gap_decades=float(gaps[idx]),
            method="gap",
        )
    tau = float(np.quantile(clamped, fallback_quantile))
    below = clamped[clamped <= tau]
    above = clamped[clamped > tau]
    return TauSelection(
        tau=tau,
        gap_low=float(below.max()) if below.size else floor,
        gap_high=float(above.min()) if above.size else np.inf,
        gap_decades=0.0,
        method="quantile",
    )


# ---------------------------------------------------------------------------
# Automatic alpha selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaSelection:
    """Outcome of automatic QRCP-tolerance selection."""

    alpha: float
    plateau_low: float
    plateau_high: float
    plateau_decades: float
    selection: Tuple[int, ...]  # column indices selected on the plateau
    sweep: Tuple[Tuple[float, Tuple[int, ...]], ...]  # full (alpha, sel) trace

    @property
    def stable(self) -> bool:
        return self.plateau_decades >= 1.0


def select_alpha(
    x: np.ndarray,
    alphas: Optional[Sequence[float]] = None,
    min_plateau_decades: float = 0.5,
) -> AlphaSelection:
    """Sweep alpha and return the midpoint of the best stable plateau.

    ``x`` is the representation matrix the QRCP consumes.  Stability is
    judged on the *set* of selected columns: a plateau is a maximal run of
    consecutive sweep points with an identical selection.

    Plateau choice is not simply "widest": below the noise scale the QRCP
    sees measurement noise as genuine linear independence (the paper's
    Section II warning) and can stably select too many columns — and even
    with the right *count*, a noise-floor plateau selects columns whose
    residual noise survives the rounding, which the scoring formula
    penalizes heavily.  Among plateaus at least ``min_plateau_decades``
    wide (or the widest available if none qualify), we therefore rank by
    (quantized mean pivot score of the selected columns at the plateau's
    midpoint alpha, selection size, -width): the plateau whose selection
    looks most like clean basis dimensions wins, parsimony and width break
    ties.
    """
    x = np.asarray(x, dtype=np.float64)
    if alphas is None:
        alphas = np.logspace(-6, -0.7, 22)
    alphas = np.sort(np.asarray(list(alphas), dtype=np.float64))
    if alphas.size < 2:
        raise ValueError("need at least two alpha candidates")
    if np.any(alphas <= 0):
        raise ValueError("alphas must be positive")

    sweep: List[Tuple[float, Tuple[int, ...]]] = []
    for alpha in alphas:
        result = qrcp_specialized(x, alpha=float(alpha))
        sweep.append((float(alpha), tuple(sorted(int(i) for i in result.selected))))

    # Enumerate maximal runs of identical selections: (start, end, decades).
    plateaus: List[Tuple[int, int, float]] = []
    start = 0
    for i in range(1, len(sweep) + 1):
        if i == len(sweep) or sweep[i][1] != sweep[start][1]:
            width = np.log10(sweep[i - 1][0]) - np.log10(sweep[start][0])
            plateaus.append((start, i - 1, float(width)))
            start = i

    widest = max(p[2] for p in plateaus)
    candidates = [p for p in plateaus if p[2] >= min(min_plateau_decades, widest)]

    def plateau_key(p):
        start, end, width = p
        selection = sweep[start][1]
        lo, hi = sweep[start][0], sweep[end][0]
        mid_alpha = float(10 ** ((np.log10(lo) + np.log10(hi)) / 2.0))
        if selection:
            scores = score_columns(x[:, list(selection)], mid_alpha)
            mean_score = float(scores.mean())
        else:
            mean_score = np.inf
        # Quantize so numerically equivalent selections tie cleanly.
        return (round(mean_score, 2), len(selection), -width)

    best = min(candidates, key=plateau_key)

    lo, hi = sweep[best[0]][0], sweep[best[1]][0]
    alpha = float(10 ** ((np.log10(lo) + np.log10(hi)) / 2.0))
    return AlphaSelection(
        alpha=alpha,
        plateau_low=lo,
        plateau_high=hi,
        plateau_decades=best[2],
        selection=sweep[best[0]][1],
        sweep=tuple(sweep),
    )
