"""Conditioning sentinels: cheap numerical-health evidence for QR factors.

Every factorization in the analysis core ends with an upper-triangular
``R``; its diagonal and triangle are enough to estimate — cheaply and
deterministically — everything the pipeline needs to know about how much
the downstream solve can be trusted:

* **Condition estimate.**  The diagonal ratio ``max|r_ii| / min|r_ii|``
  is the classic free lower bound on ``cond_2(R)``; an optional
  power-iteration refinement (forward iteration for the largest singular
  value, inverse iteration through triangular solves for the smallest)
  tightens it to a few percent in a handful of O(k^2) sweeps.  Start
  vectors are fixed, so the estimate is a pure function of ``R``.
* **Rank gap.**  The largest ratio between consecutive (magnitude-sorted)
  diagonal entries.  A clean numerical-rank decision shows one dominant
  gap; a near-rank-deficient selection shows a gap large enough that a
  perturbation at working precision could move the rank.
* **Pivot growth.**  ``max|R| / max|A|`` — growth far above 1 means the
  factorization amplified entries and the residual bound degrades with it.

:class:`NumericalHealth` bundles these with the record of which guards
fired (see the fallback ladders in :mod:`repro.linalg.lstsq` and
:mod:`repro.core.qrcp`), and :class:`GuardConfig` holds the thresholds
that decide when observation turns into intervention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "GuardConfig",
    "NumericalHealth",
    "estimate_condition",
    "triangular_health",
]


@dataclass(frozen=True)
class GuardConfig:
    """Thresholds and switches for the numerical-robustness layer.

    The defaults are chosen so that well-conditioned data never trips a
    guard: a guarded run on healthy inputs is bit-identical to an
    unguarded one (property-tested), because every sentinel is pure
    observation until a threshold is crossed.
    """

    #: Master switch.  ``False`` skips sentinel computation entirely —
    #: the factorizations behave exactly as if the guard never existed.
    enabled: bool = True
    #: Condition estimate above which the fallback ladder engages.
    condition_threshold: float = 1e8
    #: Consecutive-diagonal ratio that flags a near-rank-deficiency.
    rank_gap_threshold: float = 1e6
    #: Power-iteration sweeps refining the diagonal condition estimate
    #: (0 keeps the free diagonal-ratio bound).
    refine_iterations: int = 4
    #: Iterative-refinement steps taken by the lstsq fallback ladder
    #: (each runs once in float64, then once in longdouble).
    max_refinements: int = 1
    #: Cross-validate composed metrics on held-out kernels and stamp a
    #: trust score.
    certify: bool = True
    #: Leave-one-kernel-out refits to run (rows are subsampled evenly
    #: when the benchmark has more kernels than this).
    certify_holdouts: int = 12
    #: Coefficient spread (inf-norm, relative) across holdout refits
    #: above which a metric is only ``caution``.
    certify_coeff_tol: float = 0.05
    #: Backward-error spread across holdout refits above which a metric
    #: is only ``caution``.
    certify_error_tol: float = 0.05
    #: Coefficient spread above which a metric is rejected outright.
    reject_coeff_tol: float = 0.75

    def __post_init__(self) -> None:
        if self.condition_threshold <= 1 or self.rank_gap_threshold <= 1:
            raise ValueError("guard thresholds must be > 1")
        if self.refine_iterations < 0 or self.max_refinements < 0:
            raise ValueError("iteration counts must be >= 0")
        if self.certify_holdouts < 2:
            raise ValueError("certify_holdouts must be >= 2")
        if not (0 < self.certify_coeff_tol <= self.reject_coeff_tol):
            raise ValueError(
                "need 0 < certify_coeff_tol <= reject_coeff_tol"
            )
        if self.certify_error_tol <= 0:
            raise ValueError("certify_error_tol must be positive")


@dataclass(frozen=True)
class NumericalHealth:
    """Machine-checkable conditioning evidence for one factorization.

    Attributes
    ----------
    condition_estimate:
        Estimated 2-norm condition number of the triangular factor
        (``inf`` when a diagonal entry is exactly zero).
    rank_gap:
        Largest ratio between consecutive magnitude-sorted diagonal
        entries of R (1.0 for empty/rank-1 factors).
    pivot_growth:
        ``max|R| / max|A|`` of the factorization (1.0 when undefined).
    residual_bound:
        Backward-error-style bound of the final solve, when one was
        performed (``None`` for bare factorizations).
    refinement_iterations:
        Iterative-refinement steps actually taken by the fallback ladder.
    guards_fired:
        Names of the guards that intervened, in firing order; empty on a
        healthy run (and then the outputs are bit-identical to the
        unguarded path).
    suspect_columns:
        Pivot-order column indices implicated in the conditioning
        trouble (the columns after the dominant rank gap); empty when
        healthy.  Callers map these to event names for error messages.
    """

    condition_estimate: float
    rank_gap: float = 1.0
    pivot_growth: float = 1.0
    residual_bound: Optional[float] = None
    refinement_iterations: int = 0
    guards_fired: Tuple[str, ...] = ()
    suspect_columns: Tuple[int, ...] = ()

    def ok(self, config: GuardConfig) -> bool:
        """Whether every sentinel is below its threshold."""
        return (
            self.condition_estimate <= config.condition_threshold
            and self.rank_gap <= config.rank_gap_threshold
        )

    def describe(self) -> str:
        parts = [
            f"cond~{self.condition_estimate:.2e}",
            f"rank-gap {self.rank_gap:.2e}",
            f"pivot-growth {self.pivot_growth:.2f}",
        ]
        if self.residual_bound is not None:
            parts.append(f"residual-bound {self.residual_bound:.2e}")
        if self.refinement_iterations:
            parts.append(f"refined x{self.refinement_iterations}")
        if self.guards_fired:
            parts.append("guards: " + " -> ".join(self.guards_fired))
        return ", ".join(parts)


def _solve_upper_t(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``R^T x = b`` (forward substitution on the transpose)."""
    n = r.shape[0]
    x = b.astype(np.float64, copy=True)
    for i in range(n):
        if i:
            x[i] -= r[:i, i] @ x[:i]
        x[i] /= r[i, i]
    return x


def _solve_upper(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = r.shape[0]
    x = b.astype(np.float64, copy=True)
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] -= r[i, i + 1 :] @ x[i + 1 :]
        x[i] /= r[i, i]
    return x


def estimate_condition(r: np.ndarray, refine_iterations: int = 4) -> float:
    """Estimate ``cond_2`` of an upper-triangular matrix.

    The base estimate is the diagonal ratio (a guaranteed lower bound for
    triangular matrices); ``refine_iterations`` power-iteration sweeps
    tighten the largest singular value (iterating ``R^T R``) and the
    smallest (inverse iteration via two triangular solves per sweep).
    Deterministic: iteration starts from a fixed all-ones vector.
    Returns ``inf`` when a diagonal entry is exactly zero, ``1.0`` for
    empty factors.
    """
    r = np.asarray(r, dtype=np.float64)
    k = min(r.shape) if r.ndim == 2 else 0
    if k == 0:
        return 1.0
    r = np.triu(r[:k, :k])
    diag = np.abs(np.diag(r))
    if (diag == 0.0).any():
        return float("inf")
    estimate = float(diag.max() / diag.min())
    if refine_iterations <= 0:
        return estimate

    v = np.ones(k) / np.sqrt(k)
    w = v.copy()
    sigma_max = diag.max()
    sigma_min = diag.min()
    for _ in range(refine_iterations):
        # Largest singular value: power iteration on R^T R.  ||R v|| with
        # ||v|| = 1 is a lower bound converging to sigma_max.
        u = r @ v
        sigma_max = max(sigma_max, float(np.linalg.norm(u)))
        v = r.T @ u
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            break
        v /= norm
        # Smallest singular value: inverse iteration on (R^T R)^-1.
        try:
            y = _solve_upper_t(r, w)
            z = _solve_upper(r, y)
        except (ZeroDivisionError, FloatingPointError):
            return float("inf")
        z_norm = float(np.linalg.norm(z))
        if not np.isfinite(z_norm) or z_norm == 0.0:
            return float("inf")
        sigma_min = min(sigma_min, float(np.linalg.norm(y) / z_norm))
        w = z / z_norm
    if sigma_min <= 0.0:
        return float("inf")
    return max(estimate, float(sigma_max / sigma_min))


def _rank_gap(diag: np.ndarray) -> Tuple[float, int]:
    """Largest consecutive ratio of the magnitude-sorted diagonal and the
    (pivot-order) index where the tail below the gap starts."""
    if diag.size < 2:
        return 1.0, diag.size
    order = np.argsort(np.abs(diag))[::-1]
    sorted_mag = np.abs(diag)[order]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(
            sorted_mag[1:] > 0.0, sorted_mag[:-1] / sorted_mag[1:], np.inf
        )
    worst = int(np.argmax(ratios))
    return float(ratios[worst]), worst + 1


def triangular_health(
    r: np.ndarray,
    original: Optional[np.ndarray] = None,
    refine_iterations: int = 4,
) -> NumericalHealth:
    """Sentinel readings for an upper-triangular factor ``R``.

    ``original`` (the matrix that was factorized) feeds the pivot-growth
    ratio; without it growth defaults to 1.0.  ``suspect_columns`` holds
    the pivot-order indices of the diagonal entries on the small side of
    the dominant rank gap — the columns a strict-mode error should name.
    """
    r = np.asarray(r, dtype=np.float64)
    k = min(r.shape) if r.ndim == 2 and r.size else 0
    if k == 0:
        return NumericalHealth(condition_estimate=1.0)
    diag = np.diag(r[:k, :k])
    gap, tail_start = _rank_gap(diag)
    suspects: Tuple[int, ...] = ()
    if gap > 1e3:  # only name columns when there is a story to tell
        order = np.argsort(np.abs(diag))[::-1]
        suspects = tuple(int(i) for i in sorted(order[tail_start:]))
    growth = 1.0
    if original is not None:
        original = np.asarray(original, dtype=np.float64)
        ref = float(np.abs(original).max()) if original.size else 0.0
        if ref > 0.0:
            growth = float(np.abs(np.triu(r)).max() / ref)
    return NumericalHealth(
        condition_estimate=estimate_condition(
            r, refine_iterations=refine_iterations
        ),
        rank_gap=gap,
        pivot_growth=growth,
        suspect_columns=suspects,
    )
