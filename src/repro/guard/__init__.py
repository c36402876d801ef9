"""Guarded numerical core: sentinels, certification, boundary validation.

Three layers, one contract — a composed metric never reaches a consumer
without machine-checkable evidence that it can be trusted:

* **Conditioning sentinels** (:mod:`repro.guard.health`): every QR-based
  factorization estimates its condition number, rank gap and pivot
  growth, and records them in a :class:`NumericalHealth`; crossing a
  :class:`GuardConfig` threshold engages a fallback ladder (column-scaled
  re-factorization, then iterative refinement in float64 and longdouble)
  and records which guard fired.
* **Metric certification** (:mod:`repro.guard.certify`): composed
  definitions are cross-validated on held-out kernels and stamped with a
  :class:`TrustScore` (certified / caution / reject, with reasons).
* **Boundary validation** (:mod:`repro.guard.validate`): reusable
  validators applied at every public entry point, so malformed input
  fails fast with an actionable message instead of propagating NaNs into
  the solver.

Guards observe before they intervene: on healthy inputs a guard-enabled
run is bit-identical to a guard-disabled one (property-tested), because
no fallback engages below the thresholds.
"""

from __future__ import annotations

from repro.guard.certify import HoldoutFolds, TrustScore, certify_metric
from repro.guard.health import (
    GuardConfig,
    NumericalHealth,
    estimate_condition,
    triangular_health,
)
from repro.guard.smoke import SmokeOutcome, forge_near_duplicates, run_smoke
from repro.guard.validate import (
    ValidationError,
    require_finite,
    require_fraction,
    require_in,
    require_int,
    require_matrix,
    require_monotone,
    require_nonempty,
    require_positive,
    require_vector,
)

__all__ = [
    "GuardConfig",
    "GuardViolation",
    "HoldoutFolds",
    "NumericalHealth",
    "SmokeOutcome",
    "TrustScore",
    "ValidationError",
    "certify_metric",
    "estimate_condition",
    "forge_near_duplicates",
    "require_finite",
    "require_fraction",
    "require_in",
    "require_int",
    "require_matrix",
    "require_monotone",
    "require_nonempty",
    "require_positive",
    "require_vector",
    "run_smoke",
    "triangular_health",
]


class GuardViolation(RuntimeError):
    """Raised by strict mode when a metric is rejected or a sentinel
    crosses its reject threshold; the message names the offending
    columns/events so the failure is actionable."""
