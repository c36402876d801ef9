"""Strict boundary validation for every public entry point.

The analysis core is a chain of least-squares solves; a NaN, an empty
event list, or a mis-shaped array entering at any boundary propagates
silently into the solver and comes out the other end as a
confident-looking metric definition.  This module is the single place
where "malformed input" is defined: small, reusable validators with
precise, actionable error messages, applied at the pipeline entry, the
sweep grid, cache/sidecar deserialization, and CLI argument parsing.

All validators raise :class:`ValidationError` (a ``ValueError``), so
callers that already catch ``ValueError`` keep working, while callers
that want to distinguish boundary rejections from internal errors can
catch the subclass.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "require_finite",
    "require_int",
    "require_nonempty",
    "require_positive",
]


class ValidationError(ValueError):
    """An input rejected at a public boundary (never an internal bug)."""


def _fail(context: str, message: str) -> None:
    from repro.obs import get_tracer

    get_tracer().incr("guard.validation_rejections")
    prefix = f"{context}: " if context else ""
    raise ValidationError(f"{prefix}{message}")


def require_finite(
    array: np.ndarray, name: str, context: str = ""
) -> np.ndarray:
    """Reject arrays containing NaN or infinity, naming the first offenders.

    Returns the array (as float64) so validators can be chained.
    """
    array = np.asarray(array, dtype=np.float64)
    bad = ~np.isfinite(array)
    if bad.any():
        coords = np.argwhere(bad)
        shown = ", ".join(str(tuple(int(i) for i in c)) for c in coords[:3])
        more = f" (+{len(coords) - 3} more)" if len(coords) > 3 else ""
        _fail(
            context,
            f"{name} contains {len(coords)} non-finite value(s) at "
            f"{shown}{more}; refusing to feed NaN/inf into the solver — "
            "scrub or re-measure the input first",
        )
    return array


def require_positive(value, name: str, context: str = "") -> float:
    """A finite, strictly positive scalar (thresholds, tolerances)."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        _fail(context, f"{name} must be a number, got {value!r}")
    if not np.isfinite(value) or value <= 0:
        _fail(
            context,
            f"{name} must be a finite positive number, got {value!r}",
        )
    return value


def require_int(
    value, name: str, context: str = "", minimum: Optional[int] = None
) -> int:
    """An integer, optionally bounded below (seeds, repetitions, retries)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        _fail(context, f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        _fail(context, f"{name} must be >= {minimum}, got {value}")
    return value


def require_nonempty(seq: Sequence, name: str, context: str = "") -> Sequence:
    """A sequence with at least one element (event lists, seed lists)."""
    if len(seq) == 0:
        _fail(context, f"{name} must not be empty")
    return seq
