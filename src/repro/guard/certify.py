"""Trusted-metric certification: leave-one-kernel-out cross-validation.

A composed metric definition is a least-squares fit over the selected
events' representations.  The fit can look confident — tiny backward
error, tidy coefficients — while actually balancing on a knife edge: a
near-rank-deficient selection lets wildly different coefficient vectors
produce almost the same residual, so the definition would not survive a
change of calibration data.  The certification stage measures exactly
that survival: drop one benchmark kernel row at a time, re-derive the
selected events' representations from the reduced expectation basis,
re-fit the metric, and compare.  The folds depend only on the basis and
the selection, so :class:`HoldoutFolds` factorizes each one once per
analysis and every metric costs one small solve per fold.

A definition whose coefficients and backward error are stable across all
holdouts earns ``certified``; visible-but-bounded movement earns
``caution`` (use with care, the reasons say why); instability beyond the
reject threshold — or non-finite arithmetic anywhere — earns ``reject``.
Note this certifies the *definition and its error estimate*, not metric
goodness: a metric whose error is honestly 1.0 on every holdout (the
signature is orthogonal to everything measurable) is certified — the
pipeline's claim about it is trustworthy, which is the property
downstream consumers need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.guard.health import GuardConfig
from repro.linalg.lstsq import LstsqFactor, LstsqResult

__all__ = ["HoldoutFolds", "TrustScore", "certify_metric"]

#: Trust levels, best to worst.
TRUST_LEVELS = ("certified", "caution", "reject")


@dataclass(frozen=True)
class TrustScore:
    """Machine-checkable trust stamp for one composed metric.

    Attributes
    ----------
    level:
        ``certified`` / ``caution`` / ``reject``.
    reasons:
        Why the level is not ``certified`` (empty when it is).
    coefficient_spread:
        Max over holdouts of the inf-norm coefficient deviation from the
        full fit, relative to ``max(||y||_inf, 1)``.
    error_spread:
        Max over holdouts of ``|error_holdout - error_full|``.
    n_holdouts:
        Leave-one-kernel-out refits actually performed.
    n_skipped:
        Holdouts skipped because removing the kernel row left the
        expectation basis rank-deficient (the fold is uninformative: no
        definition could be recalibrated without that kernel, so it says
        nothing about this one's stability).
    suspect_events:
        Events whose coefficients moved the most across holdouts
        (populated for caution/reject; what a strict-mode error names).
    """

    level: str
    reasons: Tuple[str, ...] = ()
    coefficient_spread: float = 0.0
    error_spread: float = 0.0
    n_holdouts: int = 0
    n_skipped: int = 0
    suspect_events: Tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        return self.level == "certified"

    def describe(self) -> str:
        tail = f" ({'; '.join(self.reasons)})" if self.reasons else ""
        return f"{self.level}{tail}"


def _holdout_rows(n_rows: int, max_holdouts: int) -> np.ndarray:
    """Evenly spaced kernel-row indices to hold out (all of them when the
    benchmark is small enough)."""
    if n_rows <= max_holdouts:
        return np.arange(n_rows)
    return np.unique(
        np.linspace(0, n_rows - 1, max_holdouts).round().astype(int)
    )


class HoldoutFolds:
    """The leave-one-kernel-out folds of one analysis, factorized once.

    Per held-out kernel row: one factorization of the reduced basis (its
    rank decides identifiability), one solve per selected event, and one
    factorization of the resulting ``X-hat``.  Folds are built on first
    use, in holdout order; a failed build is re-raised by every
    :meth:`refit` of that fold.
    """

    def __init__(
        self,
        basis_matrix: np.ndarray,
        selected_measurements: np.ndarray,
        holdouts: int,
        rcond: Optional[float] = None,
    ):
        self.basis = np.asarray(basis_matrix, dtype=np.float64)
        self.measurements = np.asarray(selected_measurements, dtype=np.float64)
        self.rows = _holdout_rows(self.basis.shape[0], holdouts)
        self.rcond = rcond
        self._x_hats: Dict[int, Union[LstsqFactor, Exception, None]] = {}

    def identifiable(self, i: int) -> bool:
        """Whether ``E`` without kernel row ``i`` keeps full column rank
        *to this solver* (the same QR + truncation rule the refits use)."""
        if i not in self._x_hats:
            self._x_hats[i] = self._build(i)
        return self._x_hats[i] is not None

    def _build(self, i: int) -> Union[LstsqFactor, Exception, None]:
        keep = np.arange(self.basis.shape[0]) != i
        basis = LstsqFactor(self.basis[keep], self.rcond)
        # ||E[keep]||_2 first (the event solves need it anyway): a non-finite
        # basis fails in the SVD instead of reading as rank 0 and skipping.
        basis.norm
        if basis.rank < self.basis.shape[1]:
            return None
        m_keep = self.measurements[keep]
        try:
            x_hat = np.column_stack(
                [basis.solve(m_keep[:, j]).x for j in range(m_keep.shape[1])]
            )
            return LstsqFactor(x_hat, self.rcond)
        except (ValueError, np.linalg.LinAlgError) as exc:
            return exc

    def refit(self, i: int, coords: np.ndarray) -> LstsqResult:
        """The metric refit over identifiable fold ``i``."""
        x_hat = self._x_hats[i]
        if isinstance(x_hat, Exception):
            raise x_hat
        return x_hat.solve(coords)


def certify_metric(
    metric_name: str,
    folds: HoldoutFolds,
    signature_coords: np.ndarray,
    event_names: Sequence[str],
    full_coefficients: np.ndarray,
    full_error: float,
    config: GuardConfig = GuardConfig(),
    degraded: bool = False,
    guards_fired: Sequence[str] = (),
) -> TrustScore:
    """Cross-validate one metric definition on held-out kernels.

    Parameters
    ----------
    folds:
        The analysis' :class:`HoldoutFolds`: the expectation basis ``E``
        and the QRCP-selected events' measurement columns, in
        ``event_names`` order.
    signature_coords:
        The metric's signature in expectation coordinates.
    full_coefficients / full_error:
        The production fit being certified (computed over all rows).
    degraded / guards_fired:
        Upstream caveats folded into the verdict: a fault-degraded
        selection or a fired conditioning guard caps the level at
        ``caution`` even if the holdout spreads are clean.
    """
    coords = np.asarray(signature_coords, dtype=np.float64)
    y_full = np.asarray(full_coefficients, dtype=np.float64)
    n_rows, n_dims = folds.basis.shape

    reasons: List[str] = []
    if not np.isfinite(y_full).all() or not np.isfinite(full_error):
        return TrustScore(
            level="reject",
            reasons=("fit produced non-finite coefficients or error",),
            suspect_events=tuple(event_names),
        )
    if folds.measurements.shape[1] == 0:
        # Nothing was selected; the (empty) definition is vacuously exact
        # and there is nothing to cross-validate.
        return TrustScore(level="certified", n_holdouts=0)
    if n_rows - 1 < n_dims:
        return TrustScore(
            level="caution",
            reasons=(
                f"cannot cross-validate: holding out a kernel leaves "
                f"{n_rows - 1} rows for {n_dims} basis dimensions",
            ),
        )

    scale = max(float(np.abs(y_full).max()), 1.0)
    coeff_spread = 0.0
    error_spread = 0.0
    per_event_dev = np.zeros(len(event_names))
    skipped = 0
    performed = 0
    for i in folds.rows:
        if not folds.identifiable(i):
            # Removing this kernel collapses a basis dimension (the
            # kernel is the sole witness of some ideal event): the fold
            # cannot recalibrate *any* definition, so it carries no
            # stability evidence about this one.
            skipped += 1
            continue
        performed += 1
        try:
            fit = folds.refit(i, coords)
        except (ValueError, np.linalg.LinAlgError) as exc:
            return TrustScore(
                level="reject",
                reasons=(f"holdout refit without kernel row {i} failed: {exc}",),
                n_holdouts=performed,
                n_skipped=skipped,
                suspect_events=tuple(event_names),
            )
        y_i, err_i = fit.x, fit.backward_error
        if not np.isfinite(y_i).all() or not np.isfinite(err_i):
            return TrustScore(
                level="reject",
                reasons=(
                    f"holdout refit without kernel row {i} produced "
                    "non-finite values",
                ),
                n_holdouts=performed,
                n_skipped=skipped,
                suspect_events=tuple(event_names),
            )
        dev = np.abs(y_i - y_full)
        per_event_dev = np.maximum(per_event_dev, dev)
        coeff_spread = max(coeff_spread, float(dev.max()) / scale)
        error_spread = max(error_spread, abs(err_i - full_error))

    if performed == 0:
        return TrustScore(
            level="caution",
            reasons=(
                "cannot cross-validate: every holdout fold leaves the "
                "expectation basis rank-deficient",
            ),
            n_skipped=skipped,
        )

    suspects: Tuple[str, ...] = ()
    if coeff_spread > config.certify_coeff_tol:
        worst = np.argsort(per_event_dev)[::-1]
        suspects = tuple(
            event_names[int(j)]
            for j in worst
            if per_event_dev[int(j)] / scale > config.certify_coeff_tol
        )
        reasons.append(
            f"coefficient spread {coeff_spread:.2e} across {performed} "
            f"leave-one-kernel-out refits exceeds "
            f"{config.certify_coeff_tol:g}"
        )
    if error_spread > config.certify_error_tol:
        reasons.append(
            f"backward-error spread {error_spread:.2e} across holdouts "
            f"exceeds {config.certify_error_tol:g}"
        )
    if degraded:
        reasons.append("composed over a fault-degraded selection")
    for guard in guards_fired:
        reasons.append(f"conditioning guard fired: {guard}")

    if coeff_spread > config.reject_coeff_tol:
        level = "reject"
        reasons.insert(
            0,
            f"coefficient spread {coeff_spread:.2e} exceeds the reject "
            f"threshold {config.reject_coeff_tol:g}: the definition does "
            "not survive recalibration",
        )
    elif reasons:
        level = "caution"
    else:
        level = "certified"
    return TrustScore(
        level=level,
        reasons=tuple(reasons),
        coefficient_spread=coeff_spread,
        error_spread=error_spread,
        n_holdouts=performed,
        n_skipped=skipped,
        suspect_events=suspects,
    )
