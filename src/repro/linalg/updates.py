"""Rank-one column updates of a QR factorization (the ``repro.incr`` core).

A registry edit changes one column of the measurement matrix, yet the
pipeline re-factorizes from scratch: O(m n^2) Householder work to absorb a
single-column change.  The classic alternative (Golub & Van Loan 12.5,
Daniel/Gragg/Kaufman/Stewart) updates the existing factors with Givens
rotations in O(m^2 + m n): this module implements it as
:class:`UpdatableQR`, a QR of a tall matrix that supports inserting,
deleting, and replacing columns in place.

Where the one-shot :class:`~repro.linalg.householder.HouseholderQR` keeps
compact reflectors, :class:`UpdatableQR` carries an *explicit* orthogonal
``Q (m, m)`` and ``R (m, n)`` — rotations compose into them directly and
``Q^T b`` is a matmul.  The memory trade (m^2 floats) is right for the
pipeline's shapes (m is the expectation-basis dimension, tens of rows).

Column insertion at position ``j``: with ``w = Q^T a`` spliced in as the
new column, rotations ``G(k-1, k)`` for ``k = m-1 .. j+1`` zero the spike
below row ``j``.  Each rotation can only fill the diagonal of a
right-shifted column (its row index grew by one), so the triangle
survives.  Deletion at ``j`` leaves the trailing block upper Hessenberg;
rotations ``G(k, k+1)`` for ``k = j .. n-2`` restore it.  Replacement is
delete + insert.

Numerics and the guard contract: each update is backward stable but the
factors drift away from a from-scratch factorization in the last ulps,
and repeated updates of a near-singular matrix can lose orthogonality.
:meth:`UpdatableQR.lstsq` therefore carries the same conditioning
sentinel as :func:`~repro.linalg.lstsq.lstsq_qr`: every updated solve is
stamped with the ``incr-rank-one-update`` guard rung (an updated result
is *certified*, never silently passed off as a from-scratch one), and
when the sentinel fires — condition estimate or rank gap past the
:class:`~repro.guard.health.GuardConfig` thresholds — the solve falls
back to a full re-factorization of the tracked matrix via ``lstsq_qr``,
bit-identical to the from-scratch path, stamped ``incr-refactorized``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.linalg.householder import qr_decompose
from repro.linalg.lstsq import LstsqResult, default_rcond, lstsq_qr
from repro.linalg.norms import backward_error, vector_norm
from repro.linalg.triangular import solve_upper
from repro.obs import get_tracer

if TYPE_CHECKING:
    from repro.guard.health import GuardConfig

__all__ = ["UpdatableQR", "givens_rotation"]


def givens_rotation(a: float, b: float) -> Tuple[float, float]:
    """``(c, s)`` with ``c*a + s*b = r`` and ``-s*a + c*b = 0``.

    The textbook construction via ``hypot`` (no overflow for large
    entries); ``b == 0`` yields the identity rotation.
    """
    if b == 0.0:
        return 1.0, 0.0
    r = float(np.hypot(a, b))
    return a / r, b / r


class UpdatableQR:
    """QR factorization of a tall matrix supporting rank-one column edits.

    Attributes
    ----------
    q:
        Explicit orthogonal factor, shape ``(m, m)``.
    r:
        Upper-triangular (in its leading ``n`` rows) factor, ``(m, n)``.
    a:
        The tracked matrix the factors currently represent; kept so the
        guarded solve can fall back to a from-scratch factorization.
    updates:
        Number of column edits absorbed since construction; a solve off
        an updated factorization is guard-stamped, one off a pristine
        factorization is not.
    """

    def __init__(self, a: np.ndarray):
        a = np.array(a, dtype=np.float64, copy=True)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
        m, n = a.shape
        if m < n:
            raise ValueError(
                f"UpdatableQR requires m >= n, got shape {a.shape}"
            )
        self.q, r_thin = qr_decompose(a, economy=False)
        self.r = r_thin
        self.a = a
        self.updates = 0

    @property
    def m(self) -> int:
        return self.q.shape[0]

    @property
    def n(self) -> int:
        return self.r.shape[1]

    # -- rotations -------------------------------------------------------
    def _rotate(self, i: int, k: int, c: float, s: float, col0: int) -> None:
        """Apply ``G(i, k)`` to rows of R (columns ``col0:``) and fold its
        transpose into the columns of Q (``A = (Q G^T)(G R)``)."""
        ri, rk = self.r[i, col0:].copy(), self.r[k, col0:].copy()
        self.r[i, col0:] = c * ri + s * rk
        self.r[k, col0:] = -s * ri + c * rk
        qi, qk = self.q[:, i].copy(), self.q[:, k].copy()
        self.q[:, i] = c * qi + s * qk
        self.q[:, k] = -s * qi + c * qk

    # -- column edits ----------------------------------------------------
    def _note_update(self) -> None:
        self.updates += 1
        get_tracer().incr("incr.qr_updates")

    def insert_column(self, j: int, column: np.ndarray) -> None:
        """Insert ``column`` so it becomes column ``j`` of the matrix."""
        self._insert_column(j, column)
        self._note_update()

    def _insert_column(self, j: int, column: np.ndarray) -> None:
        m, n = self.m, self.n
        if not 0 <= j <= n:
            raise IndexError(f"insert position {j} out of range [0, {n}]")
        if n + 1 > m:
            raise ValueError(
                f"inserting a column would make the matrix wide "
                f"({m}x{n + 1}); UpdatableQR requires m >= n"
            )
        column = np.asarray(column, dtype=np.float64)
        if column.shape != (m,):
            raise ValueError(
                f"column shape {column.shape} does not match matrix rows {m}"
            )
        w = self.q.T @ column
        r_new = np.empty((m, n + 1))
        r_new[:, :j] = self.r[:, :j]
        r_new[:, j] = w
        r_new[:, j + 1 :] = self.r[:, j:]
        self.r = r_new
        # Zero the spike below row j, bottom up; each rotation touches
        # only columns j: (everything to the left is zero in rows >= j).
        for k in range(m - 1, j, -1):
            a_, b_ = self.r[k - 1, j], self.r[k, j]
            if b_ == 0.0:
                continue
            c, s = givens_rotation(a_, b_)
            self._rotate(k - 1, k, c, s, j)
            self.r[k, j] = 0.0  # exact zero: the rotation was built for it
        self.a = np.insert(self.a, j, column, axis=1)

    def delete_column(self, j: int) -> None:
        """Remove column ``j`` of the matrix."""
        self._delete_column(j)
        self._note_update()

    def _delete_column(self, j: int) -> None:
        n = self.n
        if not 0 <= j < n:
            raise IndexError(f"column {j} out of range [0, {n})")
        self.r = np.delete(self.r, j, axis=1)
        # The trailing block is upper Hessenberg; chase the subdiagonal.
        for k in range(j, n - 1):
            a_, b_ = self.r[k, k], self.r[k + 1, k]
            if b_ == 0.0:
                continue
            c, s = givens_rotation(a_, b_)
            self._rotate(k, k + 1, c, s, k)
            self.r[k + 1, k] = 0.0
        self.a = np.delete(self.a, j, axis=1)

    def replace_column(self, j: int, column: np.ndarray) -> None:
        """Replace column ``j`` of the matrix with ``column``."""
        n = self.n
        if not 0 <= j < n:
            raise IndexError(f"column {j} out of range [0, {n})")
        self._delete_column(j)
        self._insert_column(j, column)
        self._note_update()

    # -- solves ----------------------------------------------------------
    def _solve(
        self, b: np.ndarray, rcond: float
    ) -> Tuple[np.ndarray, int, np.ndarray]:
        """Mirror of ``LstsqFactor.solve`` off the maintained factors:
        diagonal rank truncation, recursive sub-solve when deficient."""
        n = self.n
        qtb = self.q.T @ b
        r = np.triu(self.r[:n, :])
        diag = np.abs(np.diag(r))
        threshold = rcond * (diag.max() if diag.size else 0.0)
        keep = diag > threshold
        rank = int(keep.sum())
        x = np.zeros(n)
        if rank == n:
            x = solve_upper(r, qtb[:n])
        elif rank > 0:
            idx = np.flatnonzero(keep)
            sub = lstsq_qr(r[:, idx], qtb[:n], rcond=rcond)
            x[idx] = sub.x
        return x, rank, r

    def lstsq(
        self,
        b: np.ndarray,
        rcond: Optional[float] = None,
        guard: Optional["GuardConfig"] = None,
    ) -> LstsqResult:
        """Guard-certified least squares off the updated factorization.

        Semantics match :func:`~repro.linalg.lstsq.lstsq_qr` with one
        addition: when this factorization has absorbed column edits the
        result's health carries the ``incr-rank-one-update`` rung — an
        incremental answer is always identifiable as one.  A sentinel
        firing (condition estimate or rank gap past the guard
        thresholds) abandons the updated factors entirely: the solve
        re-factorizes ``self.a`` from scratch through ``lstsq_qr``
        (bit-identical to the non-incremental path) and records
        ``incr-refactorized``.
        """
        b = np.asarray(b, dtype=np.float64)
        m, n = self.m, self.n
        if b.shape != (m,):
            raise ValueError(
                f"rhs shape {b.shape} does not match matrix rows {m}"
            )
        if rcond is None:
            rcond = default_rcond(m, n)
        x, rank, r = self._solve(b, rcond)

        health = None
        if guard is not None and guard.enabled:
            from dataclasses import replace as _replace

            from repro.guard.health import triangular_health

            health = triangular_health(
                r, original=self.a, refine_iterations=guard.refine_iterations
            )
            if not health.ok(guard):
                # Sentinel fired: do not trust drifted factors near the
                # thresholds — hand the whole problem back to the
                # from-scratch guarded solve.
                get_tracer().incr("incr.qr_fallbacks")
                full = lstsq_qr(self.a, b, rcond=rcond, guard=guard)
                full_health = full.health
                if full_health is not None:
                    full_health = _replace(
                        full_health,
                        guards_fired=("incr-refactorized",)
                        + full_health.guards_fired,
                    )
                return LstsqResult(
                    x=full.x,
                    residual_norm=full.residual_norm,
                    relative_residual=full.relative_residual,
                    backward_error=full.backward_error,
                    rank=full.rank,
                    health=full_health,
                )
            if self.updates > 0:
                health = _replace(
                    health,
                    guards_fired=health.guards_fired
                    + ("incr-rank-one-update",),
                )

        resid = vector_norm(self.a @ x - b)
        b_norm = vector_norm(b)
        rel = 0.0 if b_norm == 0.0 else resid / b_norm
        bwd = backward_error(self.a, x, b)
        if health is not None:
            from dataclasses import replace as _replace

            health = _replace(health, residual_bound=bwd)
        return LstsqResult(
            x=x,
            residual_norm=resid,
            relative_residual=rel,
            backward_error=bwd,
            rank=rank,
            health=health,
        )

    def __repr__(self) -> str:
        return (
            f"UpdatableQR({self.m}x{self.n}, {self.updates} update(s))"
        )
