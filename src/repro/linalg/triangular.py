"""Triangular solvers by substitution.

These back the QR-based least-squares path.  Row updates are vectorized;
the outer loop is over the (small) triangular dimension only.
"""

from __future__ import annotations

import numpy as np

__all__ = ["solve_lower", "solve_upper"]

_SINGULAR_MSG = "triangular matrix is singular (zero diagonal at index {idx})"


def solve_upper(r: np.ndarray, b: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Solve ``R x = b`` for upper-triangular ``R`` by back substitution.

    Parameters
    ----------
    r:
        An ``(n, n)`` upper-triangular matrix (entries below the diagonal are
        ignored).
    b:
        Right-hand side of length ``n`` or an ``(n, p)`` block.
    tol:
        Diagonal entries with absolute value ``<= tol`` raise
        :class:`numpy.linalg.LinAlgError`; the default 0.0 only rejects exact
        zeros.
    """
    r = np.asarray(r, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = r.shape[0]
    if r.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {r.shape}")
    x = np.array(b, dtype=np.float64, copy=True)
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"rhs shape {x.shape} does not match matrix order {n}")
    for i in range(n - 1, -1, -1):
        diag = r[i, i]
        if abs(diag) <= tol:
            raise np.linalg.LinAlgError(_SINGULAR_MSG.format(idx=i))
        if i + 1 < n:
            # A vector's row update is one ddot, the kernel numpy's matmul
            # also runs for a (1, 1) product, so its bytes do not depend on
            # whether ``b`` came as ``(n,)`` or ``(n, 1)``.
            x[i] -= r[i, i + 1 :] @ x[i + 1 :]
        x[i] /= diag
    return x


def solve_lower(l: np.ndarray, b: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Solve ``L x = b`` for lower-triangular ``L`` by forward substitution."""
    l = np.asarray(l, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = l.shape[0]
    if l.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {l.shape}")
    vec_input = b.ndim == 1
    x = np.array(b, dtype=np.float64, copy=True).reshape(n, -1)
    for i in range(n):
        diag = l[i, i]
        if abs(diag) <= tol:
            raise np.linalg.LinAlgError(_SINGULAR_MSG.format(idx=i))
        if i > 0:
            x[i, :] -= l[i, :i] @ x[:i, :]
        x[i, :] /= diag
    return x.ravel() if vec_input else x
