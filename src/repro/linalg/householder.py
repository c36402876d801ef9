"""Householder reflectors and an incremental QR factorization.

The QRCP algorithms in :mod:`repro.core.qrcp` need a QR that exposes its
internals: after each pivot selection they swap a column into place, compute
a single Householder reflector, and apply it to the *trailing* columns
("Update A using column pivot" in the paper's Algorithm 1/2 listings).  The
:class:`HouseholderQR` class provides exactly that incremental interface;
:func:`qr_decompose` wraps it into a conventional one-shot factorization used
by the least-squares solver and the tests.

All reflector applications are vectorized rank-1 updates
(``A -= beta * v @ (v.T @ A)``); there are no elementwise Python loops.
Each step keeps its reflector as ``(k, v, beta * v)``, so applying ``Q^T``
to a vector is one ``ddot`` and one scaled subtraction per reflector with
no per-solve allocation of ``v``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = [
    "HouseholderQR",
    "apply_householder",
    "householder_vector",
    "qr_decompose",
]


def householder_vector(x: np.ndarray) -> Tuple[np.ndarray, float, float]:
    """Compute a Householder reflector annihilating ``x[1:]``.

    Returns ``(v, beta, alpha)`` such that ``(I - beta * v v^T) x =
    (alpha, 0, ..., 0)`` with ``v[0] == 1``.  Uses the sign convention
    ``alpha = -sign(x[0]) * ||x||`` for numerical stability (no cancellation
    when forming ``v``).

    For a zero (or effectively zero) input the reflector is the identity:
    ``beta == 0``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"expected a non-empty 1-D array, got shape {x.shape}")
    v = x.copy()
    norm_x = float(np.sqrt(np.dot(x, x)))
    if norm_x == 0.0:
        v[:] = 0.0
        v[0] = 1.0
        return v, 0.0, 0.0
    alpha = -norm_x if x[0] >= 0.0 else norm_x
    v0 = x[0] - alpha
    if v0 == 0.0:
        # x is already (alpha, 0, ..., 0): identity reflector.
        v[:] = 0.0
        v[0] = 1.0
        return v, 0.0, float(alpha)
    v /= v0
    v[0] = 1.0
    # beta = 2 / (v^T v); computed directly for clarity and stability.
    beta = 2.0 / float(np.dot(v, v))
    return v, beta, float(alpha)


def apply_householder(a: np.ndarray, v: np.ndarray, beta: float) -> None:
    """Apply the reflector ``(I - beta v v^T)`` to ``a`` in place.

    ``a`` may be a vector or a matrix whose rows match ``v``; the update is a
    single rank-1 BLAS-style operation.
    """
    if beta == 0.0:
        return
    _reflect_block(a if a.ndim == 2 else a.reshape(-1, 1), v, beta * v)


def _reflect_block(a_mat: np.ndarray, v: np.ndarray, bv: np.ndarray) -> None:
    """``a_mat -= (beta v) (v^T a_mat)`` in place, given ``bv = beta * v``."""
    a_mat -= np.outer(bv, v @ a_mat)


class HouseholderQR:
    """Incremental Householder QR over a working copy of a matrix.

    The factorization proceeds column by column under external control: the
    caller (a QRCP driver) inspects the working matrix, optionally swaps a
    pivot column into position ``k``, and calls :meth:`step` to eliminate
    below the diagonal of column ``k`` and update the trailing columns.

    Attributes
    ----------
    a:
        The working matrix; after ``k`` steps its leading ``k`` columns hold
        the R factor rows and the reflector tails are stored below the
        diagonal (standard compact form).
    rank:
        Number of steps performed so far.
    """

    def __init__(self, a: np.ndarray):
        a = np.array(a, dtype=np.float64, copy=True)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {a.shape}")
        self.a = a
        self.m, self.n = a.shape
        self.rank = 0
        # (k, v, beta * v) of every non-identity reflector, in step order.
        self._reflectors: List[Tuple[int, np.ndarray, np.ndarray]] = []

    def swap_columns(self, i: int, j: int) -> None:
        """Swap columns ``i`` and ``j`` of the working matrix."""
        if i == j:
            return
        self.a[:, [i, j]] = self.a[:, [j, i]]

    def trailing_column_norms(self) -> np.ndarray:
        """Norms of the trailing rows (``rank:``) of columns ``rank:``.

        These are the residual norms of the not-yet-chosen columns after
        orthogonalization against the columns chosen so far — the quantity
        both pivoting schemes consult.
        """
        k = self.rank
        tail = self.a[k:, k:]
        if tail.size == 0:
            return np.zeros(self.n - k)
        return np.sqrt(np.einsum("ij,ij->j", tail, tail))

    def step(self) -> float:
        """Eliminate column ``rank`` below its diagonal; update trailing cols.

        Returns the diagonal value ``R[k, k]`` produced by the reflector.
        """
        k = self.rank
        if k >= min(self.m, self.n):
            raise RuntimeError("QR factorization is already complete")
        v, beta, alpha = householder_vector(self.a[k:, k])
        self.a[k, k] = alpha
        self.a[k + 1 :, k] = v[1:]  # store reflector tail in compact form
        if k + 1 < self.n:
            apply_householder(self.a[k:, k + 1 :], v, beta)
        if beta != 0.0:
            self._reflectors.append((k, v, beta * v))
        self.rank += 1
        return float(alpha)

    def r_factor(self) -> np.ndarray:
        """Upper-triangular R restricted to the ``rank`` processed columns."""
        k = self.rank
        return np.triu(self.a[:k, :])

    def apply_qt(self, b: np.ndarray) -> np.ndarray:
        """Apply ``Q^T`` (product of performed reflectors) to a vector ``b``.

        ``b`` has length ``m``; a new array is returned.  Each reflector
        costs one ``np.dot``: the same ``ddot`` numpy's matmul dispatches to
        for a ``(1, 1)`` product, so the result is bit-identical to
        reflecting ``b`` as an ``(m, 1)`` column.  A block of columns
        reflected at once would go through ``gemv``, which is not bitwise
        equal to reflecting them one at a time.
        """
        y = np.array(b, dtype=np.float64, copy=True)
        if y.shape != (self.m,):
            raise ValueError(f"rhs shape {y.shape} is not ({self.m},)")
        for k, v, bv in self._reflectors:
            tail = y[k:]
            tail -= bv * np.dot(v, tail)
        return y


def qr_decompose(
    a: np.ndarray, economy: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """One-shot QR factorization ``A = Q R`` built on :class:`HouseholderQR`.

    Parameters
    ----------
    a:
        An ``(m, n)`` matrix with ``m >= n`` (tall or square).
    economy:
        If true (default) return the thin factors ``Q (m, n)``, ``R (n, n)``;
        otherwise the full ``Q (m, m)``, ``R (m, n)``.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    if m < n:
        raise ValueError(f"qr_decompose requires m >= n, got shape {a.shape}")
    fact = HouseholderQR(a)
    for _ in range(n):
        fact.step()
    # Form Q by applying the reflectors to the identity: Q = H_1 ... H_n I.
    q_cols = n if economy else m
    q = np.eye(m, q_cols)
    for k, v, bv in reversed(fact._reflectors):
        _reflect_block(q[k:, :], v, bv)
    r_full = np.triu(fact.a)
    r = r_full[:n, :n] if economy else r_full
    return q, r
