"""Vector and matrix norms, and the paper's backward-error fitness measure.

The backward error (paper Equation 5) is the quantity the paper uses to
decide whether a metric *can* be composed from the raw events available on an
architecture: values near machine epsilon certify an exact composition,
while a value of 1.0 certifies that the signature lies entirely outside the
span of the chosen events (e.g. "Conditional Branches Executed" on Sapphire
Rapids, paper Table VII).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "backward_error",
    "spectral_norm",
    "vector_norm",
]


def vector_norm(x: np.ndarray) -> float:
    """Euclidean norm of a vector, as a Python float."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sqrt(np.dot(x.ravel(), x.ravel())))


def spectral_norm(a: np.ndarray) -> float:
    """Spectral norm (largest singular value) of a matrix.

    Uses an SVD restricted to singular values only; the matrices in this
    pipeline are tiny (tens of rows/columns), so the cubic cost is
    irrelevant, but we still avoid forming singular vectors.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def backward_error(a: np.ndarray, y: np.ndarray, s: np.ndarray) -> float:
    """Backward error of a least-squares solution (paper Equation 5).

    ``||A @ y - s||_2 / (||A||_2 * ||y||_2 + ||s||_2)``

    Parameters
    ----------
    a:
        The matrix of chosen event representations (paper: ``X-hat``).
    y:
        The least-squares solution (event coefficients).
    s:
        The metric signature being composed.

    Returns
    -------
    float
        A value in ``[0, 1]`` (up to rounding); near-zero means the
        combination reproduces the signature, 1.0 means the signature is
        orthogonal to everything the events can express.
    """
    a = np.asarray(a, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    residual = vector_norm(a @ y - s)
    denom = spectral_norm(a) * vector_norm(y) + vector_norm(s)
    if denom == 0.0:
        # Both the signature and the solution are zero: the (trivial)
        # composition is exact.
        return 0.0
    return residual / denom
