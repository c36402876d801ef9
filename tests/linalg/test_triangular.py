"""Tests for the back-substitution solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import solve_upper


def _well_conditioned_upper(draw):
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    a = rng.uniform(-2.0, 2.0, size=(n, n))
    a = np.triu(a)
    # Push the diagonal away from zero so the system is well conditioned.
    diag_sign = np.where(np.diag(a) >= 0, 1.0, -1.0)
    a[np.diag_indices(n)] = diag_sign * (np.abs(np.diag(a)) + 1.0)
    x = rng.uniform(-5.0, 5.0, size=n)
    return a, x


class TestSolveUpper:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        assert np.allclose(solve_upper(np.eye(3), b), b)

    def test_known_system(self):
        r = np.array([[2.0, 1.0], [0.0, 4.0]])
        x = solve_upper(r, np.array([5.0, 8.0]))
        assert np.allclose(x, [1.5, 2.0])

    def test_matrix_rhs(self):
        r = np.triu(np.array([[3.0, 1.0, 2.0], [0.0, 2.0, -1.0], [0.0, 0.0, 5.0]]))
        b = np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 10.0]])
        x = solve_upper(r, b)
        assert np.allclose(r @ x, b)
        assert x.shape == (3, 2)

    def test_ignores_lower_entries(self):
        r = np.array([[2.0, 1.0], [99.0, 4.0]])
        x = solve_upper(r, np.array([5.0, 8.0]))
        assert np.allclose(x, [1.5, 2.0])

    def test_singular_raises(self):
        r = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            solve_upper(r, np.ones(2))

    def test_tolerance_rejects_tiny_diagonal(self):
        r = np.array([[1.0, 0.0], [0.0, 1e-15]])
        with pytest.raises(np.linalg.LinAlgError):
            solve_upper(r, np.ones(2), tol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            solve_upper(np.zeros((2, 3)), np.ones(2))

    @settings(max_examples=60)
    @given(st.data())
    def test_property_roundtrip(self, data):
        r, x = _well_conditioned_upper(data.draw)
        assert np.allclose(solve_upper(r, r @ x), x, atol=1e-8)
