"""Tests for norms and the Equation-5 backward-error helper."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.linalg.norms import (
    backward_error,
    spectral_norm,
    vector_norm,
)


class TestVectorNorm:
    def test_pythagorean(self):
        assert vector_norm(np.array([3.0, 4.0])) == 5.0

    def test_zero(self):
        assert vector_norm(np.zeros(7)) == 0.0

    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 30),
            elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
        )
    )
    def test_matches_numpy(self, x):
        assert np.isclose(vector_norm(x), np.linalg.norm(x), rtol=1e-12, atol=1e-300)


class TestMatrixNorms:
    def test_spectral_of_diagonal(self):
        assert np.isclose(spectral_norm(np.diag([1.0, -7.0, 3.0])), 7.0)

    def test_spectral_empty(self):
        assert spectral_norm(np.zeros((0, 3))) == 0.0

    @settings(max_examples=40)
    @given(st.integers(0, 10_000))
    def test_spectral_le_frobenius(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(5, 4))
        assert spectral_norm(a) <= np.linalg.norm(a, "fro") + 1e-12

    @settings(max_examples=40)
    @given(st.integers(0, 10_000))
    def test_spectral_is_operator_norm(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(6, 3))
        s = spectral_norm(a)
        for _ in range(5):
            x = rng.normal(size=3)
            assert np.linalg.norm(a @ x) <= s * np.linalg.norm(x) + 1e-10


class TestBackwardErrorHelper:
    def test_exact_solution_is_zero(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        y = np.array([3.0, 0.5])
        s = a @ y
        assert backward_error(a, y, s) < 1e-15

    def test_scale_invariance(self):
        # Scaling A, y, s together by c leaves the backward error unchanged.
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 2))
        y = rng.normal(size=2)
        s = rng.normal(size=5)
        e1 = backward_error(a, y, s)
        e2 = backward_error(10.0 * a, y, 10.0 * s)
        assert np.isclose(e1, e2, rtol=1e-10)

    def test_zero_solution_against_nonzero_signature(self):
        a = np.ones((3, 1))
        assert np.isclose(backward_error(a, np.zeros(1), np.array([0.0, 1.0, 0.0])), 1.0)
