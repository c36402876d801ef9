"""Unit and property tests for the Householder QR machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.linalg import HouseholderQR, apply_householder, householder_vector


def _matrices(min_rows=1, max_rows=12, min_cols=1, max_cols=8):
    """Strategy producing well-scaled float matrices with m >= n."""

    def build(draw):
        n = draw(st.integers(min_cols, max_cols))
        m = draw(st.integers(max(min_rows, n), max_rows))
        return draw(
            hnp.arrays(
                np.float64,
                (m, n),
                elements=st.floats(-1e3, 1e3, allow_nan=False, width=64),
            )
        )

    return st.composite(lambda draw: build(draw))()


class TestHouseholderVector:
    def test_annihilates_tail(self):
        x = np.array([3.0, 4.0, 0.0, 12.0])
        v, beta, alpha = householder_vector(x)
        y = x.copy().reshape(-1, 1)
        apply_householder(y, v, beta)
        y = y.ravel()
        assert np.allclose(y[1:], 0.0, atol=1e-12)
        assert np.isclose(abs(y[0]), np.linalg.norm(x))
        assert np.isclose(y[0], alpha)

    def test_zero_vector_gives_identity_reflector(self):
        v, beta, alpha = householder_vector(np.zeros(4))
        assert beta == 0.0
        assert alpha == 0.0

    def test_already_aligned_vector(self):
        # x = (a, 0, ..., 0) with a < 0 needs no reflection beyond sign.
        x = np.array([-5.0, 0.0, 0.0])
        v, beta, alpha = householder_vector(x)
        y = x.reshape(-1, 1).copy()
        apply_householder(y, v, beta)
        assert np.allclose(y.ravel()[1:], 0.0)
        assert np.isclose(abs(y.ravel()[0]), 5.0)

    def test_sign_convention_avoids_cancellation(self):
        # alpha must have the opposite sign of x[0].
        x = np.array([1.0, 1e-8])
        _, _, alpha = householder_vector(x)
        assert alpha < 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            householder_vector(np.zeros(0))

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            householder_vector(np.zeros((2, 2)))

    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 20),
            elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
        )
    )
    def test_reflector_is_orthogonal(self, x):
        v, beta, _ = householder_vector(x)
        n = x.size
        h = np.eye(n) - beta * np.outer(v, v)
        assert np.allclose(h @ h.T, np.eye(n), atol=1e-10)

    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 20),
            elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
        )
    )
    def test_reflection_preserves_norm(self, x):
        v, beta, alpha = householder_vector(x)
        y = x.reshape(-1, 1).copy()
        apply_householder(y, v, beta)
        assert np.isclose(np.linalg.norm(y), np.linalg.norm(x), rtol=1e-10)


def _qr_decompose(a, economy=True):
    """``A = Q R`` from :class:`HouseholderQR` stepped to completion.

    ``Q^T`` is formed column by column with :meth:`HouseholderQR.apply_qt`
    on the identity, so the reconstruction checks below cover the stored
    reflectors as well as ``R``.
    """
    m, n = a.shape
    fact = HouseholderQR(a)
    for _ in range(n):
        fact.step()
    q = np.column_stack([fact.apply_qt(e) for e in np.eye(m)]).T
    r = np.triu(fact.a)
    return (q[:, :n], r[:n]) if economy else (q, r)


class TestQRDecompose:
    def test_identity(self):
        q, r = _qr_decompose(np.eye(4))
        assert np.allclose(q @ r, np.eye(4))
        assert np.allclose(np.abs(np.diag(r)), 1.0)

    def test_reconstruction_square(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 6))
        q, r = _qr_decompose(a)
        assert np.allclose(q @ r, a, atol=1e-12)
        assert np.allclose(q.T @ q, np.eye(6), atol=1e-12)
        assert np.allclose(r, np.triu(r))

    def test_reconstruction_tall(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(15, 4))
        q, r = _qr_decompose(a)
        assert q.shape == (15, 4)
        assert r.shape == (4, 4)
        assert np.allclose(q @ r, a, atol=1e-12)

    def test_full_mode(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(7, 3))
        q, r = _qr_decompose(a, economy=False)
        assert q.shape == (7, 7)
        assert r.shape == (7, 3)
        assert np.allclose(q @ r, a, atol=1e-12)
        assert np.allclose(q.T @ q, np.eye(7), atol=1e-12)

    def test_rank_deficient_zero_diagonal(self):
        a = np.column_stack([np.ones(5), 2 * np.ones(5), np.arange(5.0)])
        q, r = _qr_decompose(a)
        assert np.allclose(q @ r, a, atol=1e-12)
        # Second column is a multiple of the first -> tiny second pivot.
        assert abs(r[1, 1]) < 1e-12

    @settings(max_examples=60)
    @given(_matrices())
    def test_property_reconstruction(self, a):
        q, r = _qr_decompose(a)
        assert np.allclose(q @ r, a, atol=1e-8 * max(1.0, np.abs(a).max()))

    @settings(max_examples=60)
    @given(_matrices())
    def test_property_r_upper_triangular(self, a):
        _, r = _qr_decompose(a)
        assert np.allclose(r, np.triu(r))


class TestHouseholderQRIncremental:
    def test_stepwise_matches_oneshot(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(8, 5))
        fact = HouseholderQR(a)
        for _ in range(5):
            fact.step()
        r_inc = fact.r_factor()[:5, :]
        r_ref = np.linalg.qr(a, mode="r")
        # R is unique up to row signs.
        assert np.allclose(np.abs(r_inc), np.abs(r_ref), atol=1e-12)

    def test_swap_columns(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        fact = HouseholderQR(a)
        fact.swap_columns(0, 1)
        assert np.allclose(fact.a, [[2.0, 1.0], [4.0, 3.0]])
        fact.swap_columns(1, 1)  # no-op
        assert np.allclose(fact.a, [[2.0, 1.0], [4.0, 3.0]])

    def test_trailing_norms_shrink_for_dependent_columns(self):
        # Column 1 is 3x column 0: after one step its residual vanishes.
        base = np.array([1.0, 2.0, -1.0, 0.5])
        a = np.column_stack([base, 3 * base, np.array([0.0, 1.0, 0.0, 0.0])])
        fact = HouseholderQR(a)
        fact.step()
        norms = fact.trailing_column_norms()
        assert norms[0] < 1e-12  # the dependent column
        assert norms[1] > 0.1  # the independent one

    def test_apply_qt_consistency(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(9, 4))
        b = rng.normal(size=9)
        fact = HouseholderQR(a)
        for _ in range(4):
            fact.step()
        # Q^T is orthogonal, and Q^T A = R: a vector in the column span
        # maps onto R's leading rows with a zero tail.
        assert np.isclose(np.linalg.norm(fact.apply_qt(b)), np.linalg.norm(b))
        x = rng.normal(size=4)
        y = fact.apply_qt(a @ x)
        assert np.allclose(y[:4], fact.r_factor()[:, :4] @ x, atol=1e-12)
        assert np.allclose(y[4:], 0.0, atol=1e-12)

    def test_step_past_completion_raises(self):
        fact = HouseholderQR(np.eye(2))
        fact.step()
        fact.step()
        with pytest.raises(RuntimeError):
            fact.step()

    def test_does_not_mutate_input(self):
        a = np.ones((3, 3))
        snapshot = a.copy()
        fact = HouseholderQR(a)
        fact.step()
        assert np.array_equal(a, snapshot)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            HouseholderQR(np.ones(3))
