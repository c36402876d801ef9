"""Tests for the QR-based least-squares solver and Equation-5 backward error."""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guard.health import GuardConfig, triangular_health
from repro.linalg import (
    HouseholderQR,
    LstsqFactor,
    LstsqResult,
    apply_householder,
    backward_error,
    default_rcond,
    householder_vector,
    lstsq_qr,
    solve_upper,
)
from repro.linalg.norms import vector_norm


# -- reference: the solver as it was before LstsqFactor ------------------
# One fresh factorization per call, including inside the rank-deficient
# sub-solve and every refinement step.  LstsqFactor and the certification
# folds built on it must reproduce these bytes exactly.  The kernels are
# copies too: a factorization that logs only ``beta`` per step, ``Q^T b``
# rebuilt from the compact storage reflector by reflector and applied as an
# ``(m, 1)`` column, and back substitution on an ``(n, 1)`` column.


def _parent_factor(a):
    """``(compact a, betas)`` after a full Householder QR of ``a``."""
    a = np.array(a, dtype=np.float64, copy=True)
    n = a.shape[1]
    betas = []
    for k in range(n):
        v, beta, alpha = householder_vector(a[k:, k])
        a[k, k] = alpha
        a[k + 1 :, k] = v[1:]
        if k + 1 < n:
            apply_householder(a[k:, k + 1 :], v, beta)
        betas.append(beta)
    return a, betas


def _parent_apply_qt(compact, betas, b):
    m = compact.shape[0]
    b_mat = np.array(b, dtype=np.float64, copy=True).reshape(m, -1)
    for k, beta in enumerate(betas):
        if beta == 0.0:
            continue
        v = np.empty(m - k)
        v[0] = 1.0
        v[1:] = compact[k + 1 :, k]
        w = v @ b_mat[k:, :]
        b_mat[k:, :] -= np.outer(beta * v, w)
    return b_mat.ravel()


def _parent_solve_upper(r, b):
    n = r.shape[0]
    x = np.array(b, dtype=np.float64, copy=True).reshape(n, -1)
    for i in range(n - 1, -1, -1):
        diag = r[i, i]
        if abs(diag) <= 0.0:
            raise np.linalg.LinAlgError(f"zero diagonal at index {i}")
        if i + 1 < n:
            x[i, :] -= r[i, i + 1 :] @ x[i + 1 :, :]
        x[i, :] /= diag
    return x.ravel()


def _parent_qr_solve(a, b, rcond):
    m, n = a.shape
    compact, betas = _parent_factor(a)
    qtb = _parent_apply_qt(compact, betas, b)
    r = np.triu(compact[:n, :])
    diag = np.abs(np.diag(r))
    threshold = rcond * (diag.max() if diag.size else 0.0)
    keep = diag > threshold
    rank = int(keep.sum())
    x = np.zeros(n)
    if rank == n:
        x = _parent_solve_upper(r, qtb[:n])
    elif rank > 0:
        idx = np.flatnonzero(keep)
        x[idx] = parent_lstsq_qr(r[:, idx], qtb[:n], rcond=rcond).x
    return x, rank, r


def _parent_refine(a, b, x, solve_residual, dtype):
    residual = b.astype(dtype) - a.astype(dtype) @ x.astype(dtype)
    dx = solve_residual(np.asarray(residual, dtype=np.float64))
    return np.asarray(x.astype(dtype) + dx.astype(dtype), dtype=np.float64)


def _parent_fallback_ladder(a, b, x0, rcond, guard, health):
    fired = list(health.guards_fired)
    norms = np.sqrt(np.einsum("ij,ij->j", a, a))
    scale = np.where(norms > 0.0, norms, 1.0)
    a_scaled = a / scale
    fired.append("column-scaling")
    z, _, r_scaled = _parent_qr_solve(a_scaled, b, rcond)
    x = z / scale

    def solve_residual(res):
        return _parent_qr_solve(a_scaled, res, rcond)[0] / scale

    iterations = 0
    for _ in range(guard.max_refinements):
        fired.append("iterative-refinement-float64")
        x = _parent_refine(a, b, x, solve_residual, np.float64)
        iterations += 1
        fired.append("iterative-refinement-longdouble")
        x = _parent_refine(a, b, x, solve_residual, np.longdouble)
        iterations += 1
    if backward_error(a, x, b) > backward_error(a, x0, b):
        x = x0
        fired.append("fallback-discarded")
    scaled_health = triangular_health(
        r_scaled, original=a_scaled, refine_iterations=guard.refine_iterations
    )
    return x, replace(
        health,
        rank_gap=max(health.rank_gap, scaled_health.rank_gap),
        suspect_columns=tuple(
            sorted(set(health.suspect_columns) | set(scaled_health.suspect_columns))
        ),
        refinement_iterations=iterations,
        guards_fired=tuple(fired),
    )


def parent_lstsq_qr(a, b, rcond=None, guard=None):
    """The pre-LstsqFactor ``lstsq_qr``, kept as a byte-level reference."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError(f"rhs shape {b.shape} does not match matrix rows {m}")
    if m < n:
        raise ValueError(
            f"lstsq_qr requires m >= n (got {a.shape}); the pipeline never "
            "produces underdetermined systems"
        )
    if rcond is None:
        rcond = default_rcond(m, n)
    if n == 0:
        res = vector_norm(b)
        return LstsqResult(
            x=np.zeros(0),
            residual_norm=res,
            relative_residual=0.0 if res == 0.0 else 1.0,
            backward_error=0.0 if res == 0.0 else 1.0,
            rank=0,
        )
    x, rank, r = _parent_qr_solve(a, b, rcond)
    health = None
    if guard is not None and guard.enabled:
        health = triangular_health(
            r, original=a, refine_iterations=guard.refine_iterations
        )
        if health.condition_estimate > guard.condition_threshold:
            x, health = _parent_fallback_ladder(a, b, x, rcond, guard, health)
    resid = vector_norm(a @ x - b)
    b_norm = vector_norm(b)
    bwd = backward_error(a, x, b)
    if health is not None:
        health = replace(health, residual_bound=bwd)
    return LstsqResult(
        x=x,
        residual_norm=resid,
        relative_residual=0.0 if b_norm == 0.0 else resid / b_norm,
        backward_error=bwd,
        rank=rank,
        health=health,
    )


def assert_same_bytes(res, ref):
    """Field-by-field byte equality of two :class:`LstsqResult`."""
    assert res.x.dtype == ref.x.dtype and res.x.shape == ref.x.shape
    assert res.x.tobytes() == ref.x.tobytes()
    for field in ("residual_norm", "relative_residual", "backward_error"):
        got, want = getattr(res, field), getattr(ref, field)
        assert type(got) is type(want), field
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), field
    assert res.rank == ref.rank
    assert pickle.dumps(res.health) == pickle.dumps(ref.health)


def _ill_conditioned(seed=0):
    """Columns of wildly different scale that are nearly dependent: the
    sentinel fires and the whole fallback ladder runs."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(12, 3))
    a = np.column_stack(
        [base[:, 0] * 1e6, base[:, 0] * 1e-3 + 1e-9 * base[:, 1], base[:, 2]]
    )
    return a, rng.normal(size=12)


class TestLstsqFactor:
    """``LstsqFactor(a).solve(b)`` is the old ``lstsq_qr(a, b)``, byte for
    byte, and one factor serves any number of right-hand sides."""

    RNG = np.random.default_rng(7)
    FULL = RNG.normal(size=(9, 4))
    DEFICIENT = np.column_stack([FULL[:, :3], FULL[:, 1]])
    B = RNG.normal(size=9)

    @pytest.mark.parametrize(
        "a, b, rcond",
        [
            pytest.param(FULL, B, None, id="full-rank"),
            pytest.param(DEFICIENT, B, None, id="duplicated-column"),
            pytest.param(np.zeros((9, 0)), B, None, id="n-zero"),
            pytest.param(FULL, np.zeros(9), None, id="zero-rhs"),
            pytest.param(DEFICIENT, np.zeros(9), None, id="deficient-zero-rhs"),
            pytest.param(FULL, B, 1e-3, id="rcond"),
            pytest.param(FULL * [1, 1, 1e-5, 1], B, 1e-3, id="rcond-truncates"),
        ],
    )
    def test_solve_matches_parent_lstsq(self, a, b, rcond):
        ref = parent_lstsq_qr(a, b, rcond=rcond)
        assert_same_bytes(LstsqFactor(a, rcond).solve(b), ref)
        assert_same_bytes(lstsq_qr(a, b, rcond=rcond), ref)

    def test_truncated_columns_solve_to_zero(self):
        factor = LstsqFactor(self.DEFICIENT)
        assert factor.rank == 3
        assert factor.solve(self.B).x[3] == 0.0
        factor = LstsqFactor(self.FULL * [1, 1, 1e-5, 1], rcond=1e-3)
        assert factor.rank == 3
        assert factor.solve(self.B).x[2] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.permutations(range(4)))
    def test_solves_are_independent_of_order(self, seed, order):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(8, 3))
        if seed % 2:
            a[:, 2] = a[:, 0]
        bs = [rng.normal(size=8), np.zeros(8), rng.normal(size=8), a[:, 0]]
        factor = LstsqFactor(a)
        results = {j: factor.solve(bs[j]) for j in order}
        for j, b in enumerate(bs):
            assert_same_bytes(results[j], parent_lstsq_qr(a, b))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_guarded_ladder_matches_parent(self, seed):
        a, b = _ill_conditioned(seed)
        guard = GuardConfig(condition_threshold=1e3)
        res = lstsq_qr(a, b, guard=guard)
        ref = parent_lstsq_qr(a, b, guard=guard)
        assert "column-scaling" in res.health.guards_fired
        assert res.health.refinement_iterations > 0
        assert res.health.guards_fired == ref.health.guards_fired
        assert_same_bytes(res, ref)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(["full", "deficient", "square"]))
    def test_random_solves_match_parent_bytes(self, seed, kind):
        # Full rank runs the 1-D kernels once; a duplicated column runs
        # them again inside the rank-deficient sub-factor.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        m = n if kind == "square" else n + int(rng.integers(1, 8))
        a = rng.normal(size=(m, n)) * rng.choice([1e-6, 1.0, 1e6], size=n)
        if kind == "deficient" and n > 1:
            a[:, -1] = a[:, 0] * rng.normal()
        factor = LstsqFactor(a)
        for b in (rng.normal(size=m), a[:, 0], np.zeros(m)):
            assert_same_bytes(factor.solve(b), parent_lstsq_qr(a, b))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_guarded_ladder_matches_parent_bytes(self, seed):
        a, b = _ill_conditioned(seed)
        guard = GuardConfig(condition_threshold=1e3)
        assert_same_bytes(lstsq_qr(a, b, guard=guard), parent_lstsq_qr(a, b, guard=guard))

    def test_constructor_rejects_what_lstsq_qr_rejects(self):
        for a in (np.ones((2, 5)), np.ones(4), np.ones((2, 2, 2))):
            with pytest.raises(ValueError) as factor_err:
                LstsqFactor(a)
            with pytest.raises(ValueError) as lstsq_err:
                lstsq_qr(a, np.ones(a.shape[0]))
            assert str(factor_err.value) == str(lstsq_err.value)
        factor = LstsqFactor(np.ones((4, 2)))
        for b in (np.ones(3), np.ones((4, 1))):
            with pytest.raises(ValueError) as solve_err:
                factor.solve(b)
            with pytest.raises(ValueError) as lstsq_err:
                lstsq_qr(np.ones((4, 2)), b)
            assert str(solve_err.value) == str(lstsq_err.value)


class TestOneDimensionalKernels:
    """The 1-D ``apply_qt`` (cached reflectors, one ``np.dot`` each) and
    ``solve_upper`` (one ``np.dot`` per row) equal the parent's column
    kernels byte for byte."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from(["full", "deficient", "square", "zero-column"]),
    )
    def test_apply_qt_and_solve_upper_match_parent(self, seed, kind):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        m = n if kind == "square" else n + int(rng.integers(1, 8))
        a = rng.normal(size=(m, n)) * rng.choice([1e-8, 1.0, 1e8], size=n)
        if kind == "deficient" and n > 1:
            a[:, 1:] = a[:, :1] * rng.normal(size=n - 1)
        if kind == "zero-column":
            a[:, int(rng.integers(n))] = 0.0  # an identity reflector
        fact = HouseholderQR(a)
        for _ in range(n):
            fact.step()
        compact, betas = _parent_factor(a)
        assert fact.a.tobytes() == compact.tobytes()
        r = fact.r_factor()[:, :n]
        for b in (rng.normal(size=m), a[:, -1], np.zeros(m)):
            qtb = fact.apply_qt(b)
            assert qtb.tobytes() == _parent_apply_qt(compact, betas, b).tobytes()
            if np.all(np.diag(r) != 0.0):
                x = solve_upper(r, qtb[:n])
                assert x.tobytes() == _parent_solve_upper(r, qtb[:n]).tobytes()


class TestLstsqQR:
    def test_exact_square_system(self):
        a = np.array([[2.0, 0.0], [0.0, 3.0]])
        res = lstsq_qr(a, np.array([4.0, 9.0]))
        assert np.allclose(res.x, [2.0, 3.0])
        assert res.residual_norm < 1e-12
        assert res.backward_error < 1e-12
        assert res.rank == 2

    def test_overdetermined_matches_numpy(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(20, 6))
        b = rng.normal(size=20)
        res = lstsq_qr(a, b)
        ref = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.allclose(res.x, ref, atol=1e-10)

    def test_residual_orthogonal_to_range(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(10, 3))
        b = rng.normal(size=10)
        res = lstsq_qr(a, b)
        r = a @ res.x - b
        assert np.allclose(a.T @ r, 0.0, atol=1e-10)

    def test_rank_deficient_minimizes_residual(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(12, 3))
        a = np.column_stack([base[:, 0], 2 * base[:, 0], base[:, 1], base[:, 2]])
        b = rng.normal(size=12)
        res = lstsq_qr(a, b)
        ref = np.linalg.norm(a @ np.linalg.lstsq(a, b, rcond=None)[0] - b)
        assert res.rank == 3
        assert np.isclose(res.residual_norm, ref, rtol=1e-10)

    def test_zero_matrix_yields_zero_solution(self):
        a = np.zeros((5, 2))
        b = np.ones(5)
        res = lstsq_qr(a, b)
        assert np.allclose(res.x, 0.0)
        assert res.rank == 0
        assert np.isclose(res.residual_norm, np.sqrt(5.0))

    def test_zero_rhs(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 2))
        res = lstsq_qr(a, np.zeros(6))
        assert np.allclose(res.x, 0.0, atol=1e-12)
        assert res.relative_residual == 0.0

    def test_empty_columns(self):
        res = lstsq_qr(np.zeros((4, 0)), np.ones(4))
        assert res.x.shape == (0,)
        assert res.backward_error == 1.0

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            lstsq_qr(np.ones((2, 5)), np.ones(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lstsq_qr(np.ones((4, 2)), np.ones(3))

    def test_signature_outside_span_has_backward_error_one(self):
        # The paper's uncomposable-metric certificate (Table VII, last row):
        # when the target is orthogonal to every event column, the solution
        # is ~0 and the backward error is exactly 1.
        a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        s = np.array([1.0, 0.0, 0.0])
        res = lstsq_qr(a, s)
        assert np.allclose(res.x, 0.0, atol=1e-12)
        assert np.isclose(res.backward_error, 1.0)

    @settings(max_examples=50)
    @given(st.integers(0, 10_000))
    def test_property_matches_numpy_random(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 15))
        n = int(rng.integers(1, m + 1))
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        res = lstsq_qr(a, b)
        ref = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.allclose(res.x, ref, atol=1e-8)

    @settings(max_examples=50)
    @given(st.integers(0, 10_000))
    def test_property_residual_is_minimal(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(8, 3))
        b = rng.normal(size=8)
        res = lstsq_qr(a, b)
        # Perturbing the solution can only increase the residual.
        for _ in range(5):
            perturbed = res.x + rng.normal(scale=0.1, size=3)
            assert np.linalg.norm(a @ perturbed - b) >= res.residual_norm - 1e-12


class TestBackwardError:
    def test_zero_residual(self):
        a = np.eye(3)
        y = np.array([1.0, 2.0, 3.0])
        assert backward_error(a, y, y) == 0.0

    def test_all_zero_inputs(self):
        assert backward_error(np.zeros((2, 2)), np.zeros(2), np.zeros(2)) == 0.0

    def test_bounded_by_one_for_lstsq_solutions(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(6, 2))
            b = rng.normal(size=6)
            res = lstsq_qr(a, b)
            assert 0.0 <= res.backward_error <= 1.0 + 1e-12

    def test_matches_paper_fma_fingerprint(self):
        # Reconstructs Table V's FMA rows analytically: four orthogonal
        # event columns each equal to e_k + 2 e_{k+FMA}; target signature is
        # 2 on the FMA dimensions.  Least squares gives coefficients 0.8 and
        # backward error 2.36e-1.
        e = np.zeros((8, 4))
        for k in range(4):
            e[k, k] = 1.0
            e[4 + k, k] = 2.0
        s = np.zeros(8)
        s[4:] = 2.0
        res = lstsq_qr(e, s)
        assert np.allclose(res.x, 0.8)
        assert np.isclose(res.backward_error, 0.236, atol=5e-4)
