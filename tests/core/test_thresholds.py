"""Tests for automatic threshold selection (the paper's Section-VII
future work, implemented)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.thresholds import select_alpha, select_tau


class TestSelectTau:
    def test_finds_obvious_gap(self):
        values = [0.0, 0.0, 0.0, 1e-3, 1e-2, 1e-1]
        sel = select_tau(values)
        assert sel.method == "gap"
        assert 1e-15 < sel.tau < 1e-3
        assert sel.unambiguous

    def test_recovers_paper_style_window_for_branch_data(self):
        # Zero cluster + tail above 1e-4: chosen tau must sit in between.
        values = [0.0] * 20 + list(np.logspace(-4, 1, 30))
        sel = select_tau(values)
        assert sel.gap_low == 1e-15  # the clamped zero cluster
        assert sel.gap_high == pytest.approx(1e-4)
        assert 1e-15 < sel.tau < 1e-4

    def test_quantile_fallback_for_smooth_distributions(self):
        values = np.logspace(-3, 0, 50)  # no gap anywhere
        sel = select_tau(values, min_gap_decades=1.0)
        assert sel.method == "quantile"
        assert not sel.unambiguous
        assert 1e-3 <= sel.tau <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            select_tau([1.0])
        with pytest.raises(ValueError):
            select_tau([1.0, -0.5])

    @settings(max_examples=40)
    @given(st.integers(0, 10_000))
    def test_property_tau_splits_population(self, seed):
        rng = np.random.default_rng(seed)
        values = np.concatenate(
            [np.zeros(rng.integers(3, 10)), 10 ** rng.uniform(-5, 1, size=20)]
        )
        sel = select_tau(values)
        kept = np.count_nonzero(values <= sel.tau)
        assert 0 < kept < values.size


class TestSelectAlpha:
    def _x_clean(self):
        # Three exact basis-aligned columns plus a dependent aggregate.
        cols = [np.eye(4)[:, i] for i in range(3)]
        cols.append(cols[0] + cols[1])
        return np.column_stack(cols)

    def test_clean_matrix_gives_wide_plateau(self):
        sel = select_alpha(self._x_clean())
        assert sel.stable
        assert sel.selection == (0, 1, 2)
        assert sel.plateau_decades > 3.0

    def test_selected_alpha_reproduces_selection(self):
        from repro.core.qrcp import qrcp_specialized

        x = self._x_clean()
        sel = select_alpha(x)
        result = qrcp_specialized(x, alpha=sel.alpha)
        assert tuple(sorted(result.selected.tolist())) == sel.selection

    def test_noisy_matrix_plateau_excludes_tiny_alpha(self):
        rng = np.random.default_rng(3)
        x = self._x_clean() + rng.normal(0, 5e-3, size=(4, 4))
        sel = select_alpha(x, alphas=np.logspace(-5, -0.7, 18))
        # The chosen alpha must exceed the noise scale.
        assert sel.alpha > 5e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            select_alpha(np.eye(2), alphas=[1e-3])
        with pytest.raises(ValueError):
            select_alpha(np.eye(2), alphas=[0.0, 1e-3])

    def test_sweep_recorded(self):
        sel = select_alpha(self._x_clean(), alphas=np.logspace(-4, -1, 5))
        assert len(sel.sweep) == 5
        assert all(isinstance(s, tuple) for _, s in sel.sweep)
