"""Tests for the branch predictor and branch unit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.branch import (
    BranchSpec,
    BranchUnit,
    LocalHistoryPredictor,
    de_bruijn_sequence,
)


class TestDeBruijn:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_length_and_balance(self, order):
        seq = de_bruijn_sequence(order)
        assert seq.size == 2**order
        assert seq.sum() == 2 ** (order - 1)

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_every_window_appears_once(self, order):
        seq = de_bruijn_sequence(order)
        doubled = np.concatenate([seq, seq[: order - 1]])
        windows = {
            tuple(doubled[i : i + order].tolist()) for i in range(seq.size)
        }
        assert len(windows) == 2**order

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            de_bruijn_sequence(0)


class TestLocalHistoryPredictor:
    def test_learns_constant_pattern(self):
        p = LocalHistoryPredictor(history_bits=4)
        outcomes = np.ones(64, dtype=bool)
        misses = p.simulate(0, outcomes)
        assert not misses[16:].any()  # perfect after warmup

    def test_learns_alternating_pattern(self):
        p = LocalHistoryPredictor(history_bits=4)
        outcomes = (np.arange(128) % 2).astype(bool)
        misses = p.simulate(0, outcomes)
        assert not misses[40:].any()

    def test_learns_period_four_pattern(self):
        p = LocalHistoryPredictor(history_bits=4)
        outcomes = np.tile([True, True, False, False], 32)
        misses = p.simulate(0, outcomes)
        assert not misses[40:].any()

    def test_de_bruijn_defeats_predictor_exactly_half(self):
        # The exactness property the benchmark's M = 0.5 rows rely on.
        h = 4
        p = LocalHistoryPredictor(history_bits=h)
        period = de_bruijn_sequence(h + 1)
        outcomes = np.tile(period, 6)
        misses = p.simulate(0, outcomes)
        steady = misses[2 * period.size :]
        assert steady.sum() == steady.size // 2

    def test_separate_branches_have_separate_state(self):
        p = LocalHistoryPredictor(history_bits=2)
        p.simulate(0, np.ones(32, dtype=bool))
        # Branch 1 is untrained: first not-taken is predicted correctly
        # (counters initialize to strongly-not-taken).
        assert not p.simulate(1, np.zeros(1, dtype=bool))[0]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LocalHistoryPredictor(history_bits=0)
        with pytest.raises(ValueError):
            LocalHistoryPredictor(init_state=7)

    @settings(max_examples=30)
    @given(st.integers(1, 3), st.integers(0, 1000))
    def test_property_short_periodic_patterns_learned(self, period_log, seed):
        # Any pattern whose period fits inside the history window is
        # eventually perfect: an H-window with H >= period uniquely
        # identifies the phase, so every context has a single followup.
        h = 8
        rng = np.random.default_rng(seed)
        period = rng.integers(0, 2, size=2**period_log).astype(bool)
        p = LocalHistoryPredictor(history_bits=h)
        outcomes = np.tile(period, max(8, 512 // period.size))
        misses = p.simulate(0, outcomes)
        assert not misses[-2 * period.size :].any()


class TestBranchSpec:
    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            BranchSpec("sometimes")

    def test_bad_execute_every(self):
        with pytest.raises(ValueError):
            BranchSpec("taken", execute_every=0)

    def test_conditional_flag(self):
        assert BranchSpec("taken").is_conditional
        assert not BranchSpec("uncond").is_conditional


class TestBranchUnit:
    """The 11 paper rows are covered end-to-end in tests/cat; here we cover
    unit-level behaviours and edge cases."""

    def test_always_taken_loop(self):
        c = BranchUnit().run([BranchSpec("taken")])
        assert c.cond_retired == 1.0
        assert c.cond_taken == 1.0
        assert c.mispredicted == 0.0
        assert c.cond_executed == 1.0

    def test_unpredictable_is_exactly_half_mispredicted(self):
        c = BranchUnit().run([BranchSpec("unpredictable")])
        assert c.mispredicted == 0.5
        assert c.cond_taken == 0.5

    def test_wrong_path_branches_inflate_executed_only(self):
        base = BranchUnit().run([BranchSpec("unpredictable")])
        wp = BranchUnit().run([BranchSpec("unpredictable", wrong_path_branches=2)])
        assert wp.cond_retired == base.cond_retired
        assert wp.cond_executed == base.cond_executed + 2 * wp.mispredicted

    def test_every_other_iteration_execution(self):
        c = BranchUnit().run([BranchSpec("not_taken", execute_every=2)])
        assert c.cond_retired == 0.5
        assert c.cond_taken == 0.0

    def test_unconditional_kinds(self):
        c = BranchUnit().run(
            [
                BranchSpec("uncond"),
                BranchSpec("uncond_indirect"),
                BranchSpec("call"),
                BranchSpec("ret"),
            ]
        )
        assert c.uncond_direct == 1.0
        assert c.uncond_indirect == 1.0
        assert c.calls == 1.0
        assert c.returns == 1.0
        assert c.cond_retired == 0.0
        assert c.all_retired == 4.0

    def test_ntaken_derivation(self):
        c = BranchUnit().run([BranchSpec("taken"), BranchSpec("not_taken")])
        assert c.cond_ntaken == 1.0

    def test_misp_taken_subset_of_mispredicted(self):
        c = BranchUnit().run([BranchSpec("unpredictable")])
        assert 0.0 <= c.misp_taken <= c.mispredicted

    def test_counts_are_exact_dyadics(self):
        # Steady-state counts over power-of-two periods are exact in FP.
        c = BranchUnit().run(
            [BranchSpec("taken"), BranchSpec("unpredictable"), BranchSpec("alternate")]
        )
        for value in (c.cond_retired, c.cond_taken, c.mispredicted):
            assert value == float(np.float64(value))
            assert (value * 4) == int(value * 4)  # quarter-granular exactly

    def test_determinism(self):
        specs = [BranchSpec("taken"), BranchSpec("unpredictable", wrong_path_branches=1)]
        a = BranchUnit().run(specs)
        b = BranchUnit().run(specs)
        assert a == b
