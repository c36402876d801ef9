"""Branch predictor and speculative branch-unit model.

The CAT branching benchmark drives conditional branches with controlled
outcome patterns; the expectation matrix of the paper's Equation 3 encodes
the *per-iteration* architectural counts that result.  This module provides:

* :class:`LocalHistoryPredictor` — a per-branch two-level adaptive
  predictor: an ``history_bits``-deep local history register indexing a
  table of 2-bit saturating counters (Yeh/Patt style).  Counters initialize
  to strongly-not-taken.  Two exactness properties matter for the
  reproduction and are covered by tests:

  1. any outcome pattern whose period is at most ``2**history_bits`` is
     predicted perfectly once warm (every history context has a unique
     followup); and
  2. a de Bruijn sequence of order ``history_bits + 1`` defeats the
     predictor *exactly* half the time in steady state: each history
     context is followed by alternating outcomes, and a 2-bit counter
     starting from a saturated state mispredicts exactly one of every two
     alternating outcomes.

  Property 2 is how the benchmark realizes the paper's exact ``M = 0.5``
  expectation rows without stochastic simulation.

* :class:`BranchUnit` — executes a set of :class:`BranchSpec` streams for a
  kernel, counting retired/taken/mispredicted conditionals, unconditional
  branches, and *speculatively executed* wrong-path conditionals (the
  ``CE - CR`` gap of the paper's rows 7-9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

__all__ = [
    "BranchCounts",
    "BranchSpec",
    "BranchUnit",
    "LocalHistoryPredictor",
    "de_bruijn_sequence",
]


def de_bruijn_sequence(order: int) -> np.ndarray:
    """Binary de Bruijn sequence B(2, order) of length ``2**order``.

    Standard "prefer-one" construction via the recursive Lyndon-word
    algorithm; every ``order``-bit window appears exactly once per period.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    sequence: List[int] = []
    a = [0] * (2 * order)

    def db(t: int, p: int) -> None:
        if t > order:
            if order % p == 0:
                sequence.extend(a[1 : p + 1])
        else:
            a[t] = a[t - p]
            db(t + 1, p)
            for j in range(a[t - p] + 1, 2):
                a[t] = j
                db(t + 1, t)

    db(1, 1)
    return np.array(sequence, dtype=bool)


class LocalHistoryPredictor:
    """Two-level local predictor: per-branch history -> 2-bit counters."""

    #: 2-bit counter encoding: 0,1 predict not-taken; 2,3 predict taken.
    STRONG_NT = 0
    STRONG_T = 3

    def __init__(self, history_bits: int = 4, init_state: int = 0):
        if history_bits < 1:
            raise ValueError("history_bits must be >= 1")
        if not 0 <= init_state <= 3:
            raise ValueError("init_state must be a 2-bit counter value")
        self.history_bits = history_bits
        self.init_state = init_state
        self._histories: Dict[int, int] = {}
        self._tables: Dict[int, np.ndarray] = {}

    def _table(self, branch_id: int) -> np.ndarray:
        table = self._tables.get(branch_id)
        if table is None:
            table = np.full(2**self.history_bits, self.init_state, dtype=np.int8)
            self._tables[branch_id] = table
        return table

    def reset(self) -> None:
        self._histories.clear()
        self._tables.clear()

    def predict(self, branch_id: int) -> bool:
        """Predicted direction for the branch's current history context."""
        history = self._histories.get(branch_id, 0)
        return bool(self._table(branch_id)[history] >= 2)

    def update(self, branch_id: int, taken: bool) -> None:
        """Train the counter for the current context and shift the history."""
        history = self._histories.get(branch_id, 0)
        table = self._table(branch_id)
        state = table[history]
        if taken:
            table[history] = min(state + 1, 3)
        else:
            table[history] = max(state - 1, 0)
        mask = (1 << self.history_bits) - 1
        self._histories[branch_id] = ((history << 1) | int(taken)) & mask

    def simulate(self, branch_id: int, outcomes: Sequence[bool]) -> np.ndarray:
        """Predict/update over an outcome stream; return the mispredict mask."""
        outcomes = np.asarray(outcomes, dtype=bool)
        misses = np.zeros(outcomes.shape[0], dtype=bool)
        for i, taken in enumerate(outcomes):
            misses[i] = self.predict(branch_id) != bool(taken)
            self.update(branch_id, bool(taken))
        return misses


@dataclass(frozen=True)
class BranchSpec:
    """One static conditional or unconditional branch in a kernel body.

    Attributes
    ----------
    pattern:
        Outcome pattern kind: ``"taken"``, ``"not_taken"``, ``"alternate"``,
        ``"unpredictable"`` (de Bruijn-driven), or ``"uncond"`` /
        ``"uncond_indirect"`` / ``"call"`` / ``"ret"`` for unconditional
        control transfers.
    execute_every:
        The branch executes on iterations where ``i % execute_every == 0``
        (e.g. 2 for a branch inside an every-other-iteration guard).
    wrong_path_branches:
        Number of conditional branches fetched and executed speculatively
        down the wrong path each time *this* branch mispredicts.
    """

    pattern: str
    execute_every: int = 1
    wrong_path_branches: int = 0

    _CONDITIONAL = ("taken", "not_taken", "alternate", "unpredictable")
    _UNCONDITIONAL = ("uncond", "uncond_indirect", "call", "ret")

    def __post_init__(self) -> None:
        if self.pattern not in self._CONDITIONAL + self._UNCONDITIONAL:
            raise ValueError(f"unknown branch pattern {self.pattern!r}")
        if self.execute_every < 1:
            raise ValueError("execute_every must be >= 1")
        if self.wrong_path_branches < 0:
            raise ValueError("wrong_path_branches must be >= 0")

    @property
    def is_conditional(self) -> bool:
        return self.pattern in self._CONDITIONAL


@dataclass(frozen=True)
class BranchCounts:
    """Per-iteration architectural branch activity for one kernel."""

    cond_executed: float
    cond_retired: float
    cond_taken: float
    mispredicted: float
    misp_taken: float
    uncond_direct: float
    uncond_indirect: float
    calls: float
    returns: float

    @property
    def cond_ntaken(self) -> float:
        return self.cond_retired - self.cond_taken

    @property
    def all_retired(self) -> float:
        return (
            self.cond_retired
            + self.uncond_direct
            + self.uncond_indirect
            + self.calls
            + self.returns
        )


class BranchUnit:
    """Executes kernel branch specs through the predictor, exactly.

    Counts are averaged over ``measure_periods`` full pattern periods after
    ``warmup_periods`` periods of training, which makes every reported
    per-iteration value an exact dyadic rational (the patterns all have
    power-of-two periods), reproducing the crisp expectation rows of the
    paper's Equation 3.
    """

    def __init__(
        self,
        history_bits: int = 4,
        warmup_periods: int = 2,
        measure_periods: int = 2,
    ):
        self.history_bits = history_bits
        self.warmup_periods = warmup_periods
        self.measure_periods = measure_periods

    def _outcomes(self, spec: BranchSpec, iterations: int) -> np.ndarray:
        """Architectural outcome per *executed* instance over ``iterations``."""
        executed = iterations // spec.execute_every
        if spec.pattern == "taken":
            return np.ones(executed, dtype=bool)
        if spec.pattern == "not_taken":
            return np.zeros(executed, dtype=bool)
        if spec.pattern == "alternate":
            return (np.arange(executed) % 2).astype(bool)
        if spec.pattern == "unpredictable":
            period = de_bruijn_sequence(self.history_bits + 1)
            reps = int(np.ceil(executed / period.size))
            return np.tile(period, reps)[:executed]
        raise AssertionError(f"not a conditional pattern: {spec.pattern}")

    def pattern_period(self, specs: Sequence[BranchSpec]) -> int:
        """Smallest iteration count containing whole periods of every spec."""
        period = 1
        for spec in specs:
            p = spec.execute_every
            if spec.pattern == "alternate":
                p *= 2
            elif spec.pattern == "unpredictable":
                p *= 2 ** (self.history_bits + 1)
            period = int(np.lcm(period, p))
        return period

    def run(self, specs: Sequence[BranchSpec]) -> BranchCounts:
        """Exact steady-state per-iteration branch counts for a kernel body."""
        period = self.pattern_period(specs)
        # Training needs the history register filled (history_bits
        # iterations) plus two counter updates per context to saturate from
        # the strongly-not-taken reset; 8*(H+1) iterations is a safe bound.
        min_warm = 8 * (self.history_bits + 1)
        warm_periods = max(self.warmup_periods, -(-min_warm // period))
        warm = warm_periods * period
        measured = self.measure_periods * period
        total_iters = warm + measured

        predictor = LocalHistoryPredictor(self.history_bits)
        cond_retired = cond_taken = misp = misp_taken = 0.0
        wrong_path = 0.0
        uncond = indirect = calls = rets = 0.0

        for branch_id, spec in enumerate(specs):
            executed_iters = np.arange(0, total_iters, spec.execute_every)
            if not spec.is_conditional:
                in_window = executed_iters >= warm
                n = float(np.count_nonzero(in_window))
                if spec.pattern == "uncond":
                    uncond += n
                elif spec.pattern == "uncond_indirect":
                    indirect += n
                elif spec.pattern == "call":
                    calls += n
                else:
                    rets += n
                continue
            outcomes = self._outcomes(spec, total_iters)
            misses = predictor.simulate(branch_id, outcomes)
            in_window = executed_iters >= warm
            window_outcomes = outcomes[in_window]
            window_misses = misses[in_window]
            cond_retired += float(window_outcomes.size)
            cond_taken += float(np.count_nonzero(window_outcomes))
            misp += float(np.count_nonzero(window_misses))
            misp_taken += float(np.count_nonzero(window_misses & window_outcomes))
            wrong_path += float(np.count_nonzero(window_misses)) * spec.wrong_path_branches

        scale = 1.0 / measured
        return BranchCounts(
            cond_executed=(cond_retired + wrong_path) * scale,
            cond_retired=cond_retired * scale,
            cond_taken=cond_taken * scale,
            mispredicted=misp * scale,
            misp_taken=misp_taken * scale,
            uncond_direct=uncond * scale,
            uncond_indirect=indirect * scale,
            calls=calls * scale,
            returns=rets * scale,
        )
