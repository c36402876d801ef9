"""The ill-conditioned scenario: the guard layer's end-to-end exercise.

A healthy catalog never trips the sentinels, so this module forges one:
a clean branch measurement plus near-duplicate copies of two selected
events, re-run with a tiny ``alpha`` so the copies survive selection.
The condition sentinel must fire, the fallback ladder must engage and
no metric leaning on a copy may be stamped ``certified``, all without a
crash.  In strict mode the same run must raise
:class:`~repro.guard.GuardViolation` naming the forged events.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.pipeline import AnalysisPipeline
from repro.guard import GuardConfig, GuardViolation
from repro.hardware.systems import aurora_node

#: Relative perturbation of the forged columns: large enough to clear the
#: selection cutoff (beta ~ 1e-9 at SMOKE_ALPHA), small enough that the
#: forged X-hat is catastrophically conditioned.
FORGE_EPS = 1e-8

#: The tiny alpha lowers the QRCP beta cutoff so the near-duplicates are
#: selected instead of filtered.
SMOKE_ALPHA = 1e-10

#: Tighter than the defaults, so the scenario is decisively past the
#: thresholds rather than balancing on them.
SMOKE_GUARD = GuardConfig(condition_threshold=1e6, rank_gap_threshold=1e5)


def forge_near_duplicates(measurement, donors, pattern, eps=FORGE_EPS):
    """Append ``SYNTH_NEAR_DUP_<i> = (1 + eps) * donor_i + eps * pattern``.

    An exact combination of donors would fall in their span, leave a
    rounding-level QRCP residual and be (correctly) filtered.  The
    out-of-span ``eps * pattern`` component is what makes the forged
    column selectable yet catastrophically collinear: the shape of a
    redundant counter a vendor aliased under a new name.
    """
    data = measurement.data
    forged_names = [f"SYNTH_NEAR_DUP_{i}" for i in range(len(donors))]
    forged_cols = [
        (1.0 + eps) * data[..., measurement.event_index(donor)]
        + eps * pattern[None, None, :]
        for donor in donors
    ]
    new_set = type(measurement)(
        benchmark=measurement.benchmark,
        row_labels=list(measurement.row_labels),
        event_names=list(measurement.event_names) + forged_names,
        data=np.concatenate([data] + [c[..., None] for c in forged_cols], axis=-1),
        pmu_runs=measurement.pmu_runs,
    )
    return new_set, tuple(forged_names)


def unspanned_pattern(basis_matrix, selected_x):
    """A kernel-row vector representable in the basis but orthogonal (in
    representation space) to everything the clean selection spans; the
    least-dominant selected direction when the selection spans the basis."""
    n_dims = basis_matrix.shape[1]
    q, _ = np.linalg.qr(selected_x, mode="complete")
    rank = min(selected_x.shape[1], n_dims)
    return basis_matrix @ q[:, rank if rank < n_dims else n_dims - 1]


def run_scenario(strict):
    """``(forged event names, result or None, exception or None)`` of the
    ill-conditioned branch catalog run through the guarded pipeline."""
    clean_pipeline = AnalysisPipeline.for_domain("branch", aurora_node(seed=2024))
    clean = clean_pipeline.run()
    pattern = unspanned_pattern(clean_pipeline.basis.matrix, clean.x_hat)
    forged_set, forged_names = forge_near_duplicates(
        clean.measurement, clean.selected_events[:2], pattern
    )
    config = replace(
        clean.config, alpha=SMOKE_ALPHA, guard=SMOKE_GUARD, strict=strict
    )
    pipeline = AnalysisPipeline.for_domain(
        "branch", aurora_node(seed=2024), config=config
    )
    try:
        return forged_names, pipeline.run(measurement=forged_set), None
    except Exception as exc:  # noqa: BLE001 - the tests judge the exception
        return forged_names, None, exc


def sentinels_fired(result):
    """The guards fired by the selection, then by each metric, in order."""
    fired = list(result.qrcp.health.guards_fired) if result.qrcp.health else []
    for metric in result.metrics.values():
        if metric.health is not None:
            fired.extend(g for g in metric.health.guards_fired if g not in fired)
    return fired


def trust_levels(result):
    return {
        name: (m.trust.level if m.trust is not None else "unstamped")
        for name, m in result.metrics.items()
    }


@pytest.fixture(scope="module")
def scenario():
    return run_scenario(strict=False)


@pytest.fixture(scope="module")
def strict_scenario():
    return run_scenario(strict=True)


class TestSmokeScenario:
    def test_passes(self, scenario):
        forged_names, result, error = scenario
        # Neither a GuardViolation without strict mode nor a crash.
        assert error is None, f"pipeline raised on the forged catalog: {error!r}"
        assert sentinels_fired(result), "no sentinel fired on the forged selection"
        levels = trust_levels(result)
        for name, metric in result.metrics.items():
            leans_on_forgery = any(
                e in forged_names and abs(c) > 1e-9
                for e, c in zip(metric.event_names, metric.coefficients)
            )
            assert not (leans_on_forgery and levels[name] == "certified"), name
        assert not set(levels.values()) <= {"certified"}, "the run did not degrade"

    def test_sentinel_fired(self, scenario):
        assert "qrcp-column-scaled-repivot" in sentinels_fired(scenario[1])

    def test_condition_past_threshold(self, scenario):
        health = scenario[1].qrcp.health
        assert health.condition_estimate > SMOKE_GUARD.condition_threshold

    def test_run_degraded_not_crashed(self, scenario):
        _, result, _ = scenario
        assert result is not None
        assert set(trust_levels(result).values()) != {"certified"}


class TestStrictSmoke:
    def test_passes(self, strict_scenario):
        _, result, error = strict_scenario
        assert result is None, "strict mode did not raise on the forged catalog"
        assert isinstance(error, GuardViolation), f"crashed: {error!r}"

    def test_raises_naming_forged_event(self, strict_scenario):
        forged_names, _, error = strict_scenario
        assert any(name in str(error) for name in forged_names), str(error)
        assert "strict mode" in str(error)


class TestForgery:
    def test_forged_columns_are_near_duplicates(self, scenario):
        forged_names, result, _ = scenario
        clean = result.measurement
        forged_idx = [
            i
            for i, name in enumerate(clean.event_names)
            if name.startswith("SYNTH_NEAR_DUP_")
        ]
        assert len(forged_idx) == len(forged_names)
        # Near, not exact, duplicates: each forged column sits a tiny but
        # nonzero relative distance from its (clean) donor column.
        clean_idx = [
            j for j in range(clean.data.shape[-1]) if j not in forged_idx
        ]
        for i in forged_idx:
            f = clean.data[..., i]
            rel = min(
                np.abs(f - clean.data[..., j]).max()
                / max(np.abs(clean.data[..., j]).max(), 1.0)
                for j in clean_idx
            )
            assert 0.0 < rel < 1e-4

    def test_smoke_guard_is_tighter_than_default(self):
        default = GuardConfig()
        assert SMOKE_GUARD.condition_threshold < default.condition_threshold
        assert SMOKE_GUARD.rank_gap_threshold < default.rank_gap_threshold
