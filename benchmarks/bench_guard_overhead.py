"""EXP-GUARD: overhead of the numerical-robustness layer.

The guard's contract is "pure observation below the thresholds": on a
healthy catalog a guarded run is bit-identical to an unguarded one, so
its entire cost is the sentinel arithmetic (condition estimation over the
R factors) plus the leave-one-kernel-out certification refits.  This
bench puts numbers on both:

* the guarded vs unguarded specialized QRCP over the branch
  representation matrix (sentinels only — certification lives upstream);
* the guarded vs unguarded end-to-end analysis stages (QRCP through
  composition and certification) on precomputed measurements.

A results table records the measured ratio so regressions in the guard's
cost profile show up in review next to the tables it protects.
"""

import time

import numpy as np
import pytest

from repro.core.metrics import compose_metric
from repro.core.qrcp import qrcp_specialized
from repro.guard import GuardConfig, HoldoutFolds, certify_metric
from repro.io.tables import write_markdown

ALPHA = 5e-4


@pytest.fixture(scope="module")
def x_matrix(branch_result):
    return branch_result.representation.x_matrix


def _analysis_stages(result, guard):
    """QRCP + composition (+ certification under a guard) on precomputed
    measurements — the exact stages the guard can slow down."""
    qrcp = qrcp_specialized(
        result.representation.x_matrix, alpha=ALPHA, guard=guard
    )
    selected_idx = qrcp.selected
    names = [result.representation.event_names[i] for i in selected_idx]
    x_hat = result.representation.x_matrix[:, selected_idx]
    kept_idx = {name: i for i, name in enumerate(result.noise.kept)}
    matrix = result.measurement.select_events(
        result.noise.kept
    ).measurement_matrix()
    m_sel = matrix[:, [kept_idx[name] for name in names]]
    basis = result.representation.basis
    if guard is not None and guard.certify:
        folds = HoldoutFolds(basis.matrix, m_sel, guard.certify_holdouts)
    for definition_full in result.metrics.values():
        definition = compose_metric(
            definition_full.metric,
            x_hat,
            names,
            definition_full.signature,
            guard=guard,
        )
        if guard is not None and guard.certify:
            certify_metric(
                definition_full.metric,
                folds,
                definition_full.signature.coords,
                names,
                definition.coefficients,
                definition.error,
                config=guard,
            )


def test_guard_bit_identical_on_branch(x_matrix):
    plain = qrcp_specialized(x_matrix, alpha=ALPHA)
    guarded = qrcp_specialized(x_matrix, alpha=ALPHA, guard=GuardConfig())
    np.testing.assert_array_equal(guarded.permutation, plain.permutation)
    np.testing.assert_array_equal(guarded.r_factor, plain.r_factor)
    assert guarded.health is not None and guarded.health.guards_fired == ()


def test_qrcp_sentinel_overhead(benchmark, x_matrix):
    benchmark(lambda: qrcp_specialized(x_matrix, ALPHA, guard=GuardConfig()))


def test_analysis_guarded_overhead(benchmark, branch_result):
    benchmark(lambda: _analysis_stages(branch_result, GuardConfig()))


def test_write_overhead_table(branch_result, x_matrix, results_dir):
    def clock(fn, repeat=5):
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    rows = []
    plain = clock(lambda: qrcp_specialized(x_matrix, alpha=ALPHA))
    guarded = clock(
        lambda: qrcp_specialized(x_matrix, alpha=ALPHA, guard=GuardConfig())
    )
    rows.append(
        ["qrcp (sentinels only)", plain * 1e3, guarded * 1e3, guarded / plain]
    )
    plain = clock(lambda: _analysis_stages(branch_result, None))
    guarded = clock(lambda: _analysis_stages(branch_result, GuardConfig()))
    rows.append(
        ["analysis + certification", plain * 1e3, guarded * 1e3, guarded / plain]
    )
    write_markdown(
        results_dir / "guard_overhead.md",
        headers=["stage", "unguarded (ms)", "guarded (ms)", "ratio"],
        rows=rows,
        title="Guard-layer overhead on the branch domain (best of 5)",
    )
    # The guard must stay a rounding error next to measurement (~seconds);
    # certification dominates and is bounded by holdouts * selected fits.
    assert guarded / plain < 200.0
