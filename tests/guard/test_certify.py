"""Leave-one-kernel-out certification: stable fits certify, fragile ones
degrade, and uninformative folds are skipped — not failed."""

import numpy as np
import pytest

from repro.guard import GuardConfig, HoldoutFolds, TrustScore, certify_metric
from repro.linalg import lstsq_qr

# A well-conditioned 6x2 expectation basis: every dimension witnessed by
# several kernels, so no holdout is degenerate.
BASIS = np.array(
    [
        [1.0, 0.0],
        [0.0, 1.0],
        [1.0, 1.0],
        [1.0, -1.0],
        [2.0, 1.0],
        [1.0, 2.0],
    ]
)
#: Event representations (exact): two independent directions.
W = np.array([[1.0, 0.25], [0.5, 1.0]])
COORDS = np.array([1.0, 1.0])
EVENTS = ["EV_A", "EV_B"]
HOLDOUTS = GuardConfig().certify_holdouts


def _full_fit(e, m_sel, coords, rcond=None):
    x_hat = np.column_stack(
        [lstsq_qr(e, m_sel[:, j], rcond=rcond).x for j in range(m_sel.shape[1])]
    )
    fit = lstsq_qr(x_hat, coords, rcond=rcond)
    return fit.x, fit.backward_error


class TestCertified:
    def test_exact_data_certifies(self):
        m_sel = BASIS @ W
        y, err = _full_fit(BASIS, m_sel, COORDS)
        trust = certify_metric(
            "m", HoldoutFolds(BASIS, m_sel, HOLDOUTS), COORDS, EVENTS, y, err
        )
        assert trust.level == "certified"
        assert trust.certified
        assert trust.reasons == ()
        assert trust.n_holdouts == BASIS.shape[0]
        assert trust.n_skipped == 0
        assert trust.coefficient_spread == pytest.approx(0.0, abs=1e-9)

    def test_empty_selection_is_vacuously_certified(self):
        trust = certify_metric(
            "m",
            HoldoutFolds(BASIS, np.zeros((6, 0)), HOLDOUTS),
            COORDS,
            [],
            np.zeros(0),
            1.0,
        )
        assert trust.level == "certified"
        assert trust.n_holdouts == 0


class TestDegradation:
    def _noisy(self):
        rng = np.random.default_rng(11)
        m_sel = BASIS @ W + 0.05 * rng.standard_normal((6, 2))
        y, err = _full_fit(BASIS, m_sel, COORDS)
        return m_sel, y, err

    def test_tight_tolerance_yields_caution(self):
        m_sel, y, err = self._noisy()
        config = GuardConfig(certify_coeff_tol=1e-12, reject_coeff_tol=1e6)
        folds = HoldoutFolds(BASIS, m_sel, HOLDOUTS)
        trust = certify_metric(
            "m", folds, COORDS, EVENTS, y, err, config=config
        )
        assert trust.level == "caution"
        assert any("coefficient spread" in r for r in trust.reasons)
        assert trust.suspect_events  # the unstable events are named

    def test_reject_threshold(self):
        m_sel, y, err = self._noisy()
        config = GuardConfig(
            certify_coeff_tol=1e-12, reject_coeff_tol=1e-12
        )
        folds = HoldoutFolds(BASIS, m_sel, HOLDOUTS)
        trust = certify_metric(
            "m", folds, COORDS, EVENTS, y, err, config=config
        )
        assert trust.level == "reject"
        assert any("does not survive recalibration" in r for r in trust.reasons)

    def test_nonfinite_fit_is_rejected(self):
        trust = certify_metric(
            "m",
            HoldoutFolds(BASIS, BASIS @ W, HOLDOUTS),
            COORDS,
            EVENTS,
            np.array([np.nan, 1.0]),
            0.0,
        )
        assert trust.level == "reject"
        assert "non-finite" in trust.reasons[0]
        assert trust.suspect_events == tuple(EVENTS)

    def test_upstream_guard_caps_at_caution(self):
        m_sel = BASIS @ W
        y, err = _full_fit(BASIS, m_sel, COORDS)
        trust = certify_metric(
            "m",
            HoldoutFolds(BASIS, m_sel, HOLDOUTS),
            COORDS,
            EVENTS,
            y,
            err,
            guards_fired=("column-scaling",),
        )
        assert trust.level == "caution"
        assert any("column-scaling" in r for r in trust.reasons)

    def test_degraded_selection_caps_at_caution(self):
        m_sel = BASIS @ W
        y, err = _full_fit(BASIS, m_sel, COORDS)
        folds = HoldoutFolds(BASIS, m_sel, HOLDOUTS)
        trust = certify_metric(
            "m", folds, COORDS, EVENTS, y, err, degraded=True
        )
        assert trust.level == "caution"
        assert any("fault-degraded" in r for r in trust.reasons)


class TestIdentifiabilitySkips:
    def test_sole_witness_fold_is_skipped_not_failed(self):
        # Kernel row 2 is the only witness of dimension 1: holding it out
        # collapses the basis, so that fold carries no stability evidence.
        e = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        w = np.array([[1.0], [1.0]])
        m_sel = e @ w
        y, err = _full_fit(e, m_sel, COORDS)
        folds = HoldoutFolds(e, m_sel, HOLDOUTS)
        trust = certify_metric("m", folds, COORDS, ["EV_A"], y, err)
        assert trust.level == "certified"
        assert trust.n_holdouts == 2
        assert trust.n_skipped == 1

    def test_no_informative_fold_is_caution(self):
        # Every kernel row measures the same direction: the full basis is
        # already rank-deficient and every fold stays so.
        e = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        m_sel = np.array([[1.0], [2.0], [3.0]])
        trust = certify_metric(
            "m",
            HoldoutFolds(e, m_sel, HOLDOUTS),
            COORDS,
            ["EV_A"],
            np.array([1.0]),
            0.0,
        )
        assert trust.level == "caution"
        assert trust.n_holdouts == 0
        assert trust.n_skipped == 3
        assert any("rank-deficient" in r for r in trust.reasons)

    def test_too_few_rows_to_hold_out(self):
        e = np.eye(2)
        trust = certify_metric(
            "m",
            HoldoutFolds(e, np.ones((2, 1)), HOLDOUTS),
            np.ones(2),
            ["EV_A"],
            np.array([1.0]),
            0.0,
        )
        assert trust.level == "caution"
        assert any("cannot cross-validate" in r for r in trust.reasons)


class TestTrustScore:
    def test_describe(self):
        assert TrustScore(level="certified").describe() == "certified"
        stamped = TrustScore(level="caution", reasons=("a", "b"))
        assert stamped.describe() == "caution (a; b)"
