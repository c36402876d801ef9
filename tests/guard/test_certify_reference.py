"""Certification over factor-once :class:`HoldoutFolds` is byte-identical
to the per-metric refits it replaced.

The reference below is ``certify_metric`` as it was before the folds were
shared across metrics: for every (metric, fold) it re-derives the fold's
basis rank and re-represents every selected event with a fresh
least-squares solve, all on the pre-``LstsqFactor`` solver.  The golden
fixtures pin only the trust *level*, while the catalog stores the raw
``coefficient_spread`` / ``error_spread`` floats, so these byte
comparisons are what guard the catalog digests.
"""

import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import pipeline as pipeline_module
from repro.core.pipeline import AnalysisPipeline
from repro.guard import GuardConfig, HoldoutFolds, TrustScore, certify_metric
from repro.guard.certify import _holdout_rows
from repro.ingest import assemble, load_manifest, run_ingest
from tests.linalg.test_lstsq import parent_lstsq_qr
from tests.test_golden_e2e import CASES, SEED

INGEST = Path(__file__).resolve().parents[1] / "data" / "ingest"


def reference_certify(
    metric_name,
    basis_matrix,
    selected_measurements,
    signature_coords,
    event_names,
    full_coefficients,
    full_error,
    config=GuardConfig(),
    rcond=None,
    degraded=False,
    guards_fired=(),
):
    """The per-(metric, fold) certification, kept verbatim as a reference."""
    e = np.asarray(basis_matrix, dtype=np.float64)
    m_sel = np.asarray(selected_measurements, dtype=np.float64)
    coords = np.asarray(signature_coords, dtype=np.float64)
    y_full = np.asarray(full_coefficients, dtype=np.float64)
    n_rows, n_dims = e.shape

    def basis_rank(e):
        return parent_lstsq_qr(e, np.zeros(e.shape[0]), rcond=rcond).rank

    def refit(e, m_sel):
        x_hat = np.column_stack(
            [
                parent_lstsq_qr(e, m_sel[:, j], rcond=rcond).x
                for j in range(m_sel.shape[1])
            ]
        )
        fit = parent_lstsq_qr(x_hat, coords, rcond=rcond)
        return fit.x, fit.backward_error

    reasons = []
    if not np.isfinite(y_full).all() or not np.isfinite(full_error):
        return TrustScore(
            level="reject",
            reasons=("fit produced non-finite coefficients or error",),
            suspect_events=tuple(event_names),
        )
    if m_sel.shape[1] == 0:
        return TrustScore(level="certified", n_holdouts=0)
    if n_rows - 1 < n_dims:
        return TrustScore(
            level="caution",
            reasons=(
                f"cannot cross-validate: holding out a kernel leaves "
                f"{n_rows - 1} rows for {n_dims} basis dimensions",
            ),
        )

    scale = max(float(np.abs(y_full).max()), 1.0)
    coeff_spread = 0.0
    error_spread = 0.0
    per_event_dev = np.zeros(len(event_names))
    skipped = 0
    performed = 0
    for i in _holdout_rows(n_rows, config.certify_holdouts):
        keep = np.arange(n_rows) != i
        if basis_rank(e[keep]) < n_dims:
            skipped += 1
            continue
        performed += 1
        try:
            y_i, err_i = refit(e[keep], m_sel[keep])
        except (ValueError, np.linalg.LinAlgError) as exc:
            return TrustScore(
                level="reject",
                reasons=(f"holdout refit without kernel row {i} failed: {exc}",),
                n_holdouts=performed,
                n_skipped=skipped,
                suspect_events=tuple(event_names),
            )
        if not np.isfinite(y_i).all() or not np.isfinite(err_i):
            return TrustScore(
                level="reject",
                reasons=(
                    f"holdout refit without kernel row {i} produced "
                    "non-finite values",
                ),
                n_holdouts=performed,
                n_skipped=skipped,
                suspect_events=tuple(event_names),
            )
        dev = np.abs(y_i - y_full)
        per_event_dev = np.maximum(per_event_dev, dev)
        coeff_spread = max(coeff_spread, float(dev.max()) / scale)
        error_spread = max(error_spread, abs(err_i - full_error))

    if performed == 0:
        return TrustScore(
            level="caution",
            reasons=(
                "cannot cross-validate: every holdout fold leaves the "
                "expectation basis rank-deficient",
            ),
            n_skipped=skipped,
        )

    suspects = ()
    if coeff_spread > config.certify_coeff_tol:
        worst = np.argsort(per_event_dev)[::-1]
        suspects = tuple(
            event_names[int(j)]
            for j in worst
            if per_event_dev[int(j)] / scale > config.certify_coeff_tol
        )
        reasons.append(
            f"coefficient spread {coeff_spread:.2e} across {performed} "
            f"leave-one-kernel-out refits exceeds "
            f"{config.certify_coeff_tol:g}"
        )
    if error_spread > config.certify_error_tol:
        reasons.append(
            f"backward-error spread {error_spread:.2e} across holdouts "
            f"exceeds {config.certify_error_tol:g}"
        )
    if degraded:
        reasons.append("composed over a fault-degraded selection")
    for guard in guards_fired:
        reasons.append(f"conditioning guard fired: {guard}")

    if coeff_spread > config.reject_coeff_tol:
        level = "reject"
        reasons.insert(
            0,
            f"coefficient spread {coeff_spread:.2e} exceeds the reject "
            f"threshold {config.reject_coeff_tol:g}: the definition does "
            "not survive recalibration",
        )
    elif reasons:
        level = "caution"
    else:
        level = "certified"
    return TrustScore(
        level=level,
        reasons=tuple(reasons),
        coefficient_spread=coeff_spread,
        error_spread=error_spread,
        n_holdouts=performed,
        n_skipped=skipped,
        suspect_events=suspects,
    )


# -- random bases -------------------------------------------------------


@st.composite
def certify_cases(draw):
    """A small random certification problem.

    Basis entries come from a short value list so exact zeros and
    repeated rows are common; the flags force the paths a uniform draw
    would rarely reach: a sole-witness row (some folds are skipped),
    duplicate or zero selected columns (the rank-deficient sub-solve of
    the ``X-hat`` refit), an empty selection, too few rows to hold one
    out, and a non-finite full fit.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_dims = draw(st.integers(1, 4))
    n_rows = max(1, n_dims + draw(st.sampled_from([2, 3, 4, 5, 1, 0, -1])))
    e = rng.choice([0.0, 0.0, 1.0, -1.0, 0.5, 2.0, 3.0], size=(n_rows, n_dims))
    if draw(st.booleans()):
        e = e + 0.1 * rng.standard_normal(e.shape)
    if draw(st.booleans()):
        # Sole witness: only one kernel row measures dimension 0.
        e[:, 0] = 0.0
        e[rng.integers(n_rows), 0] = 1.0
    n_sel = min(draw(st.sampled_from([1, 2, 3, 4, 1, 2, 0])), n_dims)
    if draw(st.sampled_from([False] * 6 + [True])):
        n_sel = n_dims + 1  # more events than dimensions: every refit fails
    m_sel = e @ rng.standard_normal((n_dims, n_sel))
    m_sel += draw(st.sampled_from([0.0, 1e-9, 0.05])) * rng.standard_normal(
        m_sel.shape
    )
    if n_sel >= 2:
        shape = draw(st.sampled_from(["plain", "duplicate", "zero"]))
        if shape == "duplicate":
            m_sel[:, 1] = m_sel[:, 0]
        elif shape == "zero":
            m_sel[:, 1] = 0.0
    coords = rng.standard_normal(n_dims)
    rcond = draw(st.sampled_from([None, 1e-8]))
    if n_sel <= n_dims and n_rows >= n_dims:
        # The production fit, when it is well posed.
        x_hat = np.zeros((n_dims, n_sel))
        for j in range(n_sel):
            x_hat[:, j] = parent_lstsq_qr(e, m_sel[:, j], rcond=rcond).x
        fit = parent_lstsq_qr(x_hat, coords, rcond=rcond)
        y_full, err_full = fit.x, fit.backward_error
    else:
        y_full, err_full = rng.standard_normal(n_sel), 0.5
    poison = draw(st.sampled_from([None] * 8 + ["coefficient", "error"]))
    if poison == "coefficient" and n_sel:
        y_full = y_full.copy()
        y_full[0] = np.nan
    elif poison == "error":
        err_full = np.inf
    tol = draw(st.sampled_from([(0.05, 0.75), (1e-10, 0.75), (1e-10, 1e-8)]))
    config = GuardConfig(
        certify_holdouts=draw(st.integers(2, 12)),
        certify_coeff_tol=tol[0],
        reject_coeff_tol=tol[1],
    )
    return dict(
        e=e,
        m_sel=m_sel,
        coords=coords,
        events=[f"EV_{j}" for j in range(n_sel)],
        y_full=y_full,
        err_full=err_full,
        config=config,
        rcond=rcond,
        degraded=draw(st.booleans()),
        fired=draw(st.sampled_from([(), ("column-scaling",)])),
    )


def _both(case, folds=None):
    if folds is None:
        folds = HoldoutFolds(
            case["e"], case["m_sel"], case["config"].certify_holdouts, case["rcond"]
        )
    args = (case["coords"], case["events"], case["y_full"], case["err_full"])
    kwargs = dict(
        config=case["config"], degraded=case["degraded"], guards_fired=case["fired"]
    )
    new = certify_metric("m", folds, *args, **kwargs)
    ref = reference_certify(
        "m", case["e"], case["m_sel"], *args, rcond=case["rcond"], **kwargs
    )
    return new, ref


class TestRandomBases:
    @settings(max_examples=300, deadline=None)
    @given(certify_cases())
    def test_trust_score_bytes_match_reference(self, case):
        new, ref = _both(case)
        assert pickle.dumps(new) == pickle.dumps(ref)

    @settings(max_examples=60, deadline=None)
    @given(certify_cases(), st.integers(1, 4))
    def test_folds_shared_across_metrics(self, case, n_metrics):
        # One HoldoutFolds certifies several signatures in a row, as the
        # pipeline does; each verdict must match a fresh reference.
        folds = HoldoutFolds(
            case["e"], case["m_sel"], case["config"].certify_holdouts, case["rcond"]
        )
        rng = np.random.default_rng(n_metrics)
        for _ in range(n_metrics):
            case = dict(case, coords=rng.standard_normal(case["e"].shape[1]))
            new, ref = _both(case, folds)
            assert pickle.dumps(new) == pickle.dumps(ref)


class TestCoveredPaths:
    """The random draws reach each path the reuse could get wrong."""

    def _case(self, e, m_sel, **overrides):
        e = np.asarray(e, dtype=np.float64)
        case = dict(
            e=e,
            m_sel=np.asarray(m_sel, dtype=np.float64),
            coords=np.linspace(1.0, 2.0, e.shape[1]),
            events=[f"EV_{j}" for j in range(np.shape(m_sel)[1])],
            y_full=np.ones(np.shape(m_sel)[1]),
            err_full=0.0,
            config=GuardConfig(),
            rcond=None,
            degraded=False,
            fired=(),
        )
        case.update(overrides)
        return case

    def _check(self, case):
        new, ref = _both(case)
        assert pickle.dumps(new) == pickle.dumps(ref)
        return new

    def test_sole_witness_skips_folds(self):
        e = [[1, 0], [1, 0], [0, 1], [2, 0]]  # row 2 alone sees dim 1
        trust = self._check(self._case(e, np.asarray(e, float) @ [[1.0], [2.0]]))
        assert trust.n_skipped == 1 and trust.n_holdouts == 3

    @pytest.mark.parametrize("column", ["duplicate", "zero"])
    def test_rank_deficient_refit(self, column):
        e = np.array(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 0, 1]],
            dtype=float,
        )
        m_sel = e @ [[1.0, 0.3, 1.0], [0.5, 1.0, 0.5], [0.2, 0.0, 0.2]]
        if column == "zero":
            m_sel[:, 2] = 0.0
        folds = HoldoutFolds(e, m_sel, GuardConfig().certify_holdouts)
        assert folds.identifiable(0)
        assert folds._x_hats[0].rank == 2  # the sub-solve path runs
        self._check(self._case(e, m_sel, y_full=np.array([1.0, 0.5, 0.0])))

    def test_too_few_rows(self):
        trust = self._check(self._case(np.eye(3)[:2, :2], np.ones((2, 1))))
        assert "cannot cross-validate" in trust.reasons[0]

    def test_empty_selection(self):
        trust = self._check(self._case(np.eye(3), np.zeros((3, 0))))
        assert trust.level == "certified" and trust.n_holdouts == 0

    def test_non_finite_full_fit(self):
        e = [[1, 0], [0, 1], [1, 1]]
        trust = self._check(
            self._case(e, np.ones((3, 1)), y_full=np.array([np.inf]))
        )
        assert trust.level == "reject"

    def test_non_finite_basis_raises(self):
        # The pipeline's ExpectationBasis never holds NaN; a direct caller
        # passing one gets the SVD's error, not a quiet skip of the fold.
        e = np.array([[1, 0], [0, 1], [1, 1], [np.nan, 1]])
        case = self._case(e, np.ones((4, 1)))
        with pytest.raises(np.linalg.LinAlgError):
            reference_certify(
                "m", e, case["m_sel"], case["coords"], case["events"], np.ones(1), 0.0
            )
        with pytest.raises(np.linalg.LinAlgError):
            _both(case)

    def test_failing_fold_rejects_every_metric(self):
        # More selected events than basis dimensions: each fold's X-hat
        # is underdetermined, its build fails, and the failure surfaces
        # at the first identifiable fold of every metric.
        e = np.array([[1, 0], [0, 1], [1, 1], [2, 1]], dtype=float)
        case = self._case(e, e @ np.ones((2, 3)), y_full=np.ones(3))
        folds = HoldoutFolds(e, case["m_sel"], GuardConfig().certify_holdouts)
        for _ in range(2):
            new, ref = _both(case, folds)
            assert pickle.dumps(new) == pickle.dumps(ref)
            assert new.level == "reject" and "m >= n" in new.reasons[0]


# -- the shipped analyses -----------------------------------------------


@pytest.fixture
def recorded(monkeypatch):
    """Route the pipeline's certify calls through a recorder that also
    runs the reference on the same inputs."""
    pairs = []
    real = pipeline_module.certify_metric

    def recording(name, folds, coords, events, y_full, err_full, **kwargs):
        trust = real(name, folds, coords, events, y_full, err_full, **kwargs)
        ref = reference_certify(
            name,
            folds.basis,
            folds.measurements,
            coords,
            events,
            y_full,
            err_full,
            rcond=folds.rcond,
            **kwargs,
        )
        pairs.append((name, pickle.dumps(trust), pickle.dumps(ref)))
        return trust

    monkeypatch.setattr(pipeline_module, "certify_metric", recording)
    return pairs


@pytest.mark.parametrize(
    "node_factory, domain",
    [pytest.param(case[2], case[3], id=case[0]) for case in CASES],
)
def test_golden_case_trust_scores_match_reference(recorded, node_factory, domain):
    with obs.tracing(seed=SEED):
        result = AnalysisPipeline.for_domain(domain, node_factory(seed=SEED)).run()
    assert len(recorded) == len(result.metrics) > 0
    for name, new, ref in recorded:
        assert new == ref, name


@pytest.mark.parametrize("corpus", ["spr_branch", "zen3_branch"])
def test_ingest_corpus_trust_scores_match_reference(recorded, corpus):
    outcome = run_ingest(assemble(load_manifest(INGEST / corpus / "manifest.json")))
    assert len(recorded) == len(outcome.result.metrics) > 0
    for name, new, ref in recorded:
        assert new == ref, name
