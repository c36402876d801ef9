"""Trust priors in the pipeline: exclusion, stamping, and the
bit-identity property."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.pipeline import DOMAIN_CONFIGS, AnalysisPipeline
from repro.guard import GuardViolation
from repro.hardware.systems import aurora_node
from repro.vet import (
    ACCURATE,
    OVERCOUNTING,
    UNVETTED,
    TrustPriors,
    VetStamp,
    forge_registry,
)
from tests.vet.conftest import FORGE_TARGET


@pytest.fixture(scope="module")
def prior_free():
    return AnalysisPipeline.for_domain("cpu_flops", aurora_node()).run()


def _assert_bit_identical(a, b):
    assert a.selected_events == b.selected_events
    assert list(a.metrics) == list(b.metrics)
    for name in a.metrics:
        assert (
            a.metrics[name].coefficients.tobytes()
            == b.metrics[name].coefficients.tobytes()
        )
        assert a.metrics[name].error == b.metrics[name].error
    np.testing.assert_array_equal(a.qrcp.selected, b.qrcp.selected)


def test_forge_target_is_the_first_deterministic_selected_event(prior_free):
    # The forgery must hit an exact-counting event the clean selection
    # depends on, so that barring it visibly changes the composition.
    events = aurora_node().events
    deterministic = [
        event
        for event in prior_free.selected_events
        if events.get(event).noise.is_deterministic
    ]
    assert deterministic[:1] == [FORGE_TARGET]


class TestBitIdentity:
    """The property the whole design hangs on: priors that refute
    nothing must change nothing."""

    def test_empty_priors_are_identity(self, prior_free):
        result = AnalysisPipeline.for_domain(
            "cpu_flops", aurora_node(), priors=TrustPriors()
        ).run()
        _assert_bit_identical(prior_free, result)

    def test_healthy_campaign_priors_are_identity(
        self, prior_free, healthy_report
    ):
        result = AnalysisPipeline.for_domain(
            "cpu_flops",
            aurora_node(),
            priors=TrustPriors.from_report(healthy_report),
        ).run()
        _assert_bit_identical(prior_free, result)


class TestExclusion:
    @pytest.fixture(scope="class")
    def vetted(self, forged_report):
        node = aurora_node()
        node.events = forge_registry(
            node.events, {FORGE_TARGET: ("overcount", 1.5)}
        )
        return AnalysisPipeline.for_domain(
            "cpu_flops", node, priors=TrustPriors.from_report(forged_report)
        ).run()

    def test_refuted_event_barred_from_selection(self, vetted):
        assert FORGE_TARGET not in vetted.selected_events

    def test_exclusion_recorded_in_noise_report(self, vetted):
        assert vetted.noise.excluded_by_prior == [FORGE_TARGET]
        assert FORGE_TARGET not in vetted.noise.kept

    def test_summary_reports_the_exclusion(self, vetted):
        assert "excluded by vet prior: 1" in vetted.summary()

    def test_metrics_carry_the_vet_stamp(self, vetted, forged_report):
        for metric in vetted.metrics.values():
            assert metric.vet is not None
            assert metric.vet.excluded == (FORGE_TARGET,)
            assert metric.vet.source == forged_report.source
            for event in metric.vet.verdicts:
                assert event in vetted.selected_events

    def test_rounded_metrics_inherit_the_stamp(self, vetted):
        for metric in vetted.rounded_metrics.values():
            assert metric.vet is not None


class TestStrictMode:
    def test_unvetted_dependencies_raise_in_strict_mode(self, healthy_report):
        # cpu_flops verdicts say nothing about branch events, so a strict
        # branch run under those priors depends on unvetted events.
        config = replace(DOMAIN_CONFIGS["branch"], strict=True)
        pipeline = AnalysisPipeline.for_domain(
            "branch",
            aurora_node(),
            config=config,
            priors=TrustPriors.from_report(healthy_report),
        )
        with pytest.raises(GuardViolation, match="unvetted or refuted"):
            pipeline.run()

    def test_strict_without_priors_unaffected(self):
        config = replace(DOMAIN_CONFIGS["branch"], strict=True)
        result = AnalysisPipeline.for_domain(
            "branch", aurora_node(), config=config
        ).run()
        assert result.metrics


class TestTrustPriors:
    def test_verdict_for_defaults_to_unvetted(self):
        priors = TrustPriors(verdicts={"E": ACCURATE})
        assert priors.verdict_for("E") == ACCURATE
        assert priors.verdict_for("UNKNOWN") == UNVETTED

    def test_excluded_events_filters_by_refuted(self):
        priors = TrustPriors(verdicts={"A": ACCURATE, "B": OVERCOUNTING})
        assert priors.excluded_events(["A", "B", "C"]) == ("B",)
        assert priors.n_refuted == 1

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValueError, match="unknown verdict"):
            TrustPriors(verdicts={"E": "bogus"})

    def test_load_from_report_json(self, tmp_path, forged_report):
        path = forged_report.save(tmp_path / "report.json")
        priors = TrustPriors.load(path)
        assert priors.excluded(FORGE_TARGET)
        assert priors.source == forged_report.source

    def test_load_from_raw_priors_json(self, tmp_path):
        path = tmp_path / "priors.json"
        path.write_text('{"verdicts": {"E": "overcounting"}, "source": "manual"}')
        priors = TrustPriors.load(path)
        assert priors.excluded("E")
        assert priors.source == "manual"


class TestVetStamp:
    def test_payload_round_trip(self):
        stamp = VetStamp(
            verdicts={"A": ACCURATE, "B": UNVETTED},
            excluded=("C",),
            source="vet-campaign[test]",
        )
        assert VetStamp.from_payload(stamp.to_payload()) == stamp

    def test_from_falsy_payload_is_none(self):
        assert VetStamp.from_payload(None) is None
        assert VetStamp.from_payload({}) is None

    def test_clean_and_describe(self):
        clean = VetStamp(verdicts={"A": ACCURATE})
        assert clean.clean
        assert "vetted clean" in clean.describe()
        dirty = VetStamp(verdicts={"A": UNVETTED}, excluded=("B",))
        assert not dirty.clean
        assert "suspect" in dirty.describe()
        assert "B" in dirty.describe()
