"""Validation campaigns: healthy registries pass, forged ones are caught."""

import pytest

from repro.vet import (
    ACCURATE,
    MULTI_COUNTING,
    OVERCOUNTING,
    UNRELIABLE,
    CampaignConfig,
    run_campaign,
)
from tests.vet.conftest import FORGE_TARGET


class TestHealthyCampaign:
    def test_refutes_nothing(self, healthy_report):
        # The hard requirement behind the tolerance design: conservative
        # bands (no sqrt-repetitions gain, z=4) must never refute a
        # counter that honours its documentation, however noisy.
        assert healthy_report.refuted_events() == []

    def test_vets_a_substantial_set(self, healthy_report):
        assert healthy_report.verdict_counts()[ACCURATE] >= 50

    def test_unvetted_disjoint_from_verdicts(self, healthy_report):
        assert not set(healthy_report.unvetted) & set(healthy_report.verdicts)

    def test_verdicts_carry_observations(self, healthy_report):
        for verdict in healthy_report.verdicts.values():
            assert verdict.n_observations > 0 or verdict.ghost_rows > 0

    def test_provenance(self, healthy_report, campaign_config):
        assert healthy_report.system == "aurora"
        assert healthy_report.arch == "aurora-spr"
        assert healthy_report.seed == campaign_config.seed
        assert healthy_report.domains == ("cpu_flops",)
        assert "cpu_flops" in healthy_report.probes


class TestForgedCampaign:
    def test_overcount_refuted(self, forged_report):
        verdict = forged_report.verdicts[FORGE_TARGET]
        assert verdict.verdict == OVERCOUNTING
        assert verdict.refuted
        assert verdict.ratio_median == pytest.approx(1.5, rel=1e-6)

    def test_only_the_forged_event_refuted(self, forged_report):
        assert forged_report.refuted_events() == [FORGE_TARGET]

    def test_multicount_classified_by_integer_ratio(self, campaign_config):
        report = run_campaign(
            "aurora",
            campaign_config,
            forge={FORGE_TARGET: ("multicount", 3.0)},
        )
        verdict = report.verdicts[FORGE_TARGET]
        assert verdict.verdict == MULTI_COUNTING
        assert "3x" in "; ".join(verdict.reasons)

    def test_unreliable_wobble_classified(self, campaign_config):
        report = run_campaign(
            "aurora",
            campaign_config,
            forge={FORGE_TARGET: ("unreliable", 0.5)},
        )
        assert report.verdicts[FORGE_TARGET].verdict == UNRELIABLE


class TestDeterminism:
    def test_same_seed_same_verdicts(self, healthy_report, campaign_config):
        again = run_campaign("aurora", campaign_config)
        assert again.to_payload() == healthy_report.to_payload()
        assert again.content_digest() == healthy_report.content_digest()


class TestValidation:
    def test_unknown_system_raises(self, campaign_config):
        with pytest.raises(KeyError, match="unknown system"):
            run_campaign("cray", campaign_config)

    def test_unmeasurable_domain_raises(self):
        config = CampaignConfig(domains=("gpu_flops",))
        with pytest.raises(KeyError, match="not probed"):
            run_campaign("aurora", config)

    def test_config_bounds(self):
        with pytest.raises(ValueError):
            CampaignConfig(n_configs=0)
        with pytest.raises(ValueError):
            CampaignConfig(repetitions=1)
        with pytest.raises(ValueError):
            CampaignConfig(min_tolerance=0.0)
