"""Verdict taxonomy and validation-report serialization."""

import pytest

from repro.vet import (
    ACCURATE,
    MULTI_COUNTING,
    OVERCOUNTING,
    REFUTED_VERDICTS,
    UNDERCOUNTING,
    UNRELIABLE,
    UNVETTED,
    VERDICTS,
    EventVerdict,
    ValidationReport,
)


class TestTaxonomy:
    def test_refuted_set_matches_roehl(self):
        assert set(REFUTED_VERDICTS) == {
            OVERCOUNTING,
            UNDERCOUNTING,
            MULTI_COUNTING,
            UNRELIABLE,
        }
        assert ACCURATE not in REFUTED_VERDICTS
        assert UNVETTED not in REFUTED_VERDICTS

    def test_every_refuted_verdict_is_a_verdict(self):
        assert set(REFUTED_VERDICTS) < set(VERDICTS)

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValueError, match="unknown verdict"):
            EventVerdict(event="E", verdict="suspicious")

    def test_refuted_property(self):
        assert EventVerdict(event="E", verdict=OVERCOUNTING).refuted
        assert not EventVerdict(event="E", verdict=ACCURATE).refuted
        assert not EventVerdict(event="E", verdict=UNVETTED).refuted


class TestEventVerdict:
    def test_payload_round_trip(self):
        verdict = EventVerdict(
            event="PAPI_TOT_INS",
            verdict=MULTI_COUNTING,
            ratio_median=2.0,
            ratio_min=1.98,
            ratio_max=2.02,
            tolerance=0.03,
            n_observations=24,
            n_deviating=24,
            ghost_rows=1,
            reasons=("counts 2x per documented occurrence",),
        )
        assert EventVerdict.from_payload(verdict.to_payload()) == verdict

    def test_describe_names_event_and_verdict(self):
        verdict = EventVerdict(
            event="E", verdict=UNDERCOUNTING, ratio_median=0.5
        )
        text = verdict.describe()
        assert "E" in text and UNDERCOUNTING in text and "0.5" in text


def _report():
    return ValidationReport(
        arch="aurora-spr",
        system="aurora",
        seed=7,
        n_configs=2,
        domains=("cpu_flops",),
        probes=("cpu_flops",),
        verdicts={
            "GOOD": EventVerdict(event="GOOD", verdict=ACCURATE),
            "BAD": EventVerdict(
                event="BAD", verdict=OVERCOUNTING, ratio_median=1.5
            ),
        },
        unvetted=("NEVER_SEEN",),
    )


class TestValidationReport:
    def test_refuted_and_accurate_partitions(self):
        report = _report()
        assert report.refuted_events() == ["BAD"]
        accurate = [n for n, v in report.verdicts.items() if v.verdict == ACCURATE]
        assert accurate == ["GOOD"]

    def test_verdict_counts_include_unvetted(self):
        counts = _report().verdict_counts()
        assert counts[ACCURATE] == 1
        assert counts[OVERCOUNTING] == 1
        assert counts[UNVETTED] == 1

    def test_source_is_reproducible_provenance(self):
        assert _report().source == "vet-campaign[aurora/aurora-spr seed=7 configs=2]"

    def test_summary_lists_refuted(self):
        summary = _report().summary()
        assert "refuted events:" in summary
        assert "BAD" in summary

    def test_save_load_round_trip(self, tmp_path):
        report = _report()
        path = report.save(tmp_path / "report.json")
        loaded = ValidationReport.load(path)
        assert loaded.to_payload() == report.to_payload()
        assert loaded.content_digest() == report.content_digest()

    def test_newer_format_rejected(self):
        payload = _report().to_payload()
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="newer"):
            ValidationReport.from_payload(payload)
