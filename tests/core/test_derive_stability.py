"""Tests for whole-node preset derivation and the stability harness."""

import pytest

from repro.core import AnalysisPipeline
from repro.core.derive import applicable_domains, derive_presets
from repro.core.stability import selection_stability
from repro.hardware import aurora_node, frontier_node


class TestApplicableDomains:
    def test_cpu_node(self):
        assert applicable_domains(aurora_node()) == (
            "cpu_flops",
            "branch",
            "dcache",
            "dtlb",
        )

    def test_gpu_node(self):
        assert applicable_domains(frontier_node()) == ("gpu_flops",)


class TestDerivePresets:
    @pytest.fixture(scope="class")
    def report(self):
        # Two fast domains keep the test quick; the full four-domain run is
        # exercised by the CLI test and the benches.
        return derive_presets(aurora_node(), domains=("cpu_flops", "branch"))

    def test_merges_domains(self, report):
        names = {p.name for p in report.presets}
        assert "PAPI_DP_OPS" in names
        assert "PAPI_BR_MSP" in names

    def test_records_uncomposable(self, report):
        flat = {(domain, metric) for domain, metric, _ in report.uncomposable}
        assert ("cpu_flops", "DP FMA Instrs.") in flat
        assert ("branch", "Conditional Branches Executed.") in flat

    def test_results_kept_per_domain(self, report):
        assert set(report.results) == {"cpu_flops", "branch"}

    def test_summary_renders(self, report):
        text = report.summary()
        assert "aurora-spr" in text
        assert "not composable" in text

    def test_presets_have_clean_coefficients(self, report):
        for preset in report.presets:
            for coeff in preset.terms.values():
                assert coeff == round(coeff), (preset.name, coeff)

    def test_gpu_node_derivation(self):
        report = derive_presets(frontier_node())
        assert len(report.presets) == 4
        assert all("rocm:::" in e for p in report.presets for e in p.native_events)


class TestSelectionStability:
    def test_branch_selection_deterministic_across_seeds(self):
        report = selection_stability(
            lambda seed: aurora_node(seed=seed), "branch", seeds=[1, 2, 3]
        )
        assert report.is_deterministic
        families = report.carrier_families()
        assert families["M"] == ["BR_MISP_RETIRED"]
        assert families["CR"] == ["BR_INST_RETIRED:COND"]

    def test_dcache_carriers_form_coherent_families(self):
        report = selection_stability(
            lambda seed: aurora_node(seed=seed), "dcache", seeds=[1, 7, 1234]
        )
        families = report.carrier_families()
        # Unique-carrier dimensions never vary...
        assert families["L1DH"] == ["MEM_LOAD_RETIRED:L1_HIT"]
        assert families["L2DH"] == ["L2_RQSTS:DEMAND_DATA_RD_HIT"]
        assert families["L3DH"] == ["MEM_LOAD_RETIRED:L3_HIT"]
        # ...while the L1DM dimension may ride any equivalent carrier.
        allowed = {
            "MEM_LOAD_RETIRED:L1_MISS",
            "L2_RQSTS:ALL_DEMAND_DATA_RD",
            "L2_RQSTS:ALL_DEMAND_REFERENCES",
            "OFFCORE_REQUESTS:DEMAND_DATA_RD",
        }
        assert set(families["L1DM"]) <= allowed

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            selection_stability(lambda s: aurora_node(seed=s), "branch", seeds=[])

    def test_summary_renders(self):
        report = selection_stability(
            lambda seed: aurora_node(seed=seed), "branch", seeds=[1, 2]
        )
        assert "deterministic selection" in report.summary()
