"""Tests for the cross-architecture portability matrix."""

import pytest

from repro.core import AnalysisPipeline
from repro.core.crossarch import portability_matrix
from repro.hardware import aurora_node
from repro.hardware.systems import frontier_cpu_node


@pytest.fixture(scope="module")
def matrix():
    intel = AnalysisPipeline.for_domain("cpu_flops", aurora_node()).run()
    amd = AnalysisPipeline.for_domain("cpu_flops", frontier_cpu_node()).run()
    return portability_matrix([("spr", intel), ("zen3", amd)])


@pytest.fixture(scope="module")
def branch_matrix():
    intel = AnalysisPipeline.for_domain("branch", aurora_node()).run()
    amd = AnalysisPipeline.for_domain("branch", frontier_cpu_node()).run()
    return portability_matrix([("spr", intel), ("zen3", amd)])


class TestFlopsPortability:
    def test_shape(self, matrix):
        assert matrix.architectures == ["spr", "zen3"]
        assert len(matrix.metrics) == 6

    def test_spr_composes_precision_metrics_zen_does_not(self, matrix):
        for name in ("SP Ops.", "DP Ops.", "SP Instrs.", "DP Instrs."):
            assert matrix.cell(name, "spr").composable, name
            assert not matrix.cell(name, "zen3").composable, name

    def test_fma_uncomposable_everywhere(self, matrix):
        assert set(matrix.uncomposable_everywhere()) == {
            "SP FMA Instrs.",
            "DP FMA Instrs.",
        }

    def test_no_universal_flops_metric_between_spr_and_zen(self, matrix):
        # The portability pain the paper motivates, quantified.
        assert matrix.universal_metrics() == []

    def test_vocabulary_completely_disjoint(self, matrix):
        assert matrix.vocabulary_overlap() == 0.0

    def test_markdown_rendering(self, matrix):
        text = matrix.to_markdown()
        assert "DP Ops." in text
        assert "spr (error)" in text
        assert "NO" in text and "yes" in text


class TestBranchPortability:
    def test_six_universal_branch_metrics(self, branch_matrix):
        universal = set(branch_matrix.universal_metrics())
        assert len(universal) == 6
        assert "Conditional Branches Executed." not in universal

    def test_executed_uncomposable_everywhere(self, branch_matrix):
        assert branch_matrix.uncomposable_everywhere() == [
            "Conditional Branches Executed."
        ]

    def test_same_concept_different_events(self, branch_matrix):
        spr = branch_matrix.cell("Conditional Branches Taken.", "spr")
        zen = branch_matrix.cell("Conditional Branches Taken.", "zen3")
        assert spr.composable and zen.composable
        assert set(spr.events).isdisjoint(zen.events)


class TestValidation:
    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            portability_matrix([])

    def test_duplicate_labels_rejected(self):
        result = AnalysisPipeline.for_domain("branch", aurora_node()).run()
        with pytest.raises(ValueError):
            portability_matrix([("a", result), ("a", result)])

    def test_missing_metric_recorded_as_uncomposable(self):
        flops = AnalysisPipeline.for_domain("cpu_flops", aurora_node()).run()
        branch = AnalysisPipeline.for_domain("branch", aurora_node()).run()
        matrix = portability_matrix([("flops", flops), ("branch", branch)])
        cell = matrix.cell("DP Ops.", "branch")
        assert not cell.composable and cell.error == 1.0

    def test_unknown_cell_lookup(self, matrix):
        with pytest.raises(KeyError):
            matrix.cell("DP Ops.", "power10")
