"""The paper's analysis pipeline: bases, noise filtering, specialized QRCP,
and least-squares metric composition."""

from repro.core.basis import (
    BRANCH_EXPECTATION_MATRIX,
    ExpectationBasis,
    branch_basis,
    cpu_flops_basis,
    dcache_basis,
    dtlb_basis,
    gpu_flops_basis,
)
from repro.core.stability import StabilityReport, selection_stability
from repro.core.derive import (
    DerivationReport,
    applicable_domains,
    derive_presets,
)
from repro.core.crossarch import (
    PortabilityCell,
    PortabilityMatrix,
    portability_matrix,
)
from repro.core.metrics import MetricDefinition, compose_metric, round_coefficients
from repro.core.noise_filter import (
    NoiseReport,
    analyze_noise,
    batch_max_rnmse,
    max_rnmse,
)
from repro.core.pipeline import AnalysisPipeline, PipelineConfig, PipelineResult
from repro.core.sweep import (
    SweepCheckpoint,
    SweepEngine,
    SweepOutcome,
    SweepTask,
    expand_grid,
    result_digest,
    results_by_label,
)
from repro.core.qrcp import QRCPResult, qrcp_specialized, qrcp_standard
from repro.core.report import metric_table_rows, render_report, write_report
from repro.core.representation import RepresentationReport, represent_events
from repro.core.rounding import round_to_tolerance, score_column, score_columns
from repro.core.validation import (
    MetricValidation,
    dimension_activity_keys,
    ground_truth,
    validate_definition,
)
from repro.core.thresholds import (
    AlphaSelection,
    TauSelection,
    select_alpha,
    select_tau,
)
from repro.core.signatures import (
    Signature,
    branch_signatures,
    cpu_flops_signatures,
    dcache_signatures,
    dtlb_signatures,
    gpu_flops_signatures,
    signatures_for,
)

__all__ = [
    "AlphaSelection",
    "AnalysisPipeline",
    "BRANCH_EXPECTATION_MATRIX",
    "TauSelection",
    "MetricValidation",
    "DerivationReport",
    "StabilityReport",
    "selection_stability",
    "applicable_domains",
    "derive_presets",
    "PortabilityCell",
    "PortabilityMatrix",
    "portability_matrix",
    "dimension_activity_keys",
    "ground_truth",
    "metric_table_rows",
    "validate_definition",
    "render_report",
    "select_alpha",
    "select_tau",
    "write_report",
    "ExpectationBasis",
    "MetricDefinition",
    "NoiseReport",
    "PipelineConfig",
    "PipelineResult",
    "QRCPResult",
    "RepresentationReport",
    "Signature",
    "SweepCheckpoint",
    "SweepEngine",
    "SweepOutcome",
    "SweepTask",
    "analyze_noise",
    "batch_max_rnmse",
    "expand_grid",
    "result_digest",
    "results_by_label",
    "branch_basis",
    "branch_signatures",
    "compose_metric",
    "cpu_flops_basis",
    "cpu_flops_signatures",
    "dcache_basis",
    "dtlb_basis",
    "dcache_signatures",
    "dtlb_signatures",
    "gpu_flops_basis",
    "gpu_flops_signatures",
    "max_rnmse",
    "qrcp_specialized",
    "qrcp_standard",
    "represent_events",
    "round_coefficients",
    "round_to_tolerance",
    "score_column",
    "score_columns",
    "signatures_for",
]
