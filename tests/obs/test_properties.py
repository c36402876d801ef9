"""Property tests for the observability contract.

Two promises worth machine-checking:

1. Tracing is *observational*: a pipeline run inside an ``obs.tracing``
   scope is bit-identical — metrics, pivot order, guard stamps, raw
   coefficient bytes — to the same run with tracing disabled.
2. Trace export is *lossless*: ``Trace.from_jsonl(t.to_jsonl())``
   re-emits byte-equal JSONL, for arbitrary span trees and counter
   vocabularies (hypothesis-generated, not just the pipeline's).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import AnalysisPipeline
from repro.core.sweep import result_digest
from repro.guard import GuardConfig
from repro.hardware import aurora_node
from repro.linalg.lstsq import lstsq_qr
from repro.obs import Trace, Tracer


@pytest.fixture(scope="module")
def untraced():
    return AnalysisPipeline.for_domain("branch", aurora_node(seed=2024)).run()


@pytest.fixture(scope="module")
def traced():
    with obs.tracing(seed=2024):
        return AnalysisPipeline.for_domain("branch", aurora_node(seed=2024)).run()


class TestTracedBitIdentical:
    def test_result_digest_identical(self, traced, untraced):
        assert result_digest(traced) == result_digest(untraced)

    def test_qrcp_pivots_identical(self, traced, untraced):
        np.testing.assert_array_equal(
            traced.qrcp.permutation, untraced.qrcp.permutation
        )
        assert traced.selected_events == untraced.selected_events

    def test_coefficients_byte_identical(self, traced, untraced):
        assert set(traced.metrics) == set(untraced.metrics)
        for name in untraced.metrics:
            a = traced.metrics[name].coefficients
            b = untraced.metrics[name].coefficients
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            assert traced.metrics[name].error == untraced.metrics[name].error

    def test_guard_stamps_identical(self, traced, untraced):
        ha, hb = traced.qrcp.health, untraced.qrcp.health
        assert (ha is None) == (hb is None)
        if ha is not None:
            assert ha.guards_fired == hb.guards_fired
        for name in untraced.metrics:
            ta = traced.metrics[name].trust
            tb = untraced.metrics[name].trust
            assert (ta is None) == (tb is None)
            if ta is not None:
                assert ta.level == tb.level

    def test_trace_attached_only_when_tracing(self, traced, untraced):
        assert untraced.trace is None
        assert traced.trace is not None
        stages = {s.name for s in traced.trace.spans}
        for stage in (
            "pipeline",
            "measure",
            "noise-filter",
            "qrcp",
            "compose",
            "lstsq",
        ):
            assert stage in stages


class TestGuardLadderBitIdentical:
    """The fallback ladder fires guard.fired.* counters; the solution and
    the recorded guard stamps must not depend on whether anyone listens."""

    def make_system(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((24, 6))
        a[:, 5] = a[:, 0] + 1e-9 * rng.standard_normal(24)  # near-collinear
        b = rng.standard_normal(24)
        return a, b

    def test_solution_and_stamps_identical(self):
        a, b = self.make_system()
        guard = GuardConfig(condition_threshold=1e3)
        plain = lstsq_qr(a, b, guard=guard)
        with obs.tracing() as tracer:
            watched = lstsq_qr(a, b, guard=guard)
        assert plain.health is not None and plain.health.guards_fired
        assert watched.health.guards_fired == plain.health.guards_fired
        assert watched.x.tobytes() == plain.x.tobytes()
        assert watched.backward_error == plain.backward_error
        fired = {
            name: count
            for name, count in tracer.counters.items()
            if name.startswith("guard.fired.")
        }
        assert sum(fired.values()) == len(plain.health.guards_fired)


# --- hypothesis: JSONL round-trip over arbitrary traces -------------------

COUNTER_NAMES = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"), whitelist_characters="._-"),
    min_size=1,
    max_size=24,
)
SPAN_NAMES = st.text(
    alphabet=st.sampled_from("abcdefghij-_"), min_size=1, max_size=12
)
SCALARS = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.text(max_size=20),
    st.none(),
)
ATTRS = st.dictionaries(
    st.text(alphabet=st.sampled_from("abcdexyz"), min_size=1, max_size=8),
    SCALARS,
    max_size=3,
)


@st.composite
def trace_programs(draw):
    """A random program: nested span opens/closes plus counters."""
    ops = []
    depth = 0
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        kind = draw(st.sampled_from(("open", "close", "incr")))
        if kind == "open":
            ops.append(("open", draw(SPAN_NAMES), draw(ATTRS)))
            depth += 1
        elif kind == "close" and depth > 0:
            ops.append(("close",))
            depth -= 1
        elif kind == "incr":
            ops.append(
                ("incr", draw(COUNTER_NAMES), draw(st.integers(0, 10**6)))
            )
    ops.extend([("close",)] * depth)
    return ops


def run_program(ops, seed):
    tracer = Tracer(seed=seed)
    stack = []
    for op in ops:
        if op[0] == "open":
            ctx = tracer.span(op[1], **op[2])
            ctx.__enter__()
            stack.append(ctx)
        elif op[0] == "close":
            stack.pop().__exit__(None, None, None)
        elif op[0] == "incr":
            tracer.incr(op[1], op[2])
    return tracer.trace()


@given(ops=trace_programs(), seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=150, deadline=None)
def test_jsonl_round_trip_byte_equal(ops, seed):
    trace = run_program(ops, seed)
    text = trace.to_jsonl()
    restored = Trace.from_jsonl(text)
    assert restored.to_jsonl() == text


@given(ops=trace_programs(), seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50, deadline=None)
def test_round_trip_preserves_semantics(ops, seed):
    trace = run_program(ops, seed)
    restored = Trace.from_jsonl(trace.to_jsonl())
    assert restored.seed == trace.seed
    assert restored.counter_totals() == trace.counter_totals()
    assert [(s.id, s.path, s.parent, s.depth, s.duration_ns) for s in restored.spans] \
        == [(s.id, s.path, s.parent, s.depth, s.duration_ns) for s in trace.spans]
