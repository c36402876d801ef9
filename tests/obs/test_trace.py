"""Unit tests for the tracing core: spans, counters, ids, JSONL, render."""

import threading

import pytest

from repro import obs
from repro.obs import NULL_TRACER, Span, Trace, Tracer, get_tracer, span_id
from repro.obs.trace import NULL_SPAN


class TestTracer:
    def test_disabled_tracer_is_all_noops(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("anything") is NULL_SPAN
        tracer.incr("c")
        assert tracer.counters == {}
        assert tracer.spans == []

    def test_null_span_accepts_set_and_context(self):
        with NULL_TRACER.span("x") as span:
            assert span.set(a=1) is span

    def test_span_nesting_paths_and_depths(self):
        tracer = Tracer(seed=7)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        paths = [(s.path, s.depth) for s in tracer.spans]
        assert paths == [("outer", 0), ("outer/inner", 1), ("outer/inner", 1)]
        inner1, inner2 = tracer.spans[1], tracer.spans[2]
        assert inner1.parent == tracer.spans[0].id
        assert inner1.id != inner2.id  # occurrence disambiguates

    def test_span_ids_are_deterministic_functions_of_seed_and_path(self):
        a, b = Tracer(seed=7), Tracer(seed=7)
        for tracer in (a, b):
            with tracer.span("pipeline"):
                with tracer.span("measure"):
                    pass
        assert [s.id for s in a.spans] == [s.id for s in b.spans]
        assert a.spans[0].id == span_id(7, "pipeline", 0)
        c = Tracer(seed=8)
        with c.span("pipeline"):
            pass
        assert c.spans[0].id != a.spans[0].id

    def test_counters_accumulate(self):
        tracer = Tracer()
        tracer.incr("n")
        tracer.incr("n", 4)
        assert tracer.counters == {"n": 5}

    def test_non_scalar_attr_rejected(self):
        tracer = Tracer()
        with pytest.raises(TypeError, match="JSON scalar"):
            with tracer.span("s", bad=[1, 2]):
                pass

    def test_slash_in_span_name_sanitized(self):
        tracer = Tracer()
        with tracer.span("a/b"):
            pass
        assert tracer.spans[0].name == "a-b"
        assert tracer.spans[0].path == "a-b"

    def test_durations_are_monotonic_nonnegative(self):
        tracer = Tracer()
        with tracer.span("timed"):
            pass
        assert tracer.spans[0].duration_ns >= 0


class TestAmbientStack:
    def test_default_is_null_tracer(self):
        assert get_tracer() is NULL_TRACER

    def test_tracing_scope_activates_and_restores(self):
        with obs.tracing(seed=1) as tracer:
            assert get_tracer() is tracer
            with obs.tracing(seed=2) as nested:
                assert get_tracer() is nested
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_stack_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with obs.tracing():
                raise RuntimeError("boom")
        assert get_tracer() is NULL_TRACER

    def test_stack_is_thread_local(self):
        seen = {}

        def probe():
            seen["tracer"] = get_tracer()

        with obs.tracing():
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen["tracer"] is NULL_TRACER


class TestTraceExport:
    def make_trace(self) -> Trace:
        tracer = Tracer(seed=11)
        with tracer.span("pipeline", domain="branch"):
            with tracer.span("measure") as span:
                span.set(events=3)
            with tracer.span("qrcp"):
                pass
        tracer.incr("qrcp.pivots", 4)
        return tracer.trace()

    def test_jsonl_round_trip_is_byte_equal(self):
        trace = self.make_trace()
        text = trace.to_jsonl()
        assert Trace.from_jsonl(text).to_jsonl() == text

    def test_header_counts_match_body(self):
        import json

        lines = self.make_trace().to_jsonl().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert header["spans"] == 3
        assert header["counters"] == 1
        assert "gauges" not in header
        assert len(lines) == 1 + 3 + 1

    def test_reads_a_trace_with_a_gauge_count_in_its_header(self):
        # Traces written before gauges were dropped carry "gauges": 0.
        text = (
            '{"counters":1,"gauges":0,"seed":11,"spans":2,"type":"header",'
            '"version":1}\n'
            '{"attrs":{"domain":"branch"},"depth":0,"duration_ns":1000,'
            '"id":"d28e679665bd","index":0,"name":"pipeline","parent":null,'
            '"path":"pipeline","type":"span"}\n'
            '{"attrs":{"events":3},"depth":1,"duration_ns":1000,'
            '"id":"3b8b44139350","index":1,"name":"measure",'
            '"parent":"d28e679665bd","path":"pipeline/measure","type":"span"}\n'
            '{"name":"qrcp.pivots","type":"counter","value":4}\n'
        )
        trace = Trace.from_jsonl(text)
        assert trace.seed == 11
        assert [s.path for s in trace.spans] == ["pipeline", "pipeline/measure"]
        assert trace.spans[1].attrs == {"events": 3}
        assert trace.counters == {"qrcp.pivots": 4}
        # Re-exported, it differs only by the dropped header count.
        assert trace.to_jsonl() == text.replace('"gauges":0,', "")

    def test_from_jsonl_rejects_garbage(self):
        with pytest.raises(ValueError, match="not JSON"):
            Trace.from_jsonl("not json at all\n")
        with pytest.raises(ValueError, match="no header"):
            Trace.from_jsonl(
                '{"name":"c","type":"counter","value":1}\n'
            )
        with pytest.raises(ValueError, match="unknown record type"):
            Trace.from_jsonl(
                '{"counters":0,"gauges":0,"seed":0,"spans":0,'
                '"type":"header","version":1}\n{"type":"mystery"}\n'
            )
        with pytest.raises(ValueError, match="version"):
            Trace.from_jsonl(
                '{"counters":0,"gauges":0,"seed":0,"spans":0,'
                '"type":"header","version":99}\n'
            )

    def test_stage_timings_aggregate_depth_one(self):
        trace = self.make_trace()
        timings = trace.stage_timings()
        assert list(timings) == ["measure", "qrcp"]
        assert all(ns >= 0 for ns in timings.values())

    def test_footer_names_stages(self):
        footer = self.make_trace().footer()
        assert footer.startswith("trace: measure ")
        assert "qrcp" in footer
        assert "3 spans" in footer

    def test_render_tree_and_counters(self):
        text = self.make_trace().render()
        assert "pipeline" in text
        assert "|- measure" in text
        assert "`- qrcp" in text
        assert "qrcp.pivots" in text
        assert "domain=branch" in text

    def test_find_and_children(self):
        trace = self.make_trace()
        by_path = {s.path: s for s in trace.spans}
        root = by_path["pipeline"]
        assert [c.name for c in trace.children(root)] == ["measure", "qrcp"]
        assert by_path["pipeline/measure"].attrs == {"events": 3}

    def test_counter_totals_sorted(self):
        tracer = Tracer()
        tracer.incr("z")
        tracer.incr("a")
        assert list(tracer.trace().counter_totals()) == ["a", "z"]


class TestSpanDataclass:
    def test_set_returns_self_for_chaining(self):
        span = Span(name="s", path="s", id="x", parent=None, index=0, depth=0)
        assert span.set(a=1).set(b="y") is span
        assert span.attrs == {"a": 1, "b": "y"}
