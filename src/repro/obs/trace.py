"""Span-based tracing and named counters for the analysis pipeline.

The pipeline is a chain of numerically delicate stages whose intermediate
decisions — which events survived the noise filter, which columns QRCP
pivoted, which guard rungs fired, which cache entries hit — are invisible
from the outside.  This module gives every layer a lightweight way to
record them:

* **Spans** nest like call frames: ``with tracer.span("qrcp") as span``
  opens a timed region (monotonic ``perf_counter_ns``), and structured
  attributes attach via ``span.set(rank=4)``.
* **Counters** are named totals (``tracer.incr("qrcp.pivots", rank)``);
  every name the repo emits is catalogued in ``docs/observability.md``.
* **The ambient tracer** (:func:`get_tracer`) is how instrumented code
  finds its destination.  By default it is :data:`NULL_TRACER`, whose
  every operation is a constant-time no-op — the instrumentation hooks
  must cost nothing when nobody is looking (benchmarked in
  ``benchmarks/bench_obs_overhead.py``).  :func:`tracing` activates a
  real tracer for a scope.

Determinism contract: tracing never touches a random stream, never
reorders a computation, and never feeds anything back into the analysis,
so a traced run's numerical outputs are bit-identical to an untraced one
(property-tested).  Span ids are derived from the span's path, occurrence
index and the tracer seed — never from wall-clock time or object
identity — so two runs of the same configuration produce the same ids.
Durations are monotonic-clock *deltas* (the only non-deterministic field;
golden tests pin counter totals, not timings).

The ambient-tracer stack is thread-local: a tracer activated on one
thread is invisible to others, so a thread-pool sweep under tracing
records the coordinator's spans without data races in the workers.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Union

__all__ = [
    "NULL_TRACER",
    "Span",
    "Trace",
    "Tracer",
    "get_tracer",
    "tracing",
]

#: Attribute/counter values must stay JSON-scalar so traces round-trip
#: losslessly through the canonical JSONL form.
Scalar = Union[str, int, float, bool, None]
_SCALAR_TYPES = (str, int, float, bool, type(None))


def _check_scalar(name: str, value: Any) -> Any:
    if isinstance(value, _SCALAR_TYPES):
        return value
    raise TypeError(
        f"trace attribute {name!r} must be a JSON scalar "
        f"(str/int/float/bool/None), got {type(value).__name__}"
    )


def span_id(seed: int, path: str, occurrence: int) -> str:
    """Deterministic span id: a digest of ``(seed, path, occurrence)``.

    No wall-clock, no object identity — two runs of the same
    configuration assign the same id to the same span.
    """
    from repro.io.digest import sha256_hex

    return sha256_hex(f"{seed}:{path}#{occurrence}", length=12)


@dataclass
class Span:
    """One recorded region: a node of the trace tree.

    ``path`` is the ``/``-joined names from the root; ``index`` is the
    global start order (the JSONL line order); ``duration_ns`` is a
    monotonic-clock delta, filled when the region closes.
    """

    name: str
    path: str
    id: str
    parent: Optional[str]
    index: int
    depth: int
    duration_ns: int = 0
    attrs: Dict[str, Scalar] = field(default_factory=dict)

    def set(self, **attrs: Scalar) -> "Span":
        """Attach structured attributes (JSON scalars only)."""
        for key, value in attrs.items():
            self.attrs[key] = _check_scalar(key, value)
        return self


class _NullSpan:
    """The disabled-path span: every operation is a no-op.

    A single shared instance backs every ``tracer.span(...)`` call on a
    disabled tracer, so the hot path allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs: Scalar) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager that records one :class:`Span` on a live tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Scalar]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Optional[Span] = None
        self._start = 0

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attrs)
        self._start = _clock()
        return self._span

    def __exit__(self, *exc) -> bool:
        elapsed = _clock() - self._start
        self._tracer._close(self._span, elapsed)
        return False


_clock = time.perf_counter_ns


class Tracer:
    """Collects spans and counters for one observed scope.

    With ``enabled=False`` every method returns immediately (``span``
    hands back the shared :data:`NULL_SPAN`); :data:`NULL_TRACER` is the
    module-wide disabled instance the ambient lookup falls back to.
    """

    def __init__(self, seed: int = 0, enabled: bool = True):
        self.seed = int(seed)
        self.enabled = bool(enabled)
        self.spans: List[Span] = []
        self.counters: Dict[str, Union[int, float]] = {}
        self._stack: List[Span] = []
        self._occurrences: Dict[str, int] = {}

    # -- recording -----------------------------------------------------
    def span(self, name: str, **attrs: Scalar):
        """A context manager timing one region (no-op when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return _SpanContext(self, name, attrs)

    def incr(self, name: str, value: Union[int, float] = 1) -> None:
        """Add ``value`` to the named counter (no-op when disabled)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + value

    # -- internals -----------------------------------------------------
    def _open(self, name: str, attrs: Dict[str, Scalar]) -> Span:
        name = name.replace("/", "-")
        parent = self._stack[-1] if self._stack else None
        path = f"{parent.path}/{name}" if parent is not None else name
        occurrence = self._occurrences.get(path, 0)
        self._occurrences[path] = occurrence + 1
        span = Span(
            name=name,
            path=path,
            id=span_id(self.seed, path, occurrence),
            parent=parent.id if parent is not None else None,
            index=len(self.spans),
            depth=len(self._stack),
        )
        for key, value in attrs.items():
            span.attrs[key] = _check_scalar(key, value)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Optional[Span], elapsed_ns: int) -> None:
        if span is None:
            return
        span.duration_ns = int(elapsed_ns)
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    # -- export --------------------------------------------------------
    def trace(self) -> "Trace":
        """A snapshot of everything recorded so far."""
        return Trace(
            seed=self.seed,
            spans=list(self.spans),
            counters=dict(self.counters),
        )


NULL_TRACER = Tracer(enabled=False)

_local = threading.local()


def _stack() -> List[Tracer]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def get_tracer() -> Tracer:
    """The ambient tracer of the calling thread (:data:`NULL_TRACER`
    when no :func:`tracing` scope is active)."""
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else NULL_TRACER


@contextmanager
def tracing(
    seed: int = 0, tracer: Optional[Tracer] = None
) -> Iterator[Tracer]:
    """Activate a tracer for the enclosed scope (this thread only).

    Instrumented code reached inside the ``with`` block records into it::

        with obs.tracing(seed=2024) as tracer:
            result = pipeline.run()
        print(tracer.trace().render())
    """
    active = tracer if tracer is not None else Tracer(seed=seed)
    stack = _stack()
    stack.append(active)
    try:
        yield active
    finally:
        stack.pop()


def _canonical(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass
class Trace:
    """A finished trace: the span tree plus counter totals.

    The JSONL form is canonical (sorted keys, fixed separators, one
    record per line), so ``from_jsonl(trace.to_jsonl()).to_jsonl()`` is
    byte-identical to ``trace.to_jsonl()`` — the round-trip property the
    golden suite and the ``repro-cat trace`` CLI rely on.
    """

    seed: int
    spans: List[Span] = field(default_factory=list)
    counters: Dict[str, Union[int, float]] = field(default_factory=dict)

    VERSION = 1

    # -- queries -------------------------------------------------------
    def counter_totals(self) -> Dict[str, Union[int, float]]:
        """Counters in name order (the golden-pinned totals)."""
        return dict(sorted(self.counters.items()))

    def children(self, span: Optional[Span]) -> List[Span]:
        parent_id = span.id if span is not None else None
        return [s for s in self.spans if s.parent == parent_id]

    def stage_timings(self) -> Dict[str, int]:
        """Aggregate duration (ns) per stage name, first-seen order.

        "Stages" are the depth-1 spans — the direct children of the
        pipeline root(s); repeated stages (several runs sharing one
        tracer) sum.
        """
        timings: Dict[str, int] = {}
        for span in self.spans:
            if span.depth == 1:
                timings[span.name] = timings.get(span.name, 0) + span.duration_ns
        return timings

    def footer(self) -> str:
        """One-line stage-timing summary for ``PipelineResult.summary``."""
        timings = self.stage_timings()
        if not timings:
            return f"trace: {len(self.spans)} span(s), no stage breakdown"
        parts = [f"{name} {_fmt_ns(ns)}" for name, ns in timings.items()]
        return (
            "trace: "
            + " | ".join(parts)
            + f"  ({len(self.spans)} spans, {len(self.counters)} counters)"
        )

    # -- JSONL ---------------------------------------------------------
    def to_jsonl(self) -> str:
        """Canonical JSONL: header line, spans in start order, counters
        in name order.  Deterministic except ``duration_ns``."""
        lines = [
            _canonical(
                {
                    "counters": len(self.counters),
                    "seed": self.seed,
                    "spans": len(self.spans),
                    "type": "header",
                    "version": self.VERSION,
                }
            )
        ]
        for span in self.spans:
            lines.append(
                _canonical(
                    {
                        "attrs": span.attrs,
                        "depth": span.depth,
                        "duration_ns": span.duration_ns,
                        "id": span.id,
                        "index": span.index,
                        "name": span.name,
                        "parent": span.parent,
                        "path": span.path,
                        "type": "span",
                    }
                )
            )
        for name in sorted(self.counters):
            lines.append(
                _canonical(
                    {"name": name, "type": "counter", "value": self.counters[name]}
                )
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Parse the JSONL form back into a :class:`Trace`.

        Raises ``ValueError`` on a malformed document (missing header,
        unknown record type, truncated line) so callers can distinguish
        "not a trace" from I/O errors.
        """
        seed = 0
        spans: List[Span] = []
        counters: Dict[str, Union[int, float]] = {}
        saw_header = False
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"trace line {lineno} is not JSON: {exc}") from None
            kind = record.get("type")
            if kind == "header":
                saw_header = True
                seed = int(record.get("seed", 0))
                version = record.get("version")
                if version != cls.VERSION:
                    raise ValueError(
                        f"unsupported trace version {version!r} "
                        f"(this reader speaks {cls.VERSION})"
                    )
            elif kind == "span":
                spans.append(
                    Span(
                        name=record["name"],
                        path=record["path"],
                        id=record["id"],
                        parent=record["parent"],
                        index=int(record["index"]),
                        depth=int(record["depth"]),
                        duration_ns=int(record["duration_ns"]),
                        attrs=dict(record.get("attrs", {})),
                    )
                )
            elif kind == "counter":
                counters[record["name"]] = record["value"]
            else:
                raise ValueError(
                    f"trace line {lineno} has unknown record type {kind!r}"
                )
        if not saw_header:
            raise ValueError("not a trace: no header record found")
        spans.sort(key=lambda s: s.index)
        return cls(seed=seed, spans=spans, counters=counters)

    def render(self, show_counters: bool = True) -> str:
        """Human-readable summary tree (see :mod:`repro.obs.render`)."""
        from repro.obs.render import render_trace

        return render_trace(self, show_counters=show_counters)


def _fmt_ns(ns: int) -> str:
    """Compact human duration: ns -> us/ms/s with 3 significant digits."""
    if ns < 1_000:
        return f"{ns}ns"
    if ns < 1_000_000:
        return f"{ns / 1_000:.3g}us"
    if ns < 1_000_000_000:
        return f"{ns / 1_000_000:.3g}ms"
    return f"{ns / 1_000_000_000:.3g}s"
