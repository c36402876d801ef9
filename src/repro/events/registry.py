"""Event registry: the per-architecture catalog of raw events.

The registry is what a PAPI ``papi_native_avail`` sweep would produce on a
real machine: an ordered collection of uniquely named events, with lookup by
full name, filtering by domain or prefix, and stable deterministic ordering
(catalog insertion order), which the analysis relies on for reproducible
pivot tie-breaking.

For the measurement hot path the registry also exposes a *packed* weight
matrix (:meth:`EventRegistry.weight_matrix`): the dense ``(keys, events)``
matrix of every event's sparse response, built once per registry and cached,
so a sweep evaluates all true counts as one activity-matrix product instead
of a per-event Python loop (see ``docs/substrate.md``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.activity import Activity
from repro.events.model import RawEvent

__all__ = ["EventRegistry", "PackedWeights"]


def _has_linear_response(event: RawEvent) -> bool:
    """True when the event's true count is the stock linear functional.

    Subclasses may override :meth:`RawEvent.true_count` with an arbitrary
    (non-linear) response; those events cannot ride the weight-matrix path
    and fall back to scalar evaluation.
    """
    return type(event).true_count is RawEvent.true_count


class PackedWeights:
    """Dense weight-matrix form of a registry's event responses.

    Attributes
    ----------
    keys:
        Union of all response keys, in first-seen catalog order (the
        column coordinates of activity vectors).
    key_index:
        ``key -> position`` lookup consistent with ``keys``.
    events:
        The packed events, in registry order (the matrix columns).
    matrix:
        ``(len(keys), len(events))`` weight matrix W; true counts of a
        batch of activities A (``(samples, keys)``) are ``A @ W``.
    fallback:
        ``(column, event)`` pairs whose ``true_count`` is overridden
        (non-linear response): excluded from the vectorized product and
        evaluated scalar by callers.

    The vectorized product is evaluated *term-ordered*: mathematically it
    is exactly ``A @ W``, but the sum over each event's response keys is
    accumulated in response-declaration order, reproducing the scalar
    ``RawEvent.true_count`` summation bit-for-bit (a single BLAS matmul
    reorders the additions and can differ in the last ulp, which would
    break the reproducibility contract's scalar/vectorized equivalence).
    """

    def __init__(self, events: Sequence[RawEvent]):
        self.events: Tuple[RawEvent, ...] = tuple(events)
        keys: List[str] = []
        key_index: Dict[str, int] = {}
        for event in self.events:
            for key in event.response:
                if key not in key_index:
                    key_index[key] = len(keys)
                    keys.append(key)
        self.keys: Tuple[str, ...] = tuple(keys)
        self.key_index: Dict[str, int] = key_index

        self.matrix = np.zeros((len(keys), len(self.events)), dtype=np.float64)
        self.fallback: List[Tuple[int, RawEvent]] = []
        linear: List[int] = []
        for j, event in enumerate(self.events):
            if not _has_linear_response(event):
                self.fallback.append((j, event))
                continue
            linear.append(j)
            for key, weight in event.response.items():
                self.matrix[key_index[key], j] = weight
        self.linear_columns = np.asarray(linear, dtype=np.intp)

        # Term-ordered accumulation schedule: position t holds the t-th
        # (key, weight) response term of every linear event that has one.
        self._terms: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        per_event = [
            (j, list(event.response.items()))
            for j, event in enumerate(self.events)
            if _has_linear_response(event)
        ]
        depth = max((len(terms) for _, terms in per_event), default=0)
        for t in range(depth):
            cols = [(j, terms[t]) for j, terms in per_event if len(terms) > t]
            ev_idx = np.array([j for j, _ in cols], dtype=np.intp)
            k_idx = np.array(
                [key_index[key] for _, (key, _) in cols], dtype=np.intp
            )
            weights = np.array([w for _, (_, w) in cols], dtype=np.float64)
            self._terms.append((ev_idx, k_idx, weights))

    @property
    def n_keys(self) -> int:
        return len(self.keys)

    @property
    def n_events(self) -> int:
        return len(self.events)

    def pack_activities(self, activities: Sequence[Activity]) -> np.ndarray:
        """Stack activity records into a dense ``(samples, keys)`` matrix."""
        out = np.zeros((len(activities), len(self.keys)), dtype=np.float64)
        key_index = self.key_index
        for i, activity in enumerate(activities):
            row = out[i]
            for key, value in activity.items():
                pos = key_index.get(key)
                if pos is not None:
                    row[pos] = value
        return out

    def true_counts(self, activity_matrix: np.ndarray) -> np.ndarray:
        """All linear events' true counts for a batch of activities.

        ``activity_matrix`` is ``(samples, keys)`` in ``self.keys`` order
        (see :meth:`pack_activities`); returns ``(samples, events)``.
        Fallback columns (overridden ``true_count``) are left at zero —
        callers fill them scalar via :attr:`fallback`.
        """
        activity_matrix = np.asarray(activity_matrix, dtype=np.float64)
        if activity_matrix.ndim != 2 or activity_matrix.shape[1] != len(self.keys):
            raise ValueError(
                f"activity matrix must be (samples, {len(self.keys)}); "
                f"got shape {activity_matrix.shape}"
            )
        out = np.zeros(
            (activity_matrix.shape[0], len(self.events)), dtype=np.float64
        )
        for ev_idx, k_idx, weights in self._terms:
            out[:, ev_idx] += activity_matrix[:, k_idx] * weights
        return out


class EventRegistry:
    """Ordered, name-indexed collection of :class:`RawEvent` objects."""

    def __init__(self, events: Optional[Iterable[RawEvent]] = None, name: str = ""):
        self.name = name
        self._events: List[RawEvent] = []
        self._by_name: Dict[str, RawEvent] = {}
        self._packed: Optional[PackedWeights] = None
        self._content_digest: Optional[str] = None
        for event in events or ():
            self.add(event)

    # Construction ---------------------------------------------------------
    def add(self, event: RawEvent) -> None:
        """Register an event; duplicate full names are an error."""
        key = event.full_name
        if key in self._by_name:
            raise ValueError(f"duplicate event {key!r} in registry {self.name!r}")
        self._by_name[key] = event
        self._events.append(event)
        self._packed = None  # the cached weight matrix is now stale
        self._content_digest = None  # and so is the content digest

    def extend(self, events: Iterable[RawEvent]) -> None:
        for event in events:
            self.add(event)

    # Lookup ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[RawEvent]:
        return iter(self._events)

    def __contains__(self, full_name: str) -> bool:
        return full_name in self._by_name

    def get(self, full_name: str) -> RawEvent:
        """Look up an event by its PAPI-style full name."""
        try:
            return self._by_name[full_name]
        except KeyError:
            raise KeyError(
                f"event {full_name!r} not found in registry {self.name!r} "
                f"({len(self)} events)"
            ) from None

    @property
    def full_names(self) -> List[str]:
        """All full names in catalog order."""
        return [e.full_name for e in self._events]

    # Vectorization --------------------------------------------------------
    def weight_matrix(self) -> PackedWeights:
        """The packed ``(keys, events)`` weight matrix of this registry.

        Built once and cached; :meth:`add` invalidates the cache.  This is
        the measurement hot path's substrate: a benchmark's activities are
        packed into one matrix and multiplied against it, replacing the
        per-(thread, row, event) Python loop.
        """
        if self._packed is None:
            self._packed = PackedWeights(self._events)
        return self._packed

    # Content addressing ----------------------------------------------------
    def content_digest(self) -> str:
        """Digest of the whole registry's event content (order-sensitive).

        Built once and cached like :meth:`weight_matrix`; :meth:`add`
        invalidates it.  Catalog freshness checks call this on every read,
        so re-hashing a few hundred events per lookup would dominate the
        serve hot path.
        """
        if self._content_digest is None:
            from repro.io.cache import event_set_digest

            self._content_digest = event_set_digest(self._events)
        return self._content_digest

    def event_digests(
        self, domains: Optional[Sequence[str]] = None
    ) -> Dict[str, str]:
        """Per-event content digests: ``full name -> digest``.

        Each digest covers exactly one event's (name, response, noise)
        content — the dependency coordinates ``repro.incr`` tracks so a
        registry edit invalidates only the entries that consumed the
        edited event.  ``domains`` keeps only the events of those
        domains, in registry order (the map of ``select(domains=...)``
        without building the sub-registry).  Each digest is memoized on
        its event (:attr:`RawEvent.digest`), so this is one dict build;
        the dict is fresh, so callers can hold it across later registry
        mutation.
        """
        wanted = set(domains) if domains is not None else None
        return {
            event.full_name: event.digest[:16]
            for event in self._events
            if wanted is None or event.domain in wanted
        }

    # Filtering ------------------------------------------------------------
    def select(
        self,
        domains: Optional[Sequence[str]] = None,
        prefix: Optional[str] = None,
        device: Optional[int] = None,
        predicate: Optional[Callable[[RawEvent], bool]] = None,
    ) -> "EventRegistry":
        """Sub-registry of events matching all given filters.

        ``domains`` filters by :class:`~repro.events.model.EventDomain`;
        ``prefix`` matches the start of the full name; ``device`` matches
        the GPU device qualifier; ``predicate`` is an arbitrary filter.
        """
        selected = []
        domain_set = set(domains) if domains is not None else None
        for event in self._events:
            if domain_set is not None and event.domain not in domain_set:
                continue
            if prefix is not None and not event.full_name.startswith(prefix):
                continue
            if device is not None and event.device != device:
                continue
            if predicate is not None and not predicate(event):
                continue
            selected.append(event)
        label = f"{self.name}[filtered]" if self.name else "[filtered]"
        return EventRegistry(selected, name=label)

    def domains(self) -> Dict[str, int]:
        """Histogram of event domains (diagnostics / documentation)."""
        hist: Dict[str, int] = {}
        for event in self._events:
            hist[event.domain] = hist.get(event.domain, 0) + 1
        return hist

    def __repr__(self) -> str:
        return f"EventRegistry({self.name!r}, {len(self)} events)"
