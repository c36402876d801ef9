"""The versioned, content-addressed metric catalog.

The pipeline produces trust-stamped :class:`~repro.core.metrics.MetricDefinition`
objects, but until now every consumer had to re-run the whole analysis to
get one.  :class:`MetricCatalogStore` makes definitions durable: each is
persisted under the key ``(architecture, metric, config digest)`` with an
append-only version history, so a served definition can be looked up,
compared across catalog revisions, and — crucially — trusted, because
everything that certifies it travels with it:

* the coefficient vector, **bit-exact** (hex of the little-endian float64
  bytes; the JSON float list is a human-readable mirror),
* the Equation-5 backward error and composability verdict,
* the :class:`~repro.guard.certify.TrustScore` stamp and every guard rung
  that fired during selection and composition,
* lineage: the seed, the pipeline-config repr and digest, the event-set
  digest of the registry the measurement ran over, and (when the run was
  traced) a digest of its :mod:`repro.obs` trace.

Storage layout (all writes atomic: staged file + ``os.replace``)::

    root/
      log.jsonl                                # append-only version log
      deps/<sha256>.json                       # one dependency map each
      entries/<arch>/<metric-slug>/<config-digest>/v0001.json

A sharded root (``shards=N``) holds the same layout once per shard,
each key routed by a :class:`~repro.serve.shard.ShardRing`::

    root/
      shards.json                 # {"format": 1, "shards": [...], "vnodes": V}
      shard-00/ ... shard-NN/     # each: log.jsonl + deps/ + entries/...

Every definition of one analysis depends on the same measured event
slice, so an entry's per-event dependency map (``event_digests``) is
stored once per shard root, as ``deps/<sha256 of its canonical JSON>``,
and published durably before any version file that names it.  A version
file (on-disk format 2, compact sorted JSON) names its map by that
digest under ``"deps"`` and records its own ``content_digest``, so the
dedup check of a ``put`` reads the digest instead of recomputing it.  A
blob is checked against its name on load: a torn blob never reads as a
map.  Format-1 files (indented, map inline) still read.  In memory
:attr:`CatalogEntry.event_digests` is the map itself: payloads, digests
and every read API see no difference between the formats.

Invalidation: the config digest is part of the key, so a changed
threshold simply misses.  A changed *event registry* would silently serve
stale definitions — so every entry records its ``events_digest`` and the
read APIs take the current registry digest; a mismatch is reported as a
miss (and counted on the ``catalog.invalidated`` counter) instead of a
hit.  An entry with a dependency map is judged by that map alone, so an
edit outside its measured slice leaves it fresh; disk reads and the
in-memory replicas apply this one rule.  History is never destroyed:
invalidation is a read-side decision, the version log keeps the full
record.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.guard.certify import TrustScore
from repro.guard.health import NumericalHealth
from repro.io.digest import canonical_json, json_digest, sha256_hex
from repro.io.durability import (
    durable_append,
    durable_replace,
    durable_write,
    fsync_dir,
)
from repro.obs import get_tracer
from repro.serve.shard import ShardRing, shard_names

if TYPE_CHECKING:
    from repro.core.metrics import MetricDefinition
    from repro.core.pipeline import PipelineConfig, PipelineResult

__all__ = [
    "CatalogDiff",
    "CatalogEntry",
    "FsckReport",
    "LogCompaction",
    "MetricCatalogStore",
    "analysis_config_digest",
    "entries_from_result",
    "metric_slug",
]

#: On-disk version-file format (bumped on incompatible changes).  Format
#: 2 names the dependency map by digest; format 1 carried it inline and
#: still reads.
FORMAT_VERSION = 2

#: Format of the logical entry payload (:meth:`CatalogEntry.to_payload`,
#: the served wire form, and a format-1 version file).  It is hashed into
#: every content digest, so it does not follow :data:`FORMAT_VERSION`.
_PAYLOAD_FORMAT = 1

#: Stands in for the dependency map in the text a content digest hashes,
#: which is split around it (NUL bytes: no entry field contains this).
_MAP_SLOT = "\x00event_digests\x00"

#: Shard manifest format (bumped on incompatible changes).
MANIFEST_FORMAT = 1

_MANIFEST_NAME = "shards.json"


def metric_slug(metric: str) -> str:
    """Filesystem-safe directory name for a metric: readable stem plus a
    short content hash (names with spaces/punctuation stay unambiguous)."""
    stem = re.sub(r"[^a-z0-9]+", "-", metric.lower()).strip("-") or "metric"
    return f"{stem[:48]}-{sha256_hex(metric, length=8)}"


def analysis_config_digest(
    domain: str, seed: int, config: "PipelineConfig"
) -> str:
    """The catalog key's third coordinate: everything besides architecture
    and metric name that determines a definition — the domain, the node
    seed, and every pipeline threshold (via ``PipelineConfig.digest``)."""
    return json_digest(
        {"domain": domain, "seed": seed, "config": config.digest()}, length=16
    )


def _coeffs_to_hex(coefficients: np.ndarray) -> str:
    return np.asarray(coefficients, dtype="<f8").tobytes().hex()


def _coeffs_from_hex(blob: str) -> np.ndarray:
    return np.frombuffer(bytes.fromhex(blob), dtype="<f8").copy()


def _fresh(
    entry: "CatalogEntry",
    events_digest: Optional[str],
    event_digests: Optional[Dict[str, str]],
) -> bool:
    """The one freshness rule, for disk reads and replicas alike.

    An entry with a recorded dependency map is fresh exactly when the
    caller's map equals it, whatever changed elsewhere in the registry;
    an entry without one (or a caller without a map) falls back to the
    whole-registry ``events_digest``.  No evidence: fresh."""
    if event_digests is not None and entry.event_digests:
        return entry.event_digests == event_digests
    return events_digest is None or entry.events_digest == events_digest


@dataclass(frozen=True)
class CatalogEntry:
    """One persisted metric definition with its full trust lineage."""

    arch: str
    domain: str
    metric: str
    seed: int
    config_digest: str
    config_repr: str
    events_digest: str
    event_names: Tuple[str, ...]
    coefficients_hex: str
    error: float
    composable: bool
    degraded: bool = False
    #: Conditioning sentinel record of this metric's composition solve
    #: (carries the guard rungs that fired).
    health: Optional[NumericalHealth] = None
    #: Fallback rungs fired by the shared QRCP selection stage.
    qrcp_guards: Tuple[str, ...] = ()
    trust: Optional[TrustScore] = None
    #: Section VI-D snapped terms, for display and preset export.
    rounded_terms: Dict[str, float] = field(default_factory=dict)
    #: Per-event dependency digests: ``full name -> content digest`` of
    #: every registry event this entry's analysis *could* have consumed
    #: (the whole measured domain, not just the selected events — an
    #: added event can change the selection).  Empty on entries written
    #: before dependency tracking; those fall back to the coarse
    #: whole-registry ``events_digest`` check.
    event_digests: Dict[str, str] = field(default_factory=dict)
    #: Counter-validation evidence (the ``repro.vet`` stamp payload:
    #: per-composing-event verdicts, prior-excluded events, campaign
    #: provenance).  None when the defining run carried no trust priors.
    #: Part of the content digest when present — a verdict flip is an
    #: analysis-relevant change and must version the entry, which is what
    #: the drift detector watches for.
    vet: Optional[dict] = None
    #: Ingestion provenance (the ``repro.ingest`` payload: collector,
    #: uarch family, per-source-file digests, baseline calibration,
    #: column quality flags, unmapped events).  None for simulated runs.
    #: Part of the content digest when present — a re-ingest from
    #: different source bytes is a different definition even if the
    #: numbers agree, while a bit-identical re-ingest must dedup.
    provenance: Optional[dict] = None
    #: sha256 of the run's canonical trace JSONL (None for untraced runs).
    trace_digest: Optional[str] = None
    #: Assigned by the store on ``put`` (0 = not yet stored).
    version: int = 0

    @property
    def coefficients(self) -> np.ndarray:
        """The bit-exact coefficient vector."""
        return _coeffs_from_hex(self.coefficients_hex)

    @property
    def guards_fired(self) -> Tuple[str, ...]:
        """Composition-solve guard stamps (empty on a healthy fit)."""
        return self.health.guards_fired if self.health is not None else ()

    def content_digest(self) -> str:
        """Content address over everything except the assigned version
        and the trace digest — trace exports carry wall-clock stage
        timings, so two bit-identical analyses trace differently; lineage
        must not defeat dedup."""
        digests = self.event_digests
        return self._content_digest(canonical_json(digests) if digests else None)

    def _content_digest(self, map_text: Optional[str]) -> str:
        """:meth:`content_digest` given the dependency map's canonical
        JSON (None for an empty map), so a put encodes the map once.

        The payload is serialized with a slot in the map's place and
        hashed around the map text: byte for byte the text
        ``json_digest`` of the whole payload would hash."""
        payload = self._payload(_MAP_SLOT)
        payload.pop("version")
        payload.pop("trace_digest")
        if map_text is None:
            # Entries without dependency tracking hash exactly as they
            # did before the field existed (stored catalogs keep dedup).
            payload.pop("event_digests")
        if not payload["vet"]:
            # Same back-compat rule for the validation stamp: entries from
            # prior-free runs hash exactly as they did before the field.
            payload.pop("vet")
        if not payload["provenance"]:
            # And for ingestion provenance: simulated-run entries hash
            # exactly as they did before ingestion existed.
            payload.pop("provenance")
        text = canonical_json(payload)
        if map_text is None:
            return sha256_hex(text, length=16)
        prefix, suffix = text.split(canonical_json(_MAP_SLOT))
        return sha256_hex(prefix, map_text, suffix, length=16)

    def definition(self) -> "MetricDefinition":
        """Reconstruct the definition, coefficient bytes and trust stamp
        bit-identical to the pipeline's output."""
        from repro.core.metrics import MetricDefinition
        from repro.vet.priors import VetStamp

        return MetricDefinition(
            metric=self.metric,
            event_names=tuple(self.event_names),
            coefficients=self.coefficients,
            error=self.error,
            degraded=self.degraded,
            health=self.health,
            trust=self.trust,
            vet=VetStamp.from_payload(self.vet),
        )

    # -- payload -------------------------------------------------------
    def to_payload(self) -> dict:
        return self._payload(dict(self.event_digests))

    def _payload(self, event_digests: object) -> dict:
        """The logical payload with ``event_digests`` in the map's place."""
        trust = None
        if self.trust is not None:
            trust = {
                "level": self.trust.level,
                "reasons": list(self.trust.reasons),
                "coefficient_spread": self.trust.coefficient_spread,
                "error_spread": self.trust.error_spread,
                "n_holdouts": self.trust.n_holdouts,
                "n_skipped": self.trust.n_skipped,
                "suspect_events": list(self.trust.suspect_events),
            }
        health = None
        if self.health is not None:
            health = {
                "condition_estimate": self.health.condition_estimate,
                "rank_gap": self.health.rank_gap,
                "pivot_growth": self.health.pivot_growth,
                "residual_bound": self.health.residual_bound,
                "refinement_iterations": self.health.refinement_iterations,
                "guards_fired": list(self.health.guards_fired),
                "suspect_columns": list(self.health.suspect_columns),
            }
        return {
            "format": _PAYLOAD_FORMAT,
            "version": self.version,
            "arch": self.arch,
            "domain": self.domain,
            "metric": self.metric,
            "seed": self.seed,
            "config_digest": self.config_digest,
            "config": self.config_repr,
            "events_digest": self.events_digest,
            "event_names": list(self.event_names),
            "coefficients_hex": self.coefficients_hex,
            "coefficients": [float(c) for c in self.coefficients],
            "error": self.error,
            "composable": self.composable,
            "degraded": self.degraded,
            "health": health,
            "qrcp_guards": list(self.qrcp_guards),
            "trust": trust,
            "rounded_terms": dict(self.rounded_terms),
            "event_digests": event_digests,
            "vet": dict(self.vet) if self.vet else None,
            "provenance": dict(self.provenance) if self.provenance else None,
            "trace_digest": self.trace_digest,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CatalogEntry":
        fmt = payload.get("format")
        if fmt != _PAYLOAD_FORMAT:
            raise ValueError(
                f"unsupported catalog entry format {fmt!r} "
                f"(this reader speaks {_PAYLOAD_FORMAT})"
            )
        trust = None
        if payload.get("trust") is not None:
            t = payload["trust"]
            trust = TrustScore(
                level=t["level"],
                reasons=tuple(t["reasons"]),
                coefficient_spread=t["coefficient_spread"],
                error_spread=t["error_spread"],
                n_holdouts=t["n_holdouts"],
                n_skipped=t["n_skipped"],
                suspect_events=tuple(t["suspect_events"]),
            )
        health = None
        if payload.get("health") is not None:
            h = payload["health"]
            health = NumericalHealth(
                condition_estimate=h["condition_estimate"],
                rank_gap=h["rank_gap"],
                pivot_growth=h["pivot_growth"],
                residual_bound=h["residual_bound"],
                refinement_iterations=h["refinement_iterations"],
                guards_fired=tuple(h["guards_fired"]),
                suspect_columns=tuple(h["suspect_columns"]),
            )
        return cls(
            arch=payload["arch"],
            domain=payload["domain"],
            metric=payload["metric"],
            seed=payload["seed"],
            config_digest=payload["config_digest"],
            config_repr=payload["config"],
            events_digest=payload["events_digest"],
            event_names=tuple(payload["event_names"]),
            coefficients_hex=payload["coefficients_hex"],
            error=payload["error"],
            composable=payload["composable"],
            degraded=payload.get("degraded", False),
            health=health,
            qrcp_guards=tuple(payload.get("qrcp_guards", ())),
            trust=trust,
            rounded_terms=dict(payload.get("rounded_terms", {})),
            event_digests=dict(payload.get("event_digests", {})),
            vet=payload.get("vet"),
            provenance=payload.get("provenance"),
            trace_digest=payload.get("trace_digest"),
            version=payload["version"],
        )


def entries_from_result(
    result: "PipelineResult",
    arch: str,
    seed: int,
    events_digest: str,
    trace_digest: Optional[str] = None,
    event_digests: Optional[Dict[str, str]] = None,
    provenance: Optional[dict] = None,
) -> List[CatalogEntry]:
    """Catalog entries for every metric a pipeline run composed.

    ``event_digests`` is the per-event dependency map of the run's
    measured domain (``EventRegistry.event_digests()`` of the domain
    sub-registry); recording it lets ``repro.incr`` invalidate only the
    entries an edited event actually feeds.

    ``provenance`` is the ingestion-provenance payload
    (:meth:`repro.ingest.IngestBundle.provenance`) when the measurement
    came from external collector files rather than the simulator; it is
    recorded verbatim on every entry of the run.
    """
    config_digest = analysis_config_digest(result.domain, seed, result.config)
    qrcp_guards = (
        tuple(result.qrcp.health.guards_fired)
        if result.qrcp.health is not None
        else ()
    )
    entries = []
    for name, definition in result.metrics.items():
        rounded = result.rounded_metrics.get(name)
        entries.append(
            CatalogEntry(
                arch=arch,
                domain=result.domain,
                metric=name,
                seed=seed,
                config_digest=config_digest,
                config_repr=repr(result.config),
                events_digest=events_digest,
                event_names=tuple(definition.event_names),
                coefficients_hex=_coeffs_to_hex(definition.coefficients),
                error=float(definition.error),
                composable=definition.composable,
                degraded=definition.degraded,
                health=definition.health,
                qrcp_guards=qrcp_guards,
                trust=definition.trust,
                rounded_terms=rounded.terms() if rounded is not None else {},
                event_digests=dict(event_digests or {}),
                vet=(
                    definition.vet.to_payload()
                    if definition.vet is not None
                    else None
                ),
                provenance=dict(provenance) if provenance else None,
                trace_digest=trace_digest,
            )
        )
    return entries


@dataclass
class CatalogDiff:
    """Structured difference between two versions of one definition."""

    metric: str
    version_a: int
    version_b: int
    added_terms: Dict[str, float] = field(default_factory=dict)
    removed_terms: Dict[str, float] = field(default_factory=dict)
    changed_terms: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    error_a: float = 0.0
    error_b: float = 0.0
    trust_a: Optional[str] = None
    trust_b: Optional[str] = None
    guards_a: Tuple[str, ...] = ()
    guards_b: Tuple[str, ...] = ()
    events_digest_changed: bool = False
    #: Counter-validation verdicts per composing event on each side
    #: (empty when that side's run carried no vet stamp).
    vet_a: Dict[str, str] = field(default_factory=dict)
    vet_b: Dict[str, str] = field(default_factory=dict)

    @property
    def verdict_flips(self) -> Dict[str, Tuple[Optional[str], Optional[str]]]:
        """Events whose validation verdict changed between the versions
        (``None`` on a side means that side had no verdict recorded)."""
        flips: Dict[str, Tuple[Optional[str], Optional[str]]] = {}
        for event in sorted(set(self.vet_a) | set(self.vet_b)):
            old, new = self.vet_a.get(event), self.vet_b.get(event)
            if old != new:
                flips[event] = (old, new)
        return flips

    @property
    def identical(self) -> bool:
        return not (
            self.added_terms
            or self.removed_terms
            or self.changed_terms
            or self.error_a != self.error_b
            or self.trust_a != self.trust_b
            or self.guards_a != self.guards_b
            or self.events_digest_changed
            or self.vet_a != self.vet_b
        )

    def render(self) -> str:
        head = f"{self.metric}: v{self.version_a} -> v{self.version_b}"
        if self.identical:
            return f"{head}: identical"
        lines = [head]
        for event in sorted(self.added_terms):
            lines.append(f"  + {self.added_terms[event]:+g} x {event}")
        for event in sorted(self.removed_terms):
            lines.append(f"  - {self.removed_terms[event]:+g} x {event}")
        for event in sorted(self.changed_terms):
            old, new = self.changed_terms[event]
            # Shortest-round-trip floats: a bit-level drift must not
            # render as "1 -> 1".
            lines.append(f"  ~ {event}: {old!r} -> {new!r}")
        if self.error_a != self.error_b:
            lines.append(f"  error: {self.error_a:.6e} -> {self.error_b:.6e}")
        if self.trust_a != self.trust_b:
            lines.append(f"  trust: {self.trust_a} -> {self.trust_b}")
        if self.guards_a != self.guards_b:
            lines.append(
                f"  guards: {list(self.guards_a)} -> {list(self.guards_b)}"
            )
        if self.events_digest_changed:
            lines.append("  event registry changed between versions")
        for event, (old, new) in self.verdict_flips.items():
            lines.append(
                f"  vet: {event}: {old or 'no verdict'} -> {new or 'no verdict'}"
            )
        return "\n".join(lines)

    def to_payload(self) -> dict:
        """Machine-readable mirror of :meth:`render` — the format the
        drift detector (and ``catalog diff --json``) consumes."""
        return {
            "metric": self.metric,
            "version_a": self.version_a,
            "version_b": self.version_b,
            "identical": self.identical,
            "added_terms": dict(sorted(self.added_terms.items())),
            "removed_terms": dict(sorted(self.removed_terms.items())),
            "changed_terms": {
                event: [old, new]
                for event, (old, new) in sorted(self.changed_terms.items())
            },
            "error_a": self.error_a,
            "error_b": self.error_b,
            "trust_a": self.trust_a,
            "trust_b": self.trust_b,
            "guards_a": list(self.guards_a),
            "guards_b": list(self.guards_b),
            "events_digest_changed": self.events_digest_changed,
            "vet_a": dict(sorted(self.vet_a.items())),
            "vet_b": dict(sorted(self.vet_b.items())),
            "verdict_flips": {
                event: [old, new]
                for event, (old, new) in self.verdict_flips.items()
            },
        }


def diff_entries(a: CatalogEntry, b: CatalogEntry) -> CatalogDiff:
    """Structured diff of two entries' definitions (raw coefficients,
    not the rounded display terms — bit drift must be visible)."""
    terms_a = {
        e: float(c) for e, c in zip(a.event_names, a.coefficients) if c != 0.0
    }
    terms_b = {
        e: float(c) for e, c in zip(b.event_names, b.coefficients) if c != 0.0
    }
    diff = CatalogDiff(
        metric=b.metric,
        version_a=a.version,
        version_b=b.version,
        error_a=a.error,
        error_b=b.error,
        trust_a=a.trust.level if a.trust is not None else None,
        trust_b=b.trust.level if b.trust is not None else None,
        guards_a=a.qrcp_guards + a.guards_fired,
        guards_b=b.qrcp_guards + b.guards_fired,
        events_digest_changed=a.events_digest != b.events_digest,
        vet_a=dict((a.vet or {}).get("verdicts", {})),
        vet_b=dict((b.vet or {}).get("verdicts", {})),
    )
    for event, coeff in terms_b.items():
        if event not in terms_a:
            diff.added_terms[event] = coeff
        elif terms_a[event] != coeff:
            diff.changed_terms[event] = (terms_a[event], coeff)
    for event, coeff in terms_a.items():
        if event not in terms_b:
            diff.removed_terms[event] = coeff
    return diff


class MetricCatalogStore:
    """On-disk versioned catalog of metric definitions.

    Writes are atomic (staged file + ``os.replace``), version allocation
    races are resolved with ``os.link``'s exclusive-create semantics, and
    every successful ``put`` appends one line to its shard's
    ``log.jsonl`` version log — the log is the catalog's audit trail and
    is only rewritten by explicit :meth:`compact_log` / :meth:`fsck`
    repair.

    **Shards.**  A root is one or more *shard roots*, each holding
    ``entries/`` and ``log.jsonl``.  An unsharded root is its own single
    shard root.  A sharded root carries ``shards.json`` and one
    ``shard-NN/`` directory per shard; a :class:`ShardRing` routes every
    key ``(arch, metric)`` to exactly one of them (``shard.routes``).
    The manifest is authoritative: ``shards=0`` opens whatever the root
    is, ``shards > 0`` creates a sharded root.  Asking for a different
    shard count than the manifest's, or sharding a root that already
    holds unsharded entries, raises :class:`ValueError` — either would
    route reads where no entry lives.  Listings, log reads, ``fsck`` and
    ``compact_log`` visit every shard root in topology order; on a
    sharded root a shard whose I/O fails is skipped for that call and
    named in :attr:`degraded_shards`.

    **Dependency maps.**  Each distinct ``event_digests`` map is written
    once per shard root under ``deps/`` and named by digest from every
    version file that carries it; loaded maps are kept in a small LRU
    keyed by that digest (content addressing makes it a pure cache).

    **Read replicas.**  ``latest`` reads that present freshness evidence
    (an events digest or a dependency map) are kept in a small in-memory
    LRU and served again while the entry is fresh for the caller's
    evidence, by the same rule as a disk read (``shard.replica_hits``);
    a stale replica is dropped (``shard.replica_invalidations``) and the
    read goes to disk.  A ``put`` installs the entry it stored (or
    deduped to) as the key's replica; a torn publication drops it.

    With ``durable=True`` (the default) publication follows full fsync
    discipline: staged contents are synced before the rename, the parent
    directory is synced after it, and log appends are synced — a power
    loss can cost at most the in-flight publication, never a previously
    acknowledged one, and what it leaves behind is exactly what
    :meth:`fsck` detects and quarantines.

    ``failpoint`` is the crash-simulation seam used by the serve-layer
    chaos harness: a callable ``site -> action`` consulted at the
    publication site.  Supported actions: ``"torn"`` (write a truncated
    version file and "lose power" — no fsync, no log record),
    ``"unlogged"`` (publish the version file but lose power before the
    log append).  ``None`` publishes normally.
    """

    #: Most replicated ``latest`` entries kept in memory.
    _REPLICA_CAPACITY = 256
    #: Most loaded dependency maps kept in memory (a map is up to ~1,100
    #: events; the live set is one per analysed (system, domain) pair).
    _MAP_CAPACITY = 16

    def __init__(
        self,
        root: Union[str, Path],
        *,
        shards: int = 0,
        durable: bool = True,
        failpoint: Optional[Callable[[str], Optional[str]]] = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.durable = durable
        self.failpoint = failpoint
        self.ring = self._open_ring(shards)
        #: Every shard root in topology order.
        self._shard_roots: Dict[str, Path] = (
            {name: self.root / name for name in self.ring.shards}
            if self.ring is not None
            else {"": self.root}
        )
        # One lock per log: appends to different shards do not queue
        # behind each other's fsync.
        self._log_locks = {
            path: threading.Lock() for path in self._shard_roots.values()
        }
        #: Shards the most recent fan-out had to skip (I/O errors).
        self.degraded_shards: Tuple[str, ...] = ()
        self._replicas: "OrderedDict[Tuple[str, str, str], CatalogEntry]" = OrderedDict()
        self._replica_lock = threading.Lock()
        #: Loaded dependency maps by digest, and the last map a put
        #: encoded as ``(map, canonical JSON, digest)``: the entries of one
        #: analysis share their map.
        self._maps: "OrderedDict[str, Dict[str, str]]" = OrderedDict()
        self._map_lock = threading.Lock()
        self._last_map: Optional[Tuple[Dict[str, str], str, str]] = None

    # -- topology ------------------------------------------------------
    def _open_ring(self, shards: int) -> Optional[ShardRing]:
        """The ring ``shards.json`` records, a new one for ``shards > 0``
        (publishing the manifest), or None for an unsharded root."""
        manifest_path = self.root / _MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text())
        except FileNotFoundError:
            manifest = None
        if manifest is None:
            if shards == 0:
                return None
            if (self.root / "entries").exists() or (self.root / "log.jsonl").exists():
                raise ValueError(
                    f"{self.root} already holds unsharded entries; opening it "
                    f"with shards={shards} would hide every one of them — "
                    "migrate explicitly instead"
                )
            ring = ShardRing(shard_names(shards))
            payload = {
                "format": MANIFEST_FORMAT,
                "shards": list(ring.shards),
                "vnodes": ring.vnodes,
            }
            # Atomic, durable publish: racing creators (N workers opening
            # the same fresh root) write identical content, but a reader
            # must never see a torn manifest, and a lost one would reopen
            # the root as unsharded.
            staged = self.root / f".{_MANIFEST_NAME}.{os.getpid()}.staged"
            durable_write(
                staged,
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                durable=self.durable,
            )
            durable_replace(staged, manifest_path, durable=self.durable)
            return ring
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ValueError(
                f"unsupported shard manifest format {manifest.get('format')!r} "
                f"in {manifest_path} (this reader speaks {MANIFEST_FORMAT})"
            )
        names = tuple(manifest["shards"])
        if shards and shards != len(names):
            raise ValueError(
                f"{self.root} is a {len(names)}-shard catalog; reopening it "
                f"with shards={shards} would re-partition every key — "
                "migrate explicitly instead"
            )
        return ShardRing(names, vnodes=int(manifest["vnodes"]))

    def _shard_root(self, arch: str, metric: str) -> Path:
        """The shard root that owns ``(arch, metric)``."""
        if self.ring is None:
            return self.root
        get_tracer().incr("shard.routes")
        return self._shard_roots[self.ring.lookup(arch, metric)]

    def _fan_out(self, op: Callable[[Path], object]) -> List[object]:
        """``op(shard_root)`` for every shard root, in topology order.

        On a sharded root an I/O error skips that shard for this call
        (recorded in :attr:`degraded_shards`) instead of failing the
        whole fan-out; an unsharded root's I/O errors raise."""
        if self.ring is not None:
            get_tracer().incr("shard.fanouts")
        results: List[object] = []
        degraded: List[str] = []
        for name, shard_root in self._shard_roots.items():
            try:
                results.append(op(shard_root))
            except OSError:
                if self.ring is None:
                    raise
                degraded.append(name)
        if degraded:
            get_tracer().incr("shard.degraded_reads")
        self.degraded_shards = tuple(degraded)
        return results

    # -- paths ---------------------------------------------------------
    @staticmethod
    def _entry_dir(
        shard_root: Path, arch: str, metric: str, config_digest: str
    ) -> Path:
        return shard_root / "entries" / arch / metric_slug(metric) / config_digest

    def _key_paths(
        self, arch: str, metric: str, config_digest: str
    ) -> Tuple[Path, Path]:
        """The routed ``(shard root, entry directory)`` of one key."""
        shard_root = self._shard_root(arch, metric)
        return shard_root, self._entry_dir(shard_root, arch, metric, config_digest)

    @staticmethod
    def _version_path(entry_dir: Path, version: int) -> Path:
        return entry_dir / f"v{version:04d}.json"

    @staticmethod
    def _versions_in(entry_dir: Path) -> List[int]:
        if not entry_dir.is_dir():
            return []
        versions = []
        for path in entry_dir.glob("v*.json"):
            try:
                versions.append(int(path.stem[1:]))
            except ValueError:
                continue
        return sorted(versions)

    # -- replicas ------------------------------------------------------
    def _replica_get(
        self,
        key: Tuple[str, str, str],
        events_digest: Optional[str],
        event_digests: Optional[Dict[str, str]],
    ) -> Optional[CatalogEntry]:
        with self._replica_lock:
            entry = self._replicas.get(key)
            if entry is None:
                return None
            if not _fresh(entry, events_digest, event_digests):
                # The registry moved under the replica's dependencies:
                # invalidate, re-read.
                del self._replicas[key]
                get_tracer().incr("shard.replica_invalidations")
                return None
            self._replicas.move_to_end(key)
        get_tracer().incr("shard.replica_hits")
        return entry

    def _replica_put(self, key: Tuple[str, str, str], entry: CatalogEntry) -> None:
        with self._replica_lock:
            self._replicas[key] = entry
            self._replicas.move_to_end(key)
            while len(self._replicas) > self._REPLICA_CAPACITY:
                self._replicas.popitem(last=False)

    # -- dependency maps -----------------------------------------------
    @staticmethod
    def _map_path(shard_root: Path, digest: str) -> Path:
        return shard_root / "deps" / f"{digest}.json"

    def _cache_map(self, digest: str, event_digests: Dict[str, str]) -> None:
        with self._map_lock:
            self._maps[digest] = event_digests
            self._maps.move_to_end(digest)
            while len(self._maps) > self._MAP_CAPACITY:
                self._maps.popitem(last=False)

    def _encode_map(
        self, event_digests: Dict[str, str]
    ) -> Tuple[Dict[str, str], str, str]:
        """``(the store's copy, canonical JSON, sha256)`` of a map,
        reusing the last put's encoding when the map equals it."""
        last = self._last_map
        if last is None or last[0] != event_digests:
            # A copy: the caller's dict may change after the put.
            text = canonical_json(event_digests)
            last = (dict(event_digests), text, sha256_hex(text))
            self._last_map = last
        return last

    def _write_map(
        self, shard_root: Path, event_digests: Dict[str, str], text: str, digest: str
    ) -> None:
        """Publish one map blob durably (staged file, fsync, replace,
        directory fsync) unless it is already there."""
        path = self._map_path(shard_root, digest)
        if not path.exists():
            if not path.parent.is_dir():
                path.parent.mkdir(parents=True, exist_ok=True)
                if self.durable:
                    fsync_dir(shard_root)
            staged = path.parent / (
                f".{digest}.{os.getpid()}.{threading.get_ident()}.staged"
            )
            durable_write(staged, text, durable=self.durable)
            durable_replace(staged, path, durable=self.durable)
        self._cache_map(digest, event_digests)

    def _read_map(self, shard_root: Path, digest: str) -> Dict[str, str]:
        """The map named ``digest``: from the LRU, else from its blob,
        whose bytes must hash to its name (``ValueError`` otherwise)."""
        with self._map_lock:
            cached = self._maps.get(digest)
            if cached is not None:
                self._maps.move_to_end(digest)
                return cached
        data = self._map_path(shard_root, digest).read_bytes()
        if sha256_hex(data) != digest:
            raise ValueError(f"dependency map {digest} does not match its digest")
        event_digests = json.loads(data)
        self._cache_map(digest, event_digests)
        return event_digests

    # -- writes --------------------------------------------------------
    def put(self, entry: CatalogEntry) -> CatalogEntry:
        """Persist ``entry`` as the next version of its key.

        Idempotent on content: when the latest stored version already has
        this entry's content digest, no new version is written and the
        existing entry is returned (counted on ``catalog.dedup``) —
        re-serving an unchanged analysis must not grow the history.
        """
        stored = self._publish(entry)
        key = (entry.arch, entry.metric, entry.config_digest)
        if stored.version:
            # The stored (or deduped) entry is the key's newest version:
            # it replaces any older replica, so the next read of the key
            # skips the disk.
            self._replica_put(key, stored)
        else:
            # A torn publication stored nothing readable.
            with self._replica_lock:
                self._replicas.pop(key, None)
        return stored

    def _publish(self, entry: CatalogEntry) -> CatalogEntry:
        shard_root = self._shard_root(entry.arch, entry.metric)
        entry_dir = self._entry_dir(
            shard_root, entry.arch, entry.metric, entry.config_digest
        )
        entry_dir.mkdir(parents=True, exist_ok=True)
        deps = map_text = None
        if entry.event_digests:
            event_digests, map_text, deps = self._encode_map(entry.event_digests)
            # The store's copy of the map: the stored entry outlives the
            # put as the key's replica.
            entry = dataclasses.replace(entry, event_digests=event_digests)
        content = entry._content_digest(map_text)
        while True:
            versions = self._versions_in(entry_dir)
            if versions:
                loaded = self._read(
                    shard_root, self._version_path(entry_dir, versions[-1])
                )
                if loaded is not None and loaded[1] == content:
                    get_tracer().incr("catalog.dedup")
                    return loaded[0]
            version = (versions[-1] + 1) if versions else 1
            stored = dataclasses.replace(entry, version=version)
            final = self._version_path(entry_dir, version)
            staged = entry_dir / f".v{version:04d}.{os.getpid()}.staged"
            # The version file: the payload with the map named by digest,
            # in the C encoder's compact form.
            record = stored._payload(None)
            del record["event_digests"]
            record.update(format=FORMAT_VERSION, deps=deps, content_digest=content)
            blob = json.dumps(record, sort_keys=True)
            if deps is not None:
                # The map is durable before any version file names it.
                self._write_map(shard_root, event_digests, map_text, deps)
            action = (
                self.failpoint(self._publish_site(stored))
                if self.failpoint is not None
                else None
            )
            if action == "torn":
                # Simulated power loss mid-publish: a torn page of the
                # version file reaches disk, nothing else does.  Readers
                # treat the torn file as a miss; fsck quarantines it.
                final.write_text(blob[: max(1, len(blob) // 2)])
                get_tracer().incr("catalog.chaos.torn_publication")
                return dataclasses.replace(entry, version=0)
            durable_write(staged, blob, durable=self.durable)
            try:
                # Exclusive publish: a racing writer that claimed this
                # version number first wins; we retry with the next one.
                os.link(staged, final)
            except FileExistsError:
                staged.unlink()
                continue
            except OSError:
                # Filesystem without hard links: fall back to an atomic,
                # last-writer-wins rename (single-writer deployments).
                durable_replace(staged, final, durable=self.durable)
            else:
                staged.unlink()
                if self.durable:
                    fsync_dir(entry_dir)
            if action == "unlogged":
                # Simulated power loss after the version file is durable
                # but before the log append: fsck re-appends the record.
                get_tracer().incr("catalog.chaos.unlogged_publication")
                return stored
            self._append_log(shard_root, stored, content)
            get_tracer().incr("catalog.stores")
            return stored

    @staticmethod
    def _publish_site(entry: CatalogEntry) -> str:
        """The deterministic chaos-site name of one publication."""
        return (
            f"catalog.publish:{entry.arch}:{metric_slug(entry.metric)}:"
            f"{entry.config_digest}:v{entry.version:04d}"
        )

    @staticmethod
    def _log_record(entry: CatalogEntry, content_digest: str) -> dict:
        return {
            "op": "put",
            "arch": entry.arch,
            "metric": entry.metric,
            "config_digest": entry.config_digest,
            "version": entry.version,
            "content_digest": content_digest,
            "events_digest": entry.events_digest,
        }

    def _append_log(
        self, shard_root: Path, entry: CatalogEntry, content_digest: str
    ) -> None:
        line = json.dumps(self._log_record(entry, content_digest), sort_keys=True)
        with self._log_locks[shard_root]:
            durable_append(
                shard_root / "log.jsonl", line + "\n", durable=self.durable
            )

    # -- reads ---------------------------------------------------------
    def _read(
        self,
        shard_root: Path,
        path: Path,
        maps: Optional[Callable[[str], Dict[str, str]]] = None,
    ) -> Optional[Tuple[CatalogEntry, str]]:
        """One version file as ``(entry, content digest)``; None when it
        is missing or torn, or names a map that is.  ``maps`` resolves a
        map digest (default: the LRU, then the blob)."""
        try:
            record = json.loads(path.read_text())
            content = None
            if record.get("format") == FORMAT_VERSION:
                deps = record.pop("deps")
                content = record.pop("content_digest")
                record["format"] = _PAYLOAD_FORMAT
                record["event_digests"] = (
                    (maps or partial(self._read_map, shard_root))(deps)
                    if deps
                    else {}
                )
            entry = CatalogEntry.from_payload(record)
        except (OSError, ValueError, KeyError, AttributeError, TypeError):
            return None
        return entry, content or entry.content_digest()

    def _load(self, shard_root: Path, path: Path) -> Optional[CatalogEntry]:
        loaded = self._read(shard_root, path)
        return loaded[0] if loaded is not None else None

    def get(
        self,
        arch: str,
        metric: str,
        config_digest: str,
        version: Optional[int] = None,
        events_digest: Optional[str] = None,
        event_digests: Optional[Dict[str, str]] = None,
    ) -> Optional[CatalogEntry]:
        """One stored version (the latest when ``version`` is None), read
        from disk.

        With ``events_digest``, an entry recorded against a *different*
        event registry is stale: it is reported as a miss and counted on
        ``catalog.invalidated`` — serving a definition whose raw events
        no longer exist (or measure differently) would be silent poison.

        ``event_digests`` refines that check to the entry's recorded
        dependency set: an entry that tracks per-event digests is fresh
        exactly when the current map equals the recorded one, regardless
        of edits elsewhere in the registry (the whole point of
        dependency tracking — an unrelated edit must not invalidate).
        Entries without a recorded map fall back to the coarse
        whole-registry comparison.
        """
        shard_root, entry_dir = self._key_paths(arch, metric, config_digest)
        if version is None:
            versions = self._versions_in(entry_dir)
            if not versions:
                get_tracer().incr("catalog.misses")
                return None
            version = versions[-1]
        entry = self._load(shard_root, self._version_path(entry_dir, version))
        if entry is None:
            get_tracer().incr("catalog.misses")
            return None
        if not _fresh(entry, events_digest, event_digests):
            get_tracer().incr("catalog.invalidated")
            return None
        get_tracer().incr("catalog.hits")
        return entry

    def latest(
        self,
        arch: str,
        metric: str,
        config_digest: str,
        events_digest: Optional[str] = None,
        event_digests: Optional[Dict[str, str]] = None,
    ) -> Optional[CatalogEntry]:
        """The newest stored version of a key (staleness-checked), from
        the replica LRU when the caller's evidence still matches."""
        key = (arch, metric, config_digest)
        # An unchecked read carries no freshness evidence; serving or
        # caching a replica for it could pass a stale definition as fresh.
        checked = events_digest is not None or event_digests is not None
        if checked:
            replica = self._replica_get(key, events_digest, event_digests)
            if replica is not None:
                return replica
        entry = self.get(
            arch,
            metric,
            config_digest,
            events_digest=events_digest,
            event_digests=event_digests,
        )
        if entry is not None and checked:
            self._replica_put(key, entry)
        return entry

    def history(
        self, arch: str, metric: str, config_digest: str
    ) -> List[CatalogEntry]:
        """Every stored version, oldest first."""
        shard_root, entry_dir = self._key_paths(arch, metric, config_digest)
        entries = []
        for version in self._versions_in(entry_dir):
            entry = self._load(shard_root, self._version_path(entry_dir, version))
            if entry is not None:
                entries.append(entry)
        return entries

    def diff(
        self,
        arch: str,
        metric: str,
        config_digest: str,
        version_a: int,
        version_b: int,
    ) -> CatalogDiff:
        """Structured diff between two stored versions of one key."""
        shard_root, entry_dir = self._key_paths(arch, metric, config_digest)
        a = self._load(shard_root, self._version_path(entry_dir, version_a))
        b = self._load(shard_root, self._version_path(entry_dir, version_b))
        if a is None or b is None:
            missing = version_a if a is None else version_b
            raise KeyError(
                f"no version {missing} of ({arch!r}, {metric!r}, "
                f"{config_digest}) in the catalog"
            )
        return diff_entries(a, b)

    def list_entries(self, arch: Optional[str] = None) -> List[dict]:
        """Summary rows for every (arch, metric, config digest) key,
        sorted by that key — one order for sharded and unsharded roots."""
        rows: List[dict] = []
        self._fan_out(lambda shard_root: self._list_shard(shard_root, arch, rows))
        rows.sort(key=lambda r: (r["arch"], r["metric"], r["config_digest"]))
        return rows

    def _list_shard(
        self, shard_root: Path, arch: Optional[str], rows: List[dict]
    ) -> None:
        entries_root = shard_root / "entries"
        if not entries_root.is_dir():
            return
        for arch_dir in entries_root.iterdir():
            if arch is not None and arch_dir.name != arch:
                continue
            for slug_dir in arch_dir.iterdir():
                for digest_dir in slug_dir.glob("*"):
                    versions = self._versions_in(digest_dir)
                    if not versions:
                        continue
                    latest = self._load(
                        shard_root, self._version_path(digest_dir, versions[-1])
                    )
                    if latest is None:
                        continue
                    rows.append(
                        {
                            "arch": latest.arch,
                            "domain": latest.domain,
                            "metric": latest.metric,
                            "config_digest": latest.config_digest,
                            "versions": len(versions),
                            "latest_version": latest.version,
                            "error": latest.error,
                            "composable": latest.composable,
                            "trust": (
                                latest.trust.level
                                if latest.trust is not None
                                else None
                            ),
                            "degraded": latest.degraded,
                        }
                    )

    def log_records(self) -> List[dict]:
        """Every shard's parsed append-only version log, in topology
        order (oldest first within a shard).

        Tolerant of a torn tail: an append interrupted by power loss can
        leave one partial final line; it is skipped here and repaired by
        :meth:`fsck`.
        """
        records: List[dict] = []
        for shard_records, _bad in self._fan_out(self._read_log):
            records.extend(shard_records)
        return records

    @staticmethod
    def _read_log(shard_root: Path) -> Tuple[List[dict], List[int]]:
        """(parsed records, 0-based indices of unparseable lines)."""
        log_path = shard_root / "log.jsonl"
        if not log_path.exists():
            return [], []
        records: List[dict] = []
        bad: List[int] = []
        for index, line in enumerate(log_path.read_text().splitlines()):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                bad.append(index)
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                bad.append(index)
        return records, bad

    # -- degraded reads ------------------------------------------------
    def stale_latest(
        self,
        arch: str,
        metric: str,
        config_digest: str,
        max_age: Optional[float] = None,
    ) -> Optional[Tuple[CatalogEntry, float]]:
        """The newest *loadable* version and its age in seconds, with no
        freshness checks — the degraded-mode read.

        Callers must mark anything served from here ``stale=True``: the
        entry may predate a registry edit.  ``max_age`` bounds how old a
        definition may be served stale (None = unbounded); torn versions
        are skipped in favour of the newest older good one.
        """
        shard_root, entry_dir = self._key_paths(arch, metric, config_digest)
        for version in reversed(self._versions_in(entry_dir)):
            path = self._version_path(entry_dir, version)
            entry = self._load(shard_root, path)
            if entry is None:
                continue
            try:
                age = max(0.0, time.time() - path.stat().st_mtime)
            except OSError:
                continue
            if max_age is not None and age > max_age:
                return None
            get_tracer().incr("catalog.stale_reads")
            return entry, age
        return None

    # -- fsck & compaction ---------------------------------------------
    def fsck(self, repair: bool = True) -> "FsckReport":
        """Detect (and with ``repair=True`` fix) crash damage in every
        shard root; paths in the report are relative to :attr:`root`.

        Four findings, mirroring the measurement cache's
        checksum-and-quarantine idiom:

        * **torn versions** — unparseable ``v*.json`` files (power loss
          mid-publication), and version files whose dependency map blob
          is missing or torn: moved under the shard root's
          ``quarantine/`` so no code path ever parses them again
          (``catalog.fsck.quarantined``); so is a torn map blob (one
          whose bytes do not hash to its name);
        * **staged leftovers** — ``.staged`` files (entries or map
          blobs) whose publish never completed: deleted;
        * **unlogged versions** — good version files missing from
          ``log.jsonl`` (power loss between publish and log append):
          their log records are reconstructed and re-appended;
        * **orphaned log records** — log lines whose version file is
          gone (including ones just quarantined) and torn log tails:
          the log is rewritten without the unparseable lines, orphans
          are reported (the audit record survives in the report).
        """
        report = FsckReport()
        self._fan_out(lambda shard_root: self._fsck_shard(shard_root, repair, report))
        return report

    def _fsck_shard(self, shard_root: Path, repair: bool, report: "FsckReport") -> None:
        prefix = "" if shard_root == self.root else f"{shard_root.name}/"
        intact = self._fsck_maps(shard_root, repair, report)

        def read_map(digest: str) -> Dict[str, str]:
            # Judged on disk, not by the LRU: a map cached before its
            # blob was damaged must not vouch for the blob.
            if digest not in intact:
                raise KeyError(digest)
            return self._read_map(shard_root, digest)

        entries_root = shard_root / "entries"
        on_disk: Dict[Tuple[str, str, str, int], Tuple[CatalogEntry, str]] = {}
        if entries_root.is_dir():
            for path in sorted(entries_root.rglob("*")):
                if not path.is_file():
                    continue
                if path.name.endswith(".staged"):
                    self._remove_staged(path, repair, report)
                    continue
                if not re.fullmatch(r"v\d{4,}\.json", path.name):
                    continue
                report.scanned += 1
                loaded = self._read(shard_root, path, maps=read_map)
                if loaded is None:
                    self._quarantine(shard_root, path, repair, report)
                    continue
                entry = loaded[0]
                on_disk[
                    (entry.arch, entry.metric, entry.config_digest, entry.version)
                ] = loaded

        records, bad_lines = self._read_log(shard_root)
        report.log_torn_lines += len(bad_lines)
        logged = {
            (
                r.get("arch"),
                r.get("metric"),
                r.get("config_digest"),
                r.get("version"),
            )
            for r in records
        }
        relog: List[Tuple[CatalogEntry, str]] = []
        for key, loaded in sorted(on_disk.items()):
            if key not in logged:
                report.relogged.append(
                    f"{prefix}{key[0]}/{key[1]}/{key[2]}/v{key[3]:04d}"
                )
                relog.append(loaded)
        for key in sorted(logged):
            if key not in on_disk and all(v is not None for v in key):
                report.orphaned_records.append(
                    f"{prefix}{key[0]}/{key[1]}/{key[2]}/v{key[3]:04d}"
                )
        if repair:
            if bad_lines:
                # Rewrite the log without the torn lines (atomic +
                # durable) *before* re-appending unlogged versions —
                # rewriting from the pre-append snapshot would discard
                # the records appended below.
                self._rewrite_log(shard_root, records)
            for entry, content in relog:
                self._append_log(shard_root, entry, content)
        get_tracer().incr("catalog.fsck.runs")

    def _fsck_maps(self, shard_root: Path, repair: bool, report: "FsckReport") -> set:
        """Digests of the shard's intact map blobs; torn blobs are
        quarantined and staged leftovers removed."""
        intact = set()
        deps_root = shard_root / "deps"
        if not deps_root.is_dir():
            return intact
        for path in sorted(deps_root.iterdir()):
            if path.name.endswith(".staged"):
                self._remove_staged(path, repair, report)
                continue
            digest = path.name[: -len(".json")]
            try:
                good = sha256_hex(path.read_bytes()) == digest
            except OSError:
                good = False
            if good:
                intact.add(digest)
            else:
                self._quarantine(shard_root, path, repair, report)
        return intact

    def _remove_staged(self, path: Path, repair: bool, report: "FsckReport") -> None:
        report.staged_removed.append(str(path.relative_to(self.root)))
        if repair:
            path.unlink(missing_ok=True)

    def _quarantine(
        self, shard_root: Path, path: Path, repair: bool, report: "FsckReport"
    ) -> None:
        """Move ``path`` under the shard root's ``quarantine/``, keeping
        its relative path (with a unique suffix when one is there)."""
        report.quarantined.append(str(path.relative_to(self.root)))
        get_tracer().incr("catalog.fsck.quarantined")
        if repair:
            dest = shard_root / "quarantine" / path.relative_to(shard_root)
            dest.parent.mkdir(parents=True, exist_ok=True)
            if dest.exists():
                dest = dest.with_suffix(f".{int(time.time() * 1e6):x}.json")
            os.replace(path, dest)

    def compact_log(self) -> "LogCompaction":
        """Compact every ``log.jsonl``: drop torn lines, duplicate
        records, and records whose version file no longer exists (run
        :meth:`fsck` first so orphans are accounted before their records
        vanish).  Each rewrite is atomic and durable."""
        before = after = dropped = 0
        for compaction in self._fan_out(self._compact_shard):
            before += compaction.records_before
            after += compaction.records_after
            dropped += compaction.dropped
        return LogCompaction(
            records_before=before, records_after=after, dropped=dropped
        )

    def _compact_shard(self, shard_root: Path) -> "LogCompaction":
        records, bad = self._read_log(shard_root)
        kept: Dict[Tuple, dict] = {}
        dropped = len(bad)
        for record in records:
            key = (
                record.get("arch"),
                record.get("metric"),
                record.get("config_digest"),
                record.get("version"),
            )
            if all(v is not None for v in key):
                path = self._version_path(self._entry_dir(shard_root, *key[:3]), key[3])
                if not path.exists():
                    dropped += 1
                    continue
            if key in kept:
                dropped += 1
            kept[key] = record  # last record wins, order preserved by dict
        before = len(records) + len(bad)
        self._rewrite_log(shard_root, list(kept.values()))
        get_tracer().incr("catalog.log_compactions")
        return LogCompaction(
            records_before=before, records_after=len(kept), dropped=dropped
        )

    def _rewrite_log(self, shard_root: Path, records: List[dict]) -> None:
        body = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        staged = shard_root / f".log.{os.getpid()}.staged"
        with self._log_locks[shard_root]:
            durable_write(staged, body, durable=self.durable)
            durable_replace(staged, shard_root / "log.jsonl", durable=self.durable)


@dataclass
class FsckReport:
    """What :meth:`MetricCatalogStore.fsck` found (and repaired)."""

    scanned: int = 0
    quarantined: List[str] = field(default_factory=list)
    staged_removed: List[str] = field(default_factory=list)
    relogged: List[str] = field(default_factory=list)
    orphaned_records: List[str] = field(default_factory=list)
    log_torn_lines: int = 0

    @property
    def clean(self) -> bool:
        """True when the store showed no crash damage at all."""
        return not (
            self.quarantined
            or self.staged_removed
            or self.relogged
            or self.orphaned_records
            or self.log_torn_lines
        )

    def summary(self) -> str:
        return (
            f"catalog fsck: {self.scanned} version file(s) scanned, "
            f"{len(self.quarantined)} quarantined, "
            f"{len(self.staged_removed)} staged leftover(s) removed, "
            f"{len(self.relogged)} unlogged version(s) re-appended, "
            f"{len(self.orphaned_records)} orphaned log record(s), "
            f"{self.log_torn_lines} torn log line(s)"
        )


@dataclass(frozen=True)
class LogCompaction:
    """Result of one :meth:`MetricCatalogStore.compact_log` pass."""

    records_before: int
    records_after: int
    dropped: int
