"""Consistent-hash catalog sharding: the ring and the sharded store.

One :class:`~repro.serve.catalog.MetricCatalogStore` directory is one
disk, one fsync queue, one directory-scan ceiling.  To serve "millions
of users" the catalog must partition — and the partition function must
be *stable* (a key always routes to the same shard, across processes
and restarts), *balanced* (no shard hoards the keyspace), and *minimal
under resharding* (growing N shards to N+1 moves ~1/(N+1) of the keys,
never a reshuffle of everything).  Those are exactly the guarantees of
a consistent-hash ring with virtual nodes, so that is what
:class:`ShardRing` is:

* Every shard contributes ``vnodes`` points on a 2**64 ring, each point
  the SHA-256 of ``"shard:<name>:vnode:<i>"`` — fully deterministic, no
  process-local salt, so every dispatcher, worker, and test agrees on
  the topology from the names alone.
* A key ``(architecture, metric)`` hashes to one ring position; its
  owner is the first shard point at or after it (wrapping).  Dead
  shards are *walked past*, so every key always maps to exactly one
  live shard while any shard survives.
* Adding a shard inserts its points between existing ones: a key moves
  only when a new point lands between the key and its old owner — i.e.
  only *onto the new shard*, and only for the slice the new shard now
  owns.  ``tests/serve/test_shard.py`` holds these as hypothesis
  properties.

:class:`ShardedCatalogStore` is the front that makes N per-shard
catalog stores look like one:

* **Routing** — keyed operations (``put``/``get``/``latest``/
  ``history``/``diff``/``stale_latest``) go to the ring owner of
  ``(arch, metric)`` (``shard.routes``).
* **Fan-out** — ``list_entries``/``log_records``/``fsck``/
  ``compact_log`` visit every shard and merge deterministically
  (rows sorted by key, fsck paths prefixed with the shard name), so a
  sharded catalog and an unsharded one render identically.
* **Degradation, not collapse** — a shard marked down (operator action
  or an I/O error during fan-out) yields a typed
  :class:`ShardUnavailable` (HTTP 503, retryable) for *its* keys, while
  every other shard keeps serving; listings skip it and record it in
  ``degraded_shards`` (``shard.degraded_reads``).
* **Read replicas** — hot ``latest`` reads are replicated into a small
  in-memory LRU; a replica is served only while its recorded
  events-registry digest (or per-event dependency map) still matches
  the caller's, so a registry edit invalidates replicas by the exact
  mechanism the catalog already uses for disk reads
  (``shard.replica_hits`` / ``shard.replica_invalidations``).

The topology is persisted in ``<root>/shards.json`` so a reader can
open an existing sharded root without being told N; creating and
opening are the same call.  Layout::

    root/
      shards.json                 # {"format": 1, "shards": [...], "vnodes": V}
      shard-00/ ... shard-NN/     # each a MetricCatalogStore root
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.io.digest import sha256_hex
from repro.obs import get_tracer
from repro.serve.catalog import (
    CatalogDiff,
    CatalogEntry,
    FsckReport,
    LogCompaction,
    MetricCatalogStore,
)
from repro.serve.service import ServiceError

__all__ = [
    "ShardRing",
    "ShardUnavailable",
    "ShardedCatalogStore",
    "open_catalog",
    "shard_names",
]

#: On-disk topology manifest format (bumped on incompatible changes).
MANIFEST_FORMAT = 1

_MANIFEST_NAME = "shards.json"

#: Ring positions live on [0, 2**64).
_RING_BITS = 64


def shard_names(n: int) -> Tuple[str, ...]:
    """The canonical names of an N-shard topology: ``shard-00`` ...."""
    if n < 1:
        raise ValueError(f"a topology needs at least one shard, got {n}")
    return tuple(f"shard-{i:02d}" for i in range(n))


def _ring_position(*chunks: str) -> int:
    return int(sha256_hex(":".join(chunks), length=_RING_BITS // 4), 16)


class ShardUnavailable(ServiceError):
    """Typed degradation: the shard owning this key is down (HTTP 503).

    Raised instead of whatever I/O error took the shard out, so callers
    (and the HTTP layer, which already speaks :class:`ServiceError`) see
    a retryable, structured failure scoped to the *keys of one shard* —
    never a whole-catalog outage.
    """

    def __init__(self, shard: str, detail: Optional[str] = None):
        self.shard = shard
        super().__init__(
            503,
            {
                "error": f"catalog shard {shard!r} is unavailable"
                + (f": {detail}" if detail else ""),
                "shard": shard,
                "retry": True,
            },
        )


class ShardRing:
    """Deterministic consistent-hash ring with virtual nodes.

    ``shards`` orders the topology (the manifest preserves it); the ring
    itself depends only on the shard *names*, so two processes that
    agree on the names agree on every routing decision.
    """

    def __init__(self, shards: Sequence[str], *, vnodes: int = 128):
        if not shards:
            raise ValueError("ShardRing needs at least one shard")
        if len(set(shards)) != len(shards):
            raise ValueError(f"duplicate shard names: {sorted(shards)}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.shards: Tuple[str, ...] = tuple(shards)
        self.vnodes = vnodes
        points: List[Tuple[int, str]] = []
        for name in self.shards:
            for i in range(vnodes):
                points.append((_ring_position("shard", name, f"vnode:{i}"), name))
        # SHA-256 collisions on 64 bits across a few thousand points are
        # astronomically unlikely; break ties by name so even then the
        # ring is a deterministic function of the topology.
        points.sort()
        self._points = points
        self._positions = [p for p, _ in points]

    @classmethod
    def of_size(cls, n: int, *, vnodes: int = 128) -> "ShardRing":
        return cls(shard_names(n), vnodes=vnodes)

    @staticmethod
    def key_position(arch: str, metric: str) -> int:
        """The ring position of a catalog key (pure, process-independent)."""
        return _ring_position("key", arch, metric)

    def lookup(
        self,
        arch: str,
        metric: str,
        *,
        exclude: Iterable[str] = (),
    ) -> str:
        """The live shard owning ``(arch, metric)``.

        ``exclude`` names down shards; their ring points are walked
        past, so the key still maps to exactly one *live* shard.  Raises
        :class:`ShardUnavailable` only when every shard is excluded.
        """
        down = frozenset(exclude)
        if not down:
            return self._owner(self.key_position(arch, metric))
        if down.issuperset(self.shards):
            raise ShardUnavailable(
                "*", "every shard of the topology is down"
            )
        position = self.key_position(arch, metric)
        start = bisect_left(self._positions, position)
        n = len(self._points)
        for offset in range(n):
            _, name = self._points[(start + offset) % n]
            if name not in down:
                return name
        raise AssertionError("unreachable: a live shard exists")  # pragma: no cover

    def _owner(self, position: int) -> str:
        index = bisect_left(self._positions, position)
        return self._points[index % len(self._points)][1]

    def arc_shares(self) -> Dict[str, float]:
        """Fraction of the ring each shard owns (sums to 1.0) — the
        balance diagnostic the property tests bound."""
        total = 1 << _RING_BITS
        shares = {name: 0 for name in self.shards}
        previous = self._points[-1][0] - total  # wrap: last point precedes 0
        for position, name in self._points:
            shares[name] += position - previous
            previous = position
        return {name: count / total for name, count in shares.items()}


@dataclass
class _Replica:
    """One replicated entry plus the freshness evidence it was read under."""

    entry: CatalogEntry
    events_digest: Optional[str]
    event_digests: Optional[Dict[str, str]]


class ShardedCatalogStore:
    """N per-shard :class:`MetricCatalogStore` roots behind one ring.

    Opening an existing root reads ``shards.json`` and ignores
    ``n_shards``'s value only if it matches — a topology mismatch is an
    error, not a silent re-partition (routing under the wrong N would
    scatter reads and writes across disagreeing owners).

    The interface mirrors :class:`MetricCatalogStore` (the service and
    CLI are duck-typed over either), plus shard management:
    :meth:`mark_down` / :meth:`mark_up`, :attr:`down_shards`, and
    :attr:`degraded_shards` (shards skipped by the most recent fan-out).
    """

    def __init__(
        self,
        root: Union[str, Path],
        n_shards: Optional[int] = None,
        *,
        vnodes: int = 128,
        replica_capacity: int = 256,
        durable: bool = True,
        failpoint: Optional[Callable[[str], Optional[str]]] = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        manifest = self._load_manifest()
        if manifest is None:
            if n_shards is None:
                raise ValueError(
                    f"{self.root} has no {_MANIFEST_NAME}: pass n_shards to "
                    "create a sharded catalog"
                )
            names = shard_names(n_shards)
            self._write_manifest(names, vnodes)
        else:
            names = tuple(manifest["shards"])
            vnodes = int(manifest["vnodes"])
            if n_shards is not None and n_shards != len(names):
                raise ValueError(
                    f"{self.root} is a {len(names)}-shard catalog; "
                    f"reopening it with n_shards={n_shards} would re-partition "
                    "every key — migrate explicitly instead"
                )
        self.ring = ShardRing(names, vnodes=vnodes)
        self.durable = durable
        self._stores: Dict[str, MetricCatalogStore] = {
            name: MetricCatalogStore(
                self.root / name, durable=durable, failpoint=failpoint
            )
            for name in names
        }
        self._down: set = set()
        #: Shards the most recent fan-out had to skip (down or erroring).
        self.degraded_shards: Tuple[str, ...] = ()
        self._replica_capacity = replica_capacity
        self._replicas: "OrderedDict[Tuple[str, str, str], _Replica]" = OrderedDict()
        self._replica_lock = threading.Lock()

    # -- topology ------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / _MANIFEST_NAME

    def _load_manifest(self) -> Optional[dict]:
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except OSError:
            return None
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ValueError(
                f"unsupported shard manifest format {manifest.get('format')!r} "
                f"in {self.manifest_path} (this reader speaks {MANIFEST_FORMAT})"
            )
        return manifest

    def _write_manifest(self, names: Sequence[str], vnodes: int) -> None:
        import os

        payload = {
            "format": MANIFEST_FORMAT,
            "shards": list(names),
            "vnodes": vnodes,
        }
        # Atomic publish: racing creators (N workers opening the same
        # fresh root) write identical content, but a reader must never
        # see a torn manifest.
        staged = self.root / f".{_MANIFEST_NAME}.{os.getpid()}.staged"
        staged.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(staged, self.manifest_path)

    @property
    def shards(self) -> Tuple[str, ...]:
        return self.ring.shards

    @property
    def down_shards(self) -> FrozenSet[str]:
        return frozenset(self._down)

    def mark_down(self, shard: str) -> None:
        """Quarantine a shard: its keys degrade to :class:`ShardUnavailable`."""
        if shard not in self._stores:
            raise KeyError(f"unknown shard {shard!r}; have {list(self.shards)}")
        self._down.add(shard)
        with self._replica_lock:
            self._replicas.clear()

    def mark_up(self, shard: str) -> None:
        self._down.discard(shard)

    def shard_store(self, shard: str) -> MetricCatalogStore:
        """The underlying per-shard store (tests and tooling)."""
        return self._stores[shard]

    def shard_for(self, arch: str, metric: str) -> str:
        """The shard that owns a key right now (down shards walked past
        only for reads — see :meth:`_route`)."""
        return self.ring.lookup(arch, metric)

    def _route(self, arch: str, metric: str) -> MetricCatalogStore:
        """The owning store, or :class:`ShardUnavailable` if it is down.

        Down shards are *not* walked past for keyed catalog operations:
        a key's entries live in exactly one shard directory, so serving
        the key from a neighbour would manufacture misses (and writes
        would strand versions where no reader routes).  Walking past
        dead shards is the dispatcher's trick for *stateless* work; the
        store degrades loudly instead.
        """
        shard = self.ring.lookup(arch, metric)
        if shard in self._down:
            get_tracer().incr("shard.degraded_reads")
            raise ShardUnavailable(shard)
        get_tracer().incr("shard.routes")
        return self._stores[shard]

    # -- replicas ------------------------------------------------------
    def _replica_key(
        self, arch: str, metric: str, config_digest: str
    ) -> Tuple[str, str, str]:
        return (arch, metric, config_digest)

    def _replica_get(
        self,
        key: Tuple[str, str, str],
        events_digest: Optional[str],
        event_digests: Optional[Dict[str, str]],
    ) -> Optional[CatalogEntry]:
        with self._replica_lock:
            replica = self._replicas.get(key)
            if replica is None:
                return None
            if (
                replica.events_digest != events_digest
                or replica.event_digests != event_digests
            ):
                # The registry moved under the replica (or the caller's
                # freshness evidence changed): invalidate, re-read.
                del self._replicas[key]
                get_tracer().incr("shard.replica_invalidations")
                return None
            self._replicas.move_to_end(key)
        get_tracer().incr("shard.replica_hits")
        return replica.entry

    def _replica_put(
        self,
        key: Tuple[str, str, str],
        entry: CatalogEntry,
        events_digest: Optional[str],
        event_digests: Optional[Dict[str, str]],
    ) -> None:
        if events_digest is None and event_digests is None:
            # An unchecked read carries no freshness evidence; caching
            # it could serve a stale definition as fresh.  Don't.
            return
        with self._replica_lock:
            self._replicas[key] = _Replica(
                entry=entry,
                events_digest=events_digest,
                event_digests=dict(event_digests) if event_digests else None,
            )
            self._replicas.move_to_end(key)
            while len(self._replicas) > self._replica_capacity:
                self._replicas.popitem(last=False)

    def _replica_drop(self, key: Tuple[str, str, str]) -> None:
        with self._replica_lock:
            self._replicas.pop(key, None)

    @property
    def replica_count(self) -> int:
        with self._replica_lock:
            return len(self._replicas)

    # -- keyed operations ----------------------------------------------
    def put(self, entry: CatalogEntry) -> CatalogEntry:
        store = self._route(entry.arch, entry.metric)
        stored = store.put(entry)
        # A write is the other invalidation edge: the replica of this
        # key (if any) predates the new version.
        self._replica_drop(
            self._replica_key(entry.arch, entry.metric, entry.config_digest)
        )
        return stored

    def get(
        self,
        arch: str,
        metric: str,
        config_digest: str,
        version: Optional[int] = None,
        events_digest: Optional[str] = None,
        event_digests: Optional[Dict[str, str]] = None,
    ) -> Optional[CatalogEntry]:
        if version is not None:
            return self._route(arch, metric).get(
                arch,
                metric,
                config_digest,
                version=version,
                events_digest=events_digest,
                event_digests=event_digests,
            )
        return self.latest(
            arch,
            metric,
            config_digest,
            events_digest=events_digest,
            event_digests=event_digests,
        )

    def latest(
        self,
        arch: str,
        metric: str,
        config_digest: str,
        events_digest: Optional[str] = None,
        event_digests: Optional[Dict[str, str]] = None,
    ) -> Optional[CatalogEntry]:
        key = self._replica_key(arch, metric, config_digest)
        replica = self._replica_get(key, events_digest, event_digests)
        if replica is not None:
            return replica
        entry = self._route(arch, metric).latest(
            arch,
            metric,
            config_digest,
            events_digest=events_digest,
            event_digests=event_digests,
        )
        if entry is not None:
            self._replica_put(key, entry, events_digest, event_digests)
        return entry

    def history(
        self, arch: str, metric: str, config_digest: str
    ) -> List[CatalogEntry]:
        return self._route(arch, metric).history(arch, metric, config_digest)

    def diff(
        self,
        arch: str,
        metric: str,
        config_digest: str,
        version_a: int,
        version_b: int,
    ) -> CatalogDiff:
        return self._route(arch, metric).diff(
            arch, metric, config_digest, version_a, version_b
        )

    def stale_latest(
        self,
        arch: str,
        metric: str,
        config_digest: str,
        max_age: Optional[float] = None,
    ) -> Optional[Tuple[CatalogEntry, float]]:
        return self._route(arch, metric).stale_latest(
            arch, metric, config_digest, max_age=max_age
        )

    # -- fan-out operations --------------------------------------------
    def _fan_out(self, op: Callable[[MetricCatalogStore], object]) -> List[Tuple[str, object]]:
        """Run ``op`` on every live shard (topology order); I/O errors
        degrade that shard for this call instead of failing the fan-out.
        ``degraded_shards`` records what was skipped."""
        get_tracer().incr("shard.fanouts")
        results: List[Tuple[str, object]] = []
        degraded: List[str] = []
        for name in self.shards:
            if name in self._down:
                degraded.append(name)
                continue
            try:
                results.append((name, op(self._stores[name])))
            except OSError:
                degraded.append(name)
        if degraded:
            get_tracer().incr("shard.degraded_reads")
        self.degraded_shards = tuple(degraded)
        return results

    def list_entries(self, arch: Optional[str] = None) -> List[dict]:
        """Summary rows across every live shard, deterministically
        ordered by (arch, metric, config digest) — byte-identical to an
        unsharded listing of the same entries.  Down shards degrade
        (their rows are absent and listed in ``degraded_shards``)."""
        rows: List[dict] = []
        for _, shard_rows in self._fan_out(lambda s: s.list_entries(arch)):
            rows.extend(shard_rows)
        rows.sort(key=lambda r: (r["arch"], r["metric"], r["config_digest"]))
        return rows

    def log_records(self) -> List[dict]:
        """Every shard's version log, concatenated in topology order
        (within a shard the append order is preserved)."""
        records: List[dict] = []
        for _, shard_records in self._fan_out(lambda s: s.log_records()):
            records.extend(shard_records)
        return records

    def fsck(self, repair: bool = True) -> FsckReport:
        """Fan-out fsck; one merged report with shard-prefixed paths."""
        merged = FsckReport()
        for name, report in self._fan_out(lambda s: s.fsck(repair=repair)):
            merged.scanned += report.scanned
            merged.log_torn_lines += report.log_torn_lines
            merged.quarantined.extend(f"{name}/{p}" for p in report.quarantined)
            merged.staged_removed.extend(
                f"{name}/{p}" for p in report.staged_removed
            )
            merged.relogged.extend(f"{name}/{p}" for p in report.relogged)
            merged.orphaned_records.extend(
                f"{name}/{p}" for p in report.orphaned_records
            )
        return merged

    def compact_log(self) -> LogCompaction:
        before = after = dropped = 0
        for _, compaction in self._fan_out(lambda s: s.compact_log()):
            before += compaction.records_before
            after += compaction.records_after
            dropped += compaction.dropped
        return LogCompaction(
            records_before=before, records_after=after, dropped=dropped
        )


def open_catalog(
    root: Union[str, Path],
    *,
    shards: int = 0,
    durable: bool = True,
    failpoint: Optional[Callable[[str], Optional[str]]] = None,
) -> Union[MetricCatalogStore, ShardedCatalogStore]:
    """Open a catalog root, sharded or plain, by inspection.

    A root carrying ``shards.json`` opens sharded regardless of
    ``shards`` (the manifest is authoritative); otherwise ``shards > 0``
    creates a new sharded topology and ``shards == 0`` opens the classic
    single-directory store.  Every CLI verb and server entry point funnels
    through here so ``--shards`` never has to be repeated once a root
    exists.
    """
    root = Path(root)
    if (root / _MANIFEST_NAME).exists() or shards > 0:
        return ShardedCatalogStore(
            root,
            n_shards=shards if shards > 0 else None,
            durable=durable,
            failpoint=failpoint,
        )
    return MetricCatalogStore(root, durable=durable, failpoint=failpoint)
