"""Content-addressed cache for benchmark measurements.

Measuring is the expensive stage of every pipeline — ~300 events over all
kernel rows and repetitions — and sweeps repeat it: the dcache and dtlb
domains re-walk the same pointer-chase activities, portability studies
re-run every domain per node, and re-invocations of a report re-measure
what the previous invocation just produced.  Because the substrate is
bit-deterministic, a measurement is fully determined by its configuration;
this module derives a content address from that configuration and keeps a
two-level cache under it:

* an in-memory LRU of live :class:`MeasurementSet` objects (process-local,
  zero deserialization cost), over
* an optional on-disk layer reusing the ``.npz`` + JSON sidecar snapshot
  format of :mod:`repro.io.store` (shared across processes and runs).

The key covers everything a reading depends on: the node fingerprint
(name, seed, machine geometry, PMU budget), the benchmark configuration
(name, kernel rows, threads, environment noise, constructor parameters
off their defaults), the content of the event set (full names, response
weights, noise models), and the repetition count.  Anything that could
change a bit of the data changes the key.

Integrity: every disk entry carries a ``.sha256`` sidecar with content
checksums of both artifact files, written atomically alongside them.  A
read verifies the checksums (and survives a decode failure) before the
entry is trusted; anything corrupt — truncated write, torn page, bit rot,
or the fault injector's ``cache_corruption_rate`` — is moved to a
``quarantine/`` subdirectory, logged, counted in ``stats.corrupt``, and
reported as a miss so the caller transparently re-measures.  The keys of
quarantined entries are kept on ``cache.quarantined`` for the robustness
audit.  A disk layer that stops being writable (permissions, read-only
mount) is disabled with a logged warning instead of sinking the run.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro.cat.measurement import MeasurementSet
from repro.cat.runner import benchmark_overrides
from repro.events.model import RawEvent
from repro.io.digest import file_digest, json_digest, sha256_hex
from repro.io.store import load_measurements, save_measurements
from repro.obs import get_tracer

__all__ = [
    "CacheStats",
    "MeasurementCache",
    "default_measurement_cache",
    "event_set_digest",
    "measurement_cache_key",
]

logger = logging.getLogger(__name__)


def event_set_digest(events: Iterable[RawEvent]) -> str:
    """Digest of an event set's *content*, not just its names.

    Two registries with the same names but different response weights or
    noise models would measure differently; both are folded into the hash
    (one memoized :attr:`~repro.events.model.RawEvent.content_chunk` per
    event, so a set digest hashes but never re-serializes).
    """
    return sha256_hex(*(event.content_chunk for event in events))


def _node_fingerprint(node) -> dict:
    machine = node.machine
    config = getattr(machine, "config", None)
    return {
        "name": node.name,
        "seed": node.seed,
        "machine": type(machine).__name__,
        "config": repr(config),
        "pmu": [node.pmu.programmable_counters, node.pmu.fixed_counters],
    }


def _benchmark_fingerprint(benchmark) -> dict:
    env = benchmark.environment_noise
    fingerprint = {
        "name": benchmark.name,
        "row_labels": list(benchmark.row_labels()),
        "n_threads": benchmark.n_threads,
        "environment_noise": list(env) if env is not None else None,
        "domains": list(benchmark.measured_domains),
    }
    # Only parameters off their defaults and not named above: a benchmark
    # built with its defaults keys exactly as before parameters were
    # keyed, so stored entries stay valid.
    overrides = {
        name: value
        for name, value in benchmark_overrides(benchmark).items()
        if name not in fingerprint
    }
    if overrides:
        fingerprint["params"] = overrides
    return fingerprint


def measurement_cache_key(
    node,
    benchmark,
    events: Iterable[RawEvent],
    repetitions: int,
) -> str:
    """The content address of one benchmark measurement.

    ``events`` is the exact event set the runner will measure (an
    :class:`~repro.events.registry.EventRegistry` iterates as one).
    """
    payload = {
        "node": _node_fingerprint(node),
        "benchmark": _benchmark_fingerprint(benchmark),
        "events": event_set_digest(events),
        "repetitions": repetitions,
    }
    return json_digest(payload)


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    # Disk entries that failed checksum verification (or decoding) and
    # were quarantined; each also counts as a miss.
    corrupt: int = 0
    # In-memory LRU entries displaced by capacity pressure.  A hot
    # column-reuse workload (repro.incr keeps one entry per event) that
    # shows a non-zero eviction rate is telling you max_memory_entries
    # is too small for the working set.
    evictions: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits


class MeasurementCache:
    """LRU-in-memory, content-addressed-on-disk measurement cache.

    Parameters
    ----------
    root:
        Directory for the persistent layer; ``None`` keeps the cache
        memory-only (still worth it: repeated pipeline runs within one
        process skip measurement entirely).
    max_memory_entries:
        In-memory LRU capacity.  A full-catalog measurement is a few MB,
        so the default bounds the cache to tens of MB.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        max_memory_entries: int = 32,
    ):
        if max_memory_entries < 1:
            raise ValueError("max_memory_entries must be >= 1")
        self.root = Path(root) if root is not None else None
        self.max_memory_entries = max_memory_entries
        self._memory: "OrderedDict[str, MeasurementSet]" = OrderedDict()
        # Guards the in-memory LRU: the metric service shares one cache
        # instance across its worker threads, and OrderedDict mutation is
        # not atomic under concurrent move_to_end/popitem.
        self._memory_lock = threading.Lock()
        self.stats = CacheStats()
        # Keys of entries that failed verification and were set aside;
        # the robustness report reconciles injected cache corruption
        # against this list (the entry was caught, not trusted).
        self.quarantined: List[str] = []

    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> Optional[Path]:
        if self.root is None:
            return None
        return self.root / key[:2] / key

    @staticmethod
    def _entry_files(path: Path) -> List[Path]:
        return [path.with_suffix(".npz"), path.with_suffix(".json")]

    @staticmethod
    def _checksum_path(path: Path) -> Path:
        return path.with_suffix(".sha256")

    @classmethod
    def _digests(cls, path: Path) -> dict:
        return {
            f.suffix.lstrip("."): file_digest(f)
            for f in cls._entry_files(path)
            if f.exists()
        }

    def _verify(self, path: Path) -> None:
        """Raise ``ValueError`` when the entry's checksums do not match.

        An entry without a ``.sha256`` sidecar (written by an older run)
        is not failed outright — decoding is still the fallback check.
        """
        checksum_file = self._checksum_path(path)
        if not checksum_file.exists():
            return
        expected = json.loads(checksum_file.read_text())
        actual = self._digests(path)
        if actual != expected:
            bad = sorted(k for k in expected if actual.get(k) != expected[k])
            raise ValueError(f"checksum mismatch on {', '.join(bad) or 'entry'}")

    def _quarantine(self, key: str, path: Path, reason: Exception) -> None:
        """Set a corrupt entry aside (never delete: it is evidence)."""
        quarantine_dir = self.root / "quarantine"
        quarantine_dir.mkdir(parents=True, exist_ok=True)
        moved = []
        for f in self._entry_files(path) + [self._checksum_path(path)]:
            try:
                f.replace(quarantine_dir / f.name)
                moved.append(f.name)
            except FileNotFoundError:
                # Absent file, or a racing reader quarantined it first —
                # either way the poison is out of the entry path.
                continue
        self.quarantined.append(key)
        self.stats.corrupt += 1
        get_tracer().incr("cache.corrupt")
        logger.warning(
            "cache entry %s failed verification (%s: %s); quarantined %s "
            "and re-measuring",
            key[:12],
            type(reason).__name__,
            reason,
            ", ".join(moved),
        )

    def _remember(self, key: str, measurement: MeasurementSet) -> None:
        evicted = 0
        with self._memory_lock:
            self._memory[key] = measurement
            self._memory.move_to_end(key)
            while len(self._memory) > self.max_memory_entries:
                self._memory.popitem(last=False)
                evicted += 1
        if evicted:
            self.stats.evictions += evicted
            get_tracer().incr("cache.evictions", evicted)

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[MeasurementSet]:
        """The cached measurement for ``key``, or ``None`` on a miss.

        A disk entry is only a hit after its checksums verify, it
        decodes, and its content passes the load-time boundary
        validation (finite data, non-empty labels — see
        :mod:`repro.guard.validate`); a corrupt entry is quarantined and
        reported as a miss.
        """
        with self._memory_lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
        if cached is not None:
            self.stats.memory_hits += 1
            get_tracer().incr("cache.memory_hits")
            return cached
        path = self._disk_path(key)
        if path is not None and path.with_suffix(".npz").exists():
            try:
                self._verify(path)
                measurement = load_measurements(path)
            except Exception as exc:  # corrupt entry: quarantine, miss
                self._quarantine(key, path, exc)
            else:
                self._remember(key, measurement)
                self.stats.disk_hits += 1
                get_tracer().incr("cache.disk_hits")
                return measurement
        self.stats.misses += 1
        get_tracer().incr("cache.misses")
        return None

    def put(self, key: str, measurement: MeasurementSet) -> None:
        """Store a measurement under its content address.

        Disk publication is atomic and tolerates racing writers: the
        entry is staged in a private scratch directory and each file is
        ``os.replace``d into place, ``.npz`` last — its existence gates
        reads, so no reader ever observes a partially written entry.
        Because keys are content addresses, two writers racing on the
        same key are writing identical bytes and the last rename simply
        re-publishes the same content.
        """
        self._remember(key, measurement)
        self.stats.stores += 1
        get_tracer().incr("cache.stores")
        path = self._disk_path(key)
        if path is None:
            return
        try:
            self._publish_entry(key, path, measurement)
        except (OSError, PermissionError) as exc:
            # A disk layer that cannot be written must not sink the run;
            # keep the in-memory layer and stop touching the disk.
            logger.warning(
                "measurement cache disk layer at %s is not writable "
                "(%s: %s); disabling it for this cache instance",
                self.root,
                type(exc).__name__,
                exc,
            )
            self.root = None

    _scratch_seq = itertools.count()

    def _publish_entry(
        self, key: str, path: Path, measurement: MeasurementSet
    ) -> None:
        """Stage the entry's three files privately, then rename them into
        place (json, checksum, then npz — the read gate — last)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        scratch = self.root / "tmp" / (
            f"{key[:8]}-{os.getpid()}-{threading.get_ident()}-"
            f"{next(self._scratch_seq)}"
        )
        scratch.mkdir(parents=True, exist_ok=True)
        try:
            staged = scratch / key
            save_measurements(measurement, staged)
            checksums = self._digests(staged)
            self._checksum_path(staged).write_text(
                json.dumps(checksums, sort_keys=True)
            )
            for suffix in (".json", ".sha256", ".npz"):
                os.replace(
                    staged.with_suffix(suffix), path.with_suffix(suffix)
                )
        finally:
            for leftover in scratch.glob("*"):
                try:
                    leftover.unlink()
                except OSError:
                    pass
            try:
                scratch.rmdir()
            except OSError:
                pass

    def verify_all(self) -> List[str]:
        """Verify every on-disk entry; quarantine the corrupt ones and
        return their keys (a cache fsck).

        In a shared-cache sweep an entry can be corrupted *after* the
        task that owns it already read it, so no in-run read would catch
        the damage; a post-sweep pass closes that hole and scrubs the
        poison out before any later run trusts the directory.
        """
        if self.root is None or not self.root.exists():
            return []
        caught: List[str] = []
        for npz in sorted(self.root.glob("*/*.npz")):
            if npz.parent.name == "quarantine":
                continue
            path = npz.with_suffix("")
            try:
                self._verify(path)
                load_measurements(path)
            except Exception as exc:
                self._quarantine(path.name, path, exc)
                caught.append(path.name)
        return caught

    def get_or_measure(self, key: str, measure) -> MeasurementSet:
        """The cached measurement, or ``measure()``'s result (then cached)."""
        cached = self.get(key)
        if cached is not None:
            return cached
        measurement = measure()
        self.put(key, measurement)
        return measurement

    def clear(self) -> None:
        """Drop the in-memory layer (the disk layer is left untouched)."""
        self._memory.clear()

    def __len__(self) -> int:
        return len(self._memory)

    def __repr__(self) -> str:
        where = str(self.root) if self.root is not None else "memory-only"
        return (
            f"MeasurementCache({where}, {len(self._memory)}/"
            f"{self.max_memory_entries} in memory, "
            f"{self.stats.hits} hits / {self.stats.misses} misses)"
        )


_DEFAULT_CACHE: Optional[MeasurementCache] = None


def default_measurement_cache() -> MeasurementCache:
    """The process-wide shared cache used when a pipeline enables caching
    without supplying its own instance (memory-only)."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = MeasurementCache()
    return _DEFAULT_CACHE
