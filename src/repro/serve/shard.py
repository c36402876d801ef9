"""Consistent-hash ring: which shard directory owns a catalog key.

A sharded :class:`~repro.serve.catalog.MetricCatalogStore` root keeps
one directory per shard, and the partition function must be *stable*
(a key always routes to the same shard, across processes and restarts),
*balanced* (no shard hoards the keyspace), and *minimal under
resharding* (growing N shards to N+1 moves ~1/(N+1) of the keys, never
a reshuffle of everything).  Those are exactly the guarantees of a
consistent-hash ring with virtual nodes, so that is what
:class:`ShardRing` is:

* Every shard contributes ``vnodes`` points on a 2**64 ring, each point
  the SHA-256 of ``"shard:<name>:vnode:<i>"`` — fully deterministic, no
  process-local salt, so every dispatcher, worker, and test agrees on
  the topology from the names alone.
* A key ``(architecture, metric)`` hashes to one ring position; its
  owner is the first shard point at or after it (wrapping).
* Adding a shard inserts its points between existing ones: a key moves
  only when a new point lands between the key and its old owner — i.e.
  only *onto the new shard*, and only for the slice the new shard now
  owns.  ``tests/serve/test_shard.py`` holds these as hypothesis
  properties.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

from repro.io.digest import sha256_hex

__all__ = ["ShardRing", "shard_names"]

#: Ring positions live on [0, 2**64).
_RING_BITS = 64


def shard_names(n: int) -> Tuple[str, ...]:
    """The canonical names of an N-shard topology: ``shard-00`` ...."""
    if n < 1:
        raise ValueError(f"a topology needs at least one shard, got {n}")
    return tuple(f"shard-{i:02d}" for i in range(n))


def _ring_position(*chunks: str) -> int:
    return int(sha256_hex(":".join(chunks), length=_RING_BITS // 4), 16)


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

    def lookup(self, arch: str, metric: str) -> str:
        """The shard owning ``(arch, metric)``: the first shard point at
        or after the key's ring position (wrapping)."""
        index = bisect_left(self._positions, _ring_position("key", arch, metric))
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
