"""Ground truth for the serving tier's invariant.

Every serving drill (:func:`~repro.serve.load.run_load_drill`, with or
without a chaos fault plan) judges each response against the same
reference: the answer one plain single-process :class:`MetricService`
gives with no chaos and no supervisor.  This module computes that
reference.

* :func:`definition_digest` reduces a served payload to its *definition
  digest* — the payload minus serving metadata (source, staleness,
  store-assigned version, trace lineage).  Equal digests mean
  bit-identical definitions.
* :func:`baseline_digests` answers every requested analysis in-process
  and records both the per-request digests (to judge responses) and the
  per-entry digests (to judge what a drill left in the catalog after
  ``fsck``).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.io.digest import json_digest
from repro.serve.service import MetricService

__all__ = ["baseline_digests", "definition_digest"]

#: Serving metadata: everything about *how* an answer was served rather
#: than *what* the metric definition is.  ``version`` is store-assigned,
#: ``trace_digest`` carries wall-clock lineage, ``event_digests`` may be
#: empty on unstored entries — mirroring
#: :meth:`CatalogEntry.content_digest`'s exclusions.
_VOLATILE_KEYS = (
    "source",
    "stale",
    "stale_age_seconds",
    "degraded",
    "version",
    "trace_digest",
    "content_digest",
    "event_digests",
)

#: ``(per-request, per-entry)`` digests: per-request keyed ``(system,
#: domain, seed)`` to ``{metric: digest}``, per-entry keyed ``(arch,
#: domain, metric, seed)`` — what a stored :class:`CatalogEntry` knows
#: about itself.
Baseline = Tuple[
    Dict[Tuple[str, str, int], Dict[str, str]],
    Dict[Tuple[str, str, str, int], str],
]


def definition_digest(payload: Dict[str, Any]) -> str:
    """Digest of a served metric payload minus serving metadata —
    equal digests mean bit-identical definitions."""
    stripped = {k: v for k, v in payload.items() if k not in _VOLATILE_KEYS}
    return json_digest(stripped, length=16)


def baseline_digests(
    requests: Sequence[Tuple[str, str, int]], cache_dir: Optional[str] = None
) -> Baseline:
    """Ground truth: every ``(system, domain, seed)`` in ``requests``
    answered by one plain in-process service."""

    async def answer() -> Baseline:
        service = MetricService(cache_dir=cache_dir)
        await service.start()
        try:
            digests: Dict[Tuple[str, str, int], Dict[str, str]] = {}
            entry_digests: Dict[Tuple[str, str, str, int], str] = {}
            for system, domain, seed in requests:
                if (system, domain, seed) in digests:
                    continue
                served = await service.analyze(system, domain, seed=seed)
                digests[(system, domain, seed)] = {
                    name: definition_digest(metric.to_payload())
                    for name, metric in served.items()
                }
                for name, metric in served.items():
                    entry = metric.entry
                    entry_digests[(entry.arch, entry.domain, name, entry.seed)] = (
                        digests[(system, domain, seed)][name]
                    )
            return digests, entry_digests
        finally:
            await service.stop(drain_timeout=5.0)

    return asyncio.run(answer())
