"""Serve-layer chaos: deterministic fault sites above the pipeline.

:mod:`repro.faults` (PR 2) stops at the measurement path — dropouts,
spikes, crashed sweep workers.  The serving tier has its own failure
vocabulary: a worker *process* SIGKILLed mid-batch, an event loop that
wedges, a catalog publication torn by power loss, a listener that drops
the socket before answering, injected latency.  :class:`ChaosConfig`
names those pathologies and :class:`ChaosInjector` fires them with the
exact discipline the measurement injector established: every decision is
drawn from its own stream keyed by ``(seed, kind, site)`` — a pure
function of the configuration and the site name, independent of
execution order, process boundaries, or how many times other sites were
consulted.  A closed-loop drill with a fault plan
(:func:`repro.serve.load.run_load_drill` with ``chaos_spec``, one
sequential client) names its sites by request ordinal and therefore
injects the same faults on every run.

Site conventions (what the serving tier passes as ``site``):

========================  =============================================
``dispatch:<n>``          the supervisor's n-th proxied request
                          (worker kills fire here)
``request:<worker>:<n>``  the n-th request a worker listener accepted
                          (hangs, socket drops, latency fire here)
``catalog.publish:...``   one catalog publication (see
                          :meth:`MetricCatalogStore._publish_site`;
                          torn/unlogged publications fire here)
========================  =============================================

Like the measurement-path model, a zero-rate config injects nothing and
the chaos-wrapped serving path is behaviourally identical to the
unwrapped one (property: the load drill with a zero chaos spec produces
responses bit-identical to single-service serving).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.faults.injector import _site_rng
from repro.faults.model import FaultRecord, _parse_spec, _RateConfig
from repro.obs import get_tracer

__all__ = ["ChaosConfig", "ChaosInjector", "parse_chaos_spec"]


@dataclass(frozen=True)
class ChaosConfig(_RateConfig):
    """Rates of every injectable serve-layer pathology.

    All rates default to zero: a default config injects nothing.

    Parameters
    ----------
    seed:
        Root of every injection stream (per-(seed, kind, site) streams,
        see module docstring).
    worker_kill_rate:
        Probability the supervisor SIGKILLs the worker it just dispatched
        a request to — the request dies mid-flight and must be
        re-dispatched; the worker must be detected and restarted.
    worker_hang_rate / hang_seconds:
        Probability a worker's event loop blocks for ``hang_seconds``
        while handling a request.  A hang longer than the supervisor's
        heartbeat timeout is indistinguishable from a wedged process and
        triggers kill + restart.
    torn_publication_rate:
        Probability a catalog publication is torn: a truncated version
        file reaches disk, no log record does (simulated power loss
        mid-publish; ``catalog fsck`` must quarantine it).
    unlogged_publication_rate:
        Probability a publication completes but its log append is lost
        (power loss after rename; fsck re-appends the record).
    socket_drop_rate:
        Probability the listener closes a client connection without
        sending any response — the retrying client's problem.
    latency_rate / latency_seconds:
        Probability (and size of) injected response latency, for
        exercising client deadlines.
    """

    seed: int = 0
    worker_kill_rate: float = 0.0
    worker_hang_rate: float = 0.0
    hang_seconds: float = 2.0
    torn_publication_rate: float = 0.0
    unlogged_publication_rate: float = 0.0
    socket_drop_rate: float = 0.0
    latency_rate: float = 0.0
    latency_seconds: float = 0.05

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.hang_seconds < 0:
            raise ValueError("hang_seconds must be >= 0")
        if self.latency_seconds < 0:
            raise ValueError("latency_seconds must be >= 0")


#: kind name (as consulted by the serving tier) -> rate field
_RATE_BY_KIND: Dict[str, str] = {
    "worker-kill": "worker_kill_rate",
    "worker-hang": "worker_hang_rate",
    "torn-publication": "torn_publication_rate",
    "unlogged-publication": "unlogged_publication_rate",
    "socket-drop": "socket_drop_rate",
    "latency": "latency_rate",
}

_SPEC_ALIASES: Dict[str, str] = {
    "kill": "worker_kill_rate",
    "worker_kill": "worker_kill_rate",
    "hang": "worker_hang_rate",
    "worker_hang": "worker_hang_rate",
    "torn": "torn_publication_rate",
    "torn_publication": "torn_publication_rate",
    "unlogged": "unlogged_publication_rate",
    "drop": "socket_drop_rate",
    "socket_drop": "socket_drop_rate",
    "latency": "latency_rate",
}


def parse_chaos_spec(spec: str) -> ChaosConfig:
    """Parse a compact CLI chaos spec into a :class:`ChaosConfig`.

    Same grammar as :func:`repro.faults.parse_fault_spec`::

        seed=7,kill=0.2,torn=0.3,drop=0.1,latency=0.5,latency_seconds=0.01
    """
    return _parse_spec(ChaosConfig, spec, _SPEC_ALIASES, "chaos")


class ChaosInjector:
    """Fires :class:`ChaosConfig` pathologies at named serve-layer sites.

    One injector is scoped to one process (supervisor or worker); its
    ``records`` list is the ground truth of what was injected there, in
    the same :class:`~repro.faults.model.FaultRecord` shape the
    measurement-path audit uses.  Decisions are stateless per site:
    consulting the same ``(kind, site)`` twice returns the same answer.
    """

    def __init__(self, config: ChaosConfig):
        self.config = config
        self.records: List[FaultRecord] = []

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def fires(self, kind: str, site: str) -> bool:
        """Whether fault ``kind`` fires at ``site`` (deterministic)."""
        rate_field = _RATE_BY_KIND.get(kind)
        if rate_field is None:
            raise ValueError(
                f"unknown chaos kind {kind!r}; known: {sorted(_RATE_BY_KIND)}"
            )
        rate = getattr(self.config, rate_field)
        if rate <= 0.0:
            return False
        rng = _site_rng(self.config.seed, f"chaos:{kind}:{site}")
        if rng.random() >= rate:
            return False
        self.records.append(
            FaultRecord(kind=f"chaos-{kind}", context=site, detail="serve-layer")
        )
        get_tracer().incr(f"chaos.injected.{kind}")
        return True

    def latency(self, site: str) -> float:
        """Injected latency (seconds) for ``site``; 0.0 when none fires."""
        if self.fires("latency", site):
            return self.config.latency_seconds
        return 0.0

    def catalog_failpoint(self, site: str) -> Optional[str]:
        """:class:`MetricCatalogStore` ``failpoint`` adapter: maps the
        publication site to a ``"torn"`` / ``"unlogged"`` action."""
        if self.fires("torn-publication", site):
            return "torn"
        if self.fires("unlogged-publication", site):
            return "unlogged"
        return None
