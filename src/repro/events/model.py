"""The raw-event model: events as linear functionals over activity.

A PMU event such as ``BR_INST_RETIRED:COND_TAKEN`` is, semantically, a
weighted count of microarchitectural occurrences — here, weight 1 on the
``branch.cond_taken`` activity key.  Subtler events carry non-trivial
weights: Intel's ``FP_ARITH_INST_RETIRED`` family increments *twice* per FMA
instruction, and AMD's ``SQ_INSTS_VALU_ADD_F*`` counts additions *and*
subtractions.  These semantics — not any hand-written answer table — are
what the analysis pipeline later rediscovers.

Events also carry a :class:`~repro.events.noise.NoiseModel` and a domain tag
(which hardware component they describe), used by the CAT runner to decide
which events each benchmark measures.

Every content digest of events (cache keys, registry digests, catalog
dependency maps) hashes the same per-event chunk, memoized on the event
object (:attr:`RawEvent.content_chunk`, :attr:`RawEvent.digest`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Tuple

import numpy as np

from repro.events.noise import NoiseModel, no_noise
from repro.activity import Activity
from repro.io.digest import sha256_hex

__all__ = ["EventDomain", "RawEvent"]


class EventDomain:
    """Hardware component an event describes (used for benchmark scoping).

    Plain string constants rather than an Enum so catalogs stay terse and
    new domains can be added without central coordination.
    """

    FLOPS = "flops"
    BRANCH = "branch"
    CACHE = "cache"
    TLB = "tlb"
    PIPELINE = "pipeline"
    FRONTEND = "frontend"
    MEMORY = "memory"
    GPU_VALU = "gpu_valu"
    GPU_MEMORY = "gpu_memory"
    GPU_PIPELINE = "gpu_pipeline"
    OTHER = "other"

    ALL: Tuple[str, ...] = (
        FLOPS,
        BRANCH,
        CACHE,
        TLB,
        PIPELINE,
        FRONTEND,
        MEMORY,
        GPU_VALU,
        GPU_MEMORY,
        GPU_PIPELINE,
        OTHER,
    )


@dataclass(frozen=True)
class RawEvent:
    """A raw hardware performance event.

    Attributes
    ----------
    name:
        Base event name (``FP_ARITH_INST_RETIRED``).
    qualifier:
        Umask/modifier (``SCALAR_DOUBLE``); empty for unqualified events.
    domain:
        One of :class:`EventDomain` — which hardware component this event
        monitors.  CAT benchmark runs measure domain-relevant *and* many
        irrelevant events, exactly as a blind sweep over a vendor event list
        would.
    response:
        Sparse weight vector over activity keys.  The measured count of the
        event for a kernel is ``sum(w_k * activity[k])`` before noise.
    noise:
        Run-to-run measurement-noise model.
    description:
        Human-readable documentation string (vendor-sheet style).
    device:
        For GPU events: the device qualifier (``rocm:::...:device=N``).
        ``None`` for CPU events.
    """

    name: str
    qualifier: str = ""
    domain: str = EventDomain.OTHER
    response: Mapping[str, float] = field(default_factory=dict)
    noise: NoiseModel = field(default_factory=no_noise)
    description: str = ""
    device: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("event name must be non-empty")
        if self.domain not in EventDomain.ALL:
            raise ValueError(f"unknown event domain {self.domain!r}")

    # Memoized like the content digests below (the event is frozen): the
    # name keys every registry lookup, column and dependency map.
    @cached_property
    def full_name(self) -> str:
        """PAPI-style full name, e.g. ``FP_ARITH_INST_RETIRED:SCALAR_DOUBLE``
        or ``rocm:::SQ_INSTS_VALU_ADD_F16:device=0``."""
        base = f"{self.name}:{self.qualifier}" if self.qualifier else self.name
        if self.device is not None:
            return f"rocm:::{base}:device={self.device}"
        return base

    # Content addressing ----------------------------------------------------
    # Memoized per event object.  Sound because the event is frozen and
    # every edit (``dataclasses.replace``, ``repro.incr.apply_edits``) makes
    # a new object: an edited event starts with no memo, and an unedited
    # one keeps its object and so its digest.
    @cached_property
    def content_chunk(self) -> bytes:
        """This event's bytes in every event-content digest: full name,
        sorted response weights and noise model, NUL-terminated."""
        response = repr(sorted(self.response.items()))
        return (self.full_name + response + repr(self.noise)).encode() + b"\x00"

    @cached_property
    def digest(self) -> str:
        """Hex SHA-256 of :attr:`content_chunk` (the one-event set digest)."""
        return sha256_hex(self.content_chunk)

    def true_count(self, activity: Activity) -> float:
        """Noise-free count of this event for one kernel execution."""
        return float(
            sum(weight * activity.get(key) for key, weight in self.response.items())
        )

    def read(self, activity: Activity, rng: Optional[np.random.Generator] = None) -> float:
        """Measured reading: the true count perturbed by the noise model."""
        return self.noise.apply(self.true_count(activity), rng)

    def responds_to(self, key_prefix: str) -> bool:
        """True if any response key starts with ``key_prefix``."""
        return any(k.startswith(key_prefix) for k in self.response)

    def __str__(self) -> str:
        return self.full_name
