"""Verdict taxonomy and reports for counter validation.

Röhl et al. validate PMU events by running kernels whose event counts are
analytically known and comparing measured against expected; events that
deviate are classified by *how* they deviate.  This module is the
vocabulary of that comparison:

* ``accurate`` — every exercised observation lands inside the tolerance
  band the event's own noise model predicts.
* ``overcounting`` / ``undercounting`` — a consistent multiplicative
  deviation above / below 1 (e.g. an event that also fires for a
  neighbouring micro-op, or misses a fused one).
* ``multi_counting`` — the deviation ratio is an integer >= 2: the event
  fires once per *occurrence component* instead of once per occurrence
  (Röhl's classic FLOP-per-SIMD-lane case).
* ``unreliable`` — the deviation is not consistent across kernels or
  configurations; no single correction factor explains it.
* ``unvetted`` — the campaign never exercised the event (no probe row
  produced a usable expected count), so nothing can be said.

A verdict other than ``accurate`` or ``unvetted`` is *refuted*: the event
failed validation and should not define a metric without correction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Tuple, Union

__all__ = [
    "ACCURATE",
    "EventVerdict",
    "MULTI_COUNTING",
    "OVERCOUNTING",
    "REFUTED_VERDICTS",
    "UNDERCOUNTING",
    "UNRELIABLE",
    "UNVETTED",
    "VERDICTS",
    "ValidationReport",
]

ACCURATE = "accurate"
OVERCOUNTING = "overcounting"
UNDERCOUNTING = "undercounting"
MULTI_COUNTING = "multi_counting"
UNRELIABLE = "unreliable"
UNVETTED = "unvetted"

#: Every verdict a campaign can hand down (unvetted is the absence of one).
VERDICTS = (
    ACCURATE,
    OVERCOUNTING,
    UNDERCOUNTING,
    MULTI_COUNTING,
    UNRELIABLE,
    UNVETTED,
)

#: Verdicts that refute the event's documented semantics.
REFUTED_VERDICTS = (OVERCOUNTING, UNDERCOUNTING, MULTI_COUNTING, UNRELIABLE)


@dataclass(frozen=True)
class EventVerdict:
    """The campaign's judgement of one event on one architecture.

    ``ratio_*`` summarize ``measured / expected`` over every exercised
    observation (probe row x perturbed config); ``tolerance`` is the
    median per-observation tolerance band derived from the event's noise
    model (see :meth:`repro.events.noise.NoiseModel.predicted_rel_std`).
    ``ghost_rows`` counts probe rows where the event fired substantially
    with zero expected activity.
    """

    event: str
    verdict: str
    ratio_median: float = 1.0
    ratio_min: float = 1.0
    ratio_max: float = 1.0
    tolerance: float = 0.0
    n_observations: int = 0
    n_deviating: int = 0
    ghost_rows: int = 0
    reasons: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ValueError(
                f"unknown verdict {self.verdict!r}; expected one of {VERDICTS}"
            )

    @property
    def refuted(self) -> bool:
        """True when the event failed validation outright."""
        return self.verdict in REFUTED_VERDICTS

    def describe(self) -> str:
        spread = (
            f"ratio {self.ratio_median:.4g} "
            f"[{self.ratio_min:.4g}, {self.ratio_max:.4g}] "
            f"tol {self.tolerance:.3g}"
        )
        tail = f"; {'; '.join(self.reasons)}" if self.reasons else ""
        return (
            f"{self.event}: {self.verdict} ({spread}, "
            f"{self.n_deviating}/{self.n_observations} deviating"
            + (f", {self.ghost_rows} ghost rows" if self.ghost_rows else "")
            + f"){tail}"
        )

    def to_payload(self) -> dict:
        return {
            "event": self.event,
            "verdict": self.verdict,
            "ratio_median": self.ratio_median,
            "ratio_min": self.ratio_min,
            "ratio_max": self.ratio_max,
            "tolerance": self.tolerance,
            "n_observations": self.n_observations,
            "n_deviating": self.n_deviating,
            "ghost_rows": self.ghost_rows,
            "reasons": list(self.reasons),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "EventVerdict":
        return cls(
            event=payload["event"],
            verdict=payload["verdict"],
            ratio_median=float(payload.get("ratio_median", 1.0)),
            ratio_min=float(payload.get("ratio_min", 1.0)),
            ratio_max=float(payload.get("ratio_max", 1.0)),
            tolerance=float(payload.get("tolerance", 0.0)),
            n_observations=int(payload.get("n_observations", 0)),
            n_deviating=int(payload.get("n_deviating", 0)),
            ghost_rows=int(payload.get("ghost_rows", 0)),
            reasons=tuple(payload.get("reasons", ())),
        )


FORMAT_VERSION = 1


@dataclass
class ValidationReport:
    """Everything one validation campaign concluded about a registry.

    ``verdicts`` maps full event names to their judgements; ``unvetted``
    lists events that were measured but never exercised by any probe.
    ``source`` is a human-readable provenance string (system, seed,
    configs) stamped onto priors derived from this report.
    """

    arch: str
    system: str
    seed: int
    n_configs: int
    domains: Tuple[str, ...]
    probes: Tuple[str, ...]
    verdicts: Dict[str, EventVerdict] = field(default_factory=dict)
    unvetted: Tuple[str, ...] = ()

    @property
    def source(self) -> str:
        return (
            f"vet-campaign[{self.system}/{self.arch} seed={self.seed} "
            f"configs={self.n_configs}]"
        )

    def refuted_events(self) -> List[str]:
        return sorted(n for n, v in self.verdicts.items() if v.refuted)

    def verdict_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {v: 0 for v in VERDICTS}
        for verdict in self.verdicts.values():
            counts[verdict.verdict] += 1
        counts[UNVETTED] += len(self.unvetted)
        return counts

    def summary(self) -> str:
        counts = self.verdict_counts()
        lines = [
            f"validation campaign: {self.system} ({self.arch}), "
            f"seed {self.seed}, {self.n_configs} perturbed config(s)",
            f"domains: {', '.join(self.domains)}",
            f"probes:  {', '.join(self.probes)}",
            "verdicts: "
            + ", ".join(f"{k}={counts[k]}" for k in VERDICTS if counts[k]),
        ]
        refuted = [v for v in self.verdicts.values() if v.refuted]
        if refuted:
            lines.append("refuted events:")
            for verdict in sorted(refuted, key=lambda v: v.event):
                lines.append(f"  {verdict.describe()}")
        else:
            lines.append("refuted events: none")
        return "\n".join(lines)

    def to_payload(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "kind": "validation-report",
            "arch": self.arch,
            "system": self.system,
            "seed": self.seed,
            "n_configs": self.n_configs,
            "domains": list(self.domains),
            "probes": list(self.probes),
            "verdicts": {
                name: verdict.to_payload()
                for name, verdict in sorted(self.verdicts.items())
            },
            "unvetted": sorted(self.unvetted),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "ValidationReport":
        version = payload.get("format_version", FORMAT_VERSION)
        if version > FORMAT_VERSION:
            raise ValueError(
                f"validation report format {version} is newer than this "
                f"reader ({FORMAT_VERSION})"
            )
        return cls(
            arch=payload["arch"],
            system=payload["system"],
            seed=int(payload["seed"]),
            n_configs=int(payload["n_configs"]),
            domains=tuple(payload.get("domains", ())),
            probes=tuple(payload.get("probes", ())),
            verdicts={
                name: EventVerdict.from_payload(entry)
                for name, entry in payload.get("verdicts", {}).items()
            },
            unvetted=tuple(payload.get("unvetted", ())),
        )

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"
        )
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ValidationReport":
        return cls.from_payload(json.loads(Path(path).read_text()))

    def content_digest(self) -> str:
        from repro.io.digest import json_digest

        return json_digest({"validation_report": self.to_payload()}, length=16)
