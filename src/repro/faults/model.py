"""Fault model: what can go wrong, how often, and under which seed.

Real PMUs are hostile instruments.  Röhl et al. ("Validation of hardware
events for successful performance pattern identification") show raw events
that are noisy or outright wrong; multiplexed counters are scheduled out
and report zeros for runs they never observed; 32/48-bit counters saturate
and wrap; SMIs corrupt single repetitions; batch workers crash or hang.
:class:`FaultConfig` names each of those pathologies with an injection
rate, and the whole model hangs off one seed so an injected universe is
exactly reproducible: the same configuration injects the same faults at
the same coordinates, no matter how execution is ordered or parallelized.

Everything here is a plain frozen dataclass so fault configurations travel
across process boundaries (sweep workers receive them inside pickled
tasks) and fold into content digests.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

__all__ = [
    "FaultConfig",
    "FaultRecord",
    "TransientMeasurementError",
    "InjectedWorkerCrash",
    "parse_fault_spec",
]


class TransientMeasurementError(RuntimeError):
    """A measurement run failed transiently (counter read error, scheduler
    preemption, ...) and may succeed if re-attempted."""


class InjectedWorkerCrash(RuntimeError):
    """A sweep worker was killed mid-task by the fault injector."""


@dataclass(frozen=True)
class FaultConfig:
    """Rates and shapes of every injectable pathology.

    All rates default to zero: a default config injects nothing, and a
    zero-rate path is bit-identical to running without the injector at
    all (property-tested).

    Parameters
    ----------
    seed:
        Root of every injection stream.  Streams are derived per
        ``(seed, site)`` so injection decisions are independent of
        execution order — a parallel sweep injects exactly the faults a
        serial sweep would.
    dropout_rate:
        Probability an individual reading cell is lost to multiplexing
        (the event was scheduled out for that run).  Lost cells read as
        ``dropout_value`` (NaN by default; 0.0 mimics PMUs that report
        zero instead).
    overflow_bits:
        When nonzero, counter values wrap modulo ``2**overflow_bits``
        with probability ``overflow_rate`` per cell (only cells whose
        value actually exceeds the modulus are affected, as on hardware).
    spike_rate / spike_scale:
        Probability a cell is corrupted by a multiplicative spike (an
        SMI or co-scheduled interference burst) of factor ``spike_scale``.
    run_failure_rate:
        Probability one whole measurement invocation raises
        :class:`TransientMeasurementError` before producing data.
    crash_rate / hang_rate / hang_seconds:
        Per-task probabilities that a sweep worker raises
        :class:`InjectedWorkerCrash` or sleeps ``hang_seconds`` (to be
        caught by the engine's task timeout).
    cache_corruption_rate:
        Probability :meth:`FaultInjector.maybe_corrupt_cache` truncates
        an existing on-disk cache entry (exercising checksum quarantine).
    transient:
        When true (default), run failures, crashes and hangs fire only on
        a context's first attempt — the realistic "works on retry" shape.
        When false they fire on every attempt, which is how tests probe
        retry exhaustion.
    """

    seed: int = 0
    dropout_rate: float = 0.0
    dropout_value: float = float("nan")
    overflow_bits: int = 0
    overflow_rate: float = 0.0
    spike_rate: float = 0.0
    spike_scale: float = 1e3
    run_failure_rate: float = 0.0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    hang_seconds: float = 30.0
    cache_corruption_rate: float = 0.0
    transient: bool = True

    def __post_init__(self) -> None:
        for name in (
            "dropout_rate",
            "overflow_rate",
            "spike_rate",
            "run_failure_rate",
            "crash_rate",
            "hang_rate",
            "cache_corruption_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]; got {rate}")
        if self.overflow_bits < 0:
            raise ValueError("overflow_bits must be >= 0")
        if self.spike_scale <= 0:
            raise ValueError("spike_scale must be positive")
        if self.hang_seconds < 0:
            raise ValueError("hang_seconds must be >= 0")

    @property
    def any_measurement_faults(self) -> bool:
        """Whether any per-cell corruption can fire."""
        return (
            self.dropout_rate > 0
            or self.spike_rate > 0
            or (self.overflow_rate > 0 and self.overflow_bits > 0)
        )

    @property
    def enabled(self) -> bool:
        """Whether this config can inject anything at all."""
        return (
            self.any_measurement_faults
            or self.run_failure_rate > 0
            or self.crash_rate > 0
            or self.hang_rate > 0
            or self.cache_corruption_rate > 0
        )

    def describe(self) -> str:
        """Compact ``key=value`` rendering of the nonzero rates."""
        parts = [f"seed={self.seed}"]
        for f in fields(self):
            if f.name == "seed":
                continue
            value = getattr(self, f.name)
            if value != f.default and not (
                isinstance(value, float)
                and isinstance(f.default, float)
                and value != value  # NaN default
                and f.default != f.default
            ):
                parts.append(f"{f.name}={value}")
        return ",".join(parts)


@dataclass
class FaultRecord:
    """One injected fault (or one disposition of an injected fault).

    ``coords`` pins measurement-cell faults to ``(rep, thread, row)`` so a
    scrub decision can be reconciled against the injection that caused it;
    site-level faults (crashes, run failures, cache corruption) leave it
    ``None``.  ``outcome`` starts as ``"injected"`` and is rewritten by
    whichever layer handled the fault: ``recovered`` (value repaired or
    work retried successfully), ``excluded`` (a corrupted repetition was
    rejected by quorum), ``degraded`` (the event was lost and the
    pipeline continued without it).  The acceptance bar is that no record
    is ever left ``injected`` — silence is the one unacceptable outcome.
    """

    kind: str  # dropout | spike | overflow | run-failure | crash | hang | cache-corruption
    context: str  # e.g. "aurora:branch" or a cache key
    event: Optional[str] = None
    coords: Optional[Tuple[int, int, int]] = None  # (rep, thread, row)
    outcome: str = "injected"
    detail: str = ""

    @property
    def cell_key(self) -> Optional[Tuple[str, Tuple[int, int, int]]]:
        if self.event is None or self.coords is None:
            return None
        return (self.event, self.coords)


_SPEC_ALIASES: Dict[str, str] = {
    "dropout": "dropout_rate",
    "spike": "spike_rate",
    "overflow": "overflow_rate",
    "run_failure": "run_failure_rate",
    "runfail": "run_failure_rate",
    "crash": "crash_rate",
    "hang": "hang_rate",
    "cache": "cache_corruption_rate",
}

_BOOL_FIELDS = ("transient",)
_INT_FIELDS = ("seed", "overflow_bits")


def parse_fault_spec(spec: str) -> FaultConfig:
    """Parse a compact CLI fault spec into a :class:`FaultConfig`.

    The spec is ``key=value`` pairs separated by commas, e.g.::

        seed=7,dropout=0.02,spike=0.01,crash=0.3,overflow=0.05,overflow_bits=32

    Short aliases map to the rate fields (``dropout`` ->
    ``dropout_rate``); full field names are accepted too.
    """
    valid = {f.name for f in fields(FaultConfig)}
    kwargs: Dict[str, object] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"bad fault spec term {part!r}: expected key=value"
            )
        key, _, raw = part.partition("=")
        key = key.strip()
        field_name = _SPEC_ALIASES.get(key, key)
        if field_name not in valid:
            raise ValueError(
                f"unknown fault spec key {key!r}; known keys: "
                f"{sorted(valid | set(_SPEC_ALIASES))}"
            )
        raw = raw.strip()
        if field_name in _BOOL_FIELDS:
            kwargs[field_name] = raw.lower() in ("1", "true", "yes", "on")
        elif field_name in _INT_FIELDS:
            kwargs[field_name] = int(raw)
        else:
            kwargs[field_name] = float(raw)
    return FaultConfig(**kwargs)
