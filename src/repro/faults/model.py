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


class _RateConfig:
    """What :class:`FaultConfig` and
    :class:`~repro.faults.chaos.ChaosConfig` share: every field named
    ``*_rate`` is a probability in ``[0, 1]``, the config injects
    something iff one of them (and its gate in ``_GATES``, if any) is
    nonzero, and both render and parse as the same ``key=value`` spec."""

    #: rate field -> companion field that must also be nonzero to fire
    _GATES: Dict[str, str] = {}

    def __post_init__(self) -> None:
        for f in fields(self):
            rate = getattr(self, f.name)
            if f.name.endswith("_rate") and not 0.0 <= rate <= 1.0:
                raise ValueError(f"{f.name} must be in [0, 1]; got {rate}")

    @property
    def enabled(self) -> bool:
        """Whether this config can inject anything at all."""
        return any(
            getattr(self, f.name) > 0
            and getattr(self, self._GATES.get(f.name, f.name)) > 0
            for f in fields(self)
            if f.name.endswith("_rate")
        )

    def describe(self) -> str:
        """Compact ``key=value`` rendering of the non-default knobs."""
        parts = [f"seed={self.seed}"]
        for f in fields(self):
            value = getattr(self, f.name)
            both_nan = value != value and f.default != f.default
            if f.name != "seed" and value != f.default and not both_nan:
                parts.append(f"{f.name}={value}")
        return ",".join(parts)


def _parse_spec(cls, spec: str, aliases: Dict[str, str], what: str):
    """Parse ``key=value[,key=value...]`` into ``cls``; a key is a field
    name or one of ``aliases``, and each value is read as the type of its
    field's default (``1/true/yes/on`` are true for a bool)."""
    defaults = {f.name: f.default for f in fields(cls)}
    kwargs: Dict[str, object] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad {what} spec term {part!r}: expected key=value")
        key, _, raw = part.partition("=")
        key = key.strip()
        name = aliases.get(key, key)
        if name not in defaults:
            raise ValueError(
                f"unknown {what} spec key {key!r}; known keys: "
                f"{sorted(set(defaults) | set(aliases))}"
            )
        raw = raw.strip()
        kind = type(defaults[name])
        if kind is bool:
            kwargs[name] = raw.lower() in ("1", "true", "yes", "on")
        else:
            kwargs[name] = kind(raw)
    return cls(**kwargs)


@dataclass(frozen=True)
class FaultConfig(_RateConfig):
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

    _GATES = {"overflow_rate": "overflow_bits"}

    def __post_init__(self) -> None:
        super().__post_init__()
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


def parse_fault_spec(spec: str) -> FaultConfig:
    """Parse a compact CLI fault spec into a :class:`FaultConfig`.

    The spec is ``key=value`` pairs separated by commas, e.g.::

        seed=7,dropout=0.02,spike=0.01,crash=0.3,overflow=0.05,overflow_bits=32

    Short aliases map to the rate fields (``dropout`` ->
    ``dropout_rate``); full field names are accepted too.
    """
    return _parse_spec(FaultConfig, spec, _SPEC_ALIASES, "fault")
