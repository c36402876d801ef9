"""Validation campaigns: measure known-activity kernels, judge every event.

The CAT benchmarks are *known-activity* kernels: each probe row's
microarchitectural occurrences are analytically derived, so every event's
expected count is ``declared response . activity`` — no oracle beyond the
event's own documentation.  A campaign runs those probes across several
perturbed node configurations (different measurement-noise seeds and
repetition counts), compares measured against expected per (event, probe
row), and classifies each event à la Röhl:

* the comparison unit is the ratio ``measured / expected`` on rows where
  the event is genuinely exercised (expected count above a floor);
* the tolerance band around 1 is derived from the event's documented
  noise model (:meth:`~repro.events.noise.NoiseModel.expected_rel_bias`
  and :meth:`~repro.events.noise.NoiseModel.predicted_rel_std`) plus the
  benchmark's environment-noise contribution — deliberately without the
  sqrt(repetitions) averaging gain, so a healthy event is never refuted
  by an unlucky draw (the hard requirement: all-accurate priors must
  leave the pipeline bit-identical);
* a consistent out-of-band median ratio is ``overcounting`` /
  ``undercounting`` / ``multi_counting`` (integer ratio >= 2); a
  deviation that changes across probes is ``unreliable``; firing on rows
  with zero expected activity is ghost counting (overcounting).

The honest flip side: an event whose documented noise is large gets a
wide band, and a forgery smaller than its noise floor is undetectable —
validation can only refute deviations the noise model cannot explain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cat.runner import BenchmarkRunner
from repro.core.pipeline import AnalysisPipeline
from repro.core.sweep import SWEEP_SYSTEMS, SYSTEM_DOMAINS
from repro.events.catalogs._builders import log_uniform_sigma
from repro.events.model import RawEvent
from repro.obs import get_tracer
from repro.vet.forge import forge_registry
from repro.vet.model import (
    ACCURATE,
    MULTI_COUNTING,
    OVERCOUNTING,
    UNDERCOUNTING,
    UNRELIABLE,
    EventVerdict,
    ValidationReport,
)

__all__ = ["CampaignConfig", "run_campaign"]


@dataclass(frozen=True)
class CampaignConfig:
    """Shape and sensitivity of one validation campaign.

    ``n_configs`` perturbed node configurations are derived from ``seed``
    (config ``i`` reseeds every noise stream with ``seed + i`` and
    alternates the repetition count), so campaigns are exactly
    reproducible.  ``z_score`` widens the tolerance band in units of the
    model-predicted standard deviation; ``spread_factor`` is how much
    ratio spread beyond the band reads as inconsistency (unreliable).
    """

    seed: int = 2024
    n_configs: int = 3
    repetitions: int = 4
    domains: Optional[Tuple[str, ...]] = None
    min_expected: float = 1.0
    min_tolerance: float = 0.02
    z_score: float = 4.0
    spread_factor: float = 4.0
    ghost_threshold: float = 1e3

    def __post_init__(self) -> None:
        if self.n_configs < 1:
            raise ValueError("need at least one campaign configuration")
        if self.repetitions < 2:
            raise ValueError("need at least two repetitions")
        if self.min_tolerance <= 0 or self.z_score <= 0:
            raise ValueError("tolerance parameters must be positive")


def _declared_expectations(
    event_list: Sequence[RawEvent], activities: Sequence[Sequence]
) -> np.ndarray:
    """``(rows, events)`` expected counts from documented responses.

    Uses each event's *declared* linear response (``RawEvent.true_count``
    on the base class), never an override — a forged event is judged
    against its documentation, exactly like real silicon against its
    manual.  Threads collapse by median to mirror
    ``MeasurementSet.measurement_matrix``.
    """
    keys = sorted({k for e in event_list for k in e.response})
    key_index = {k: j for j, k in enumerate(keys)}
    weights = np.zeros((len(keys), len(event_list)))
    for j, event in enumerate(event_list):
        for key, value in event.response.items():
            weights[key_index[key], j] = value
    n_rows = len(activities)
    n_threads = max(len(row) for row in activities)
    packed = np.zeros((n_threads, n_rows, len(keys)))
    for r, row_acts in enumerate(activities):
        for t, activity in enumerate(row_acts):
            for key, value in activity.items():
                col = key_index.get(key)
                if col is not None:
                    packed[t, r, col] = value
    expected = packed @ weights  # (threads, rows, events)
    return np.median(expected, axis=0)


@dataclass
class _Observations:
    """Accumulated evidence for one event across probes and configs."""

    ratios: List[float]
    tolerances: List[float]
    ghost_rows: int = 0


def _observe_probe(
    benchmark,
    event_list: Sequence[RawEvent],
    measured: np.ndarray,
    expected: np.ndarray,
    config: CampaignConfig,
    evidence: Dict[str, _Observations],
) -> int:
    """Fold one probe's measured-vs-expected matrix into the evidence."""
    env_lo_hi = benchmark.environment_noise
    n_obs = 0
    for j, event in enumerate(event_list):
        entry = evidence.setdefault(event.full_name, _Observations([], []))
        env_sigma = 0.0
        if env_lo_hi is not None:
            lo, hi = env_lo_hi
            env_sigma = log_uniform_sigma(
                event.full_name, lo, hi, salt=f"env:{benchmark.name}"
            )
        model = event.noise
        ghost_limit = max(config.ghost_threshold, 200.0 * model.floor)
        for r in range(expected.shape[0]):
            count = expected[r, j]
            if count <= config.min_expected:
                if measured[r, j] > ghost_limit:
                    entry.ghost_rows += 1
                continue
            tolerance = (
                config.min_tolerance
                + model.expected_rel_bias(count)
                + config.z_score * (model.predicted_rel_std(count) + env_sigma)
            )
            entry.ratios.append(float(measured[r, j] / count))
            entry.tolerances.append(float(tolerance))
            n_obs += 1
    return n_obs


def _classify(event: str, obs: _Observations, config: CampaignConfig) -> EventVerdict:
    """Turn one event's accumulated ratio evidence into a verdict."""
    ratios = np.asarray(obs.ratios)
    tols = np.asarray(obs.tolerances)
    reasons: List[str] = []
    if obs.ghost_rows:
        reasons.append(
            f"fired on {obs.ghost_rows} probe row(s) with zero expected activity"
        )
    if ratios.size == 0:
        # Ghost-only evidence: never legitimately exercised, yet it fires.
        return EventVerdict(
            event=event,
            verdict=OVERCOUNTING,
            ghost_rows=obs.ghost_rows,
            reasons=tuple(reasons),
        )

    deviating = np.abs(ratios - 1.0) > tols
    n_dev = int(deviating.sum())
    median = float(np.median(ratios))
    tol_median = float(np.median(tols))
    spread = float(ratios.max() - ratios.min())
    spread_limit = config.spread_factor * max(tol_median, config.min_tolerance)

    verdict = ACCURATE
    if abs(median - 1.0) > tol_median:
        # Systematic deviation.  If the per-probe ratios disagree with
        # each other by more than they agree on a correction factor, no
        # single factor explains the event: unreliable.
        if spread > 1.5 * max(abs(median - 1.0), tol_median):
            verdict = UNRELIABLE
            reasons.append(
                f"deviation inconsistent across probes "
                f"(spread {spread:.3g} vs median offset {median - 1.0:+.3g})"
            )
        else:
            nearest = round(median)
            if nearest >= 2 and abs(median - nearest) <= max(
                tol_median, 0.05 * nearest
            ):
                verdict = MULTI_COUNTING
                reasons.append(f"counts {nearest}x per documented occurrence")
            elif median > 1.0:
                verdict = OVERCOUNTING
                reasons.append(f"systematic ratio {median:.4g} above tolerance")
            else:
                verdict = UNDERCOUNTING
                reasons.append(f"systematic ratio {median:.4g} below tolerance")
    elif n_dev >= max(1, len(ratios) // 4) and spread > spread_limit:
        verdict = UNRELIABLE
        reasons.append(
            f"{n_dev}/{len(ratios)} observations out of band with spread "
            f"{spread:.3g} (limit {spread_limit:.3g})"
        )
    elif obs.ghost_rows:
        verdict = OVERCOUNTING
    return EventVerdict(
        event=event,
        verdict=verdict,
        ratio_median=median,
        ratio_min=float(ratios.min()),
        ratio_max=float(ratios.max()),
        tolerance=tol_median,
        n_observations=int(ratios.size),
        n_deviating=n_dev,
        ghost_rows=obs.ghost_rows,
        reasons=tuple(reasons),
    )


def run_campaign(
    system: str,
    config: CampaignConfig = CampaignConfig(),
    forge: Optional[Mapping[str, Tuple[str, float]]] = None,
) -> ValidationReport:
    """Validate a system's event registry against its known-activity probes.

    ``forge`` (full event name -> ``(kind, factor)``) swaps in lying
    counters before measurement — the test substrate for the validation
    layer itself and for CI smoke.  The returned report judges every
    event the probes measured; events never exercised are ``unvetted``.
    """
    if system not in SWEEP_SYSTEMS:
        raise KeyError(
            f"unknown system {system!r}; expected one of {sorted(SWEEP_SYSTEMS)}"
        )
    domains = config.domains or SYSTEM_DOMAINS[system]
    unknown = [d for d in domains if d not in SYSTEM_DOMAINS[system]]
    if unknown:
        raise KeyError(
            f"domain(s) {', '.join(unknown)} not probed on {system!r}; "
            f"available: {', '.join(SYSTEM_DOMAINS[system])}"
        )
    tracer = get_tracer()
    evidence: Dict[str, _Observations] = {}
    probes: List[str] = []
    arch = ""
    with tracer.span(
        "vet-campaign", system=system, configs=config.n_configs
    ) as span:
        for index in range(config.n_configs):
            node = SWEEP_SYSTEMS[system](seed=config.seed + index)
            arch = node.name
            registry = (
                forge_registry(node.events, forge) if forge else node.events
            )
            repetitions = config.repetitions + (index % 2)
            runner = BenchmarkRunner(node, repetitions=repetitions)
            for domain in domains:
                benchmark = AnalysisPipeline.for_domain(domain, node).benchmark
                if index == 0:
                    probes.append(benchmark.name)
                selected = registry.select(
                    domains=tuple(benchmark.measured_domains)
                )
                with tracer.span(
                    "vet-probe",
                    domain=domain,
                    config=index,
                    benchmark=benchmark.name,
                ) as probe_span:
                    measurement = runner.run(benchmark, events=selected)
                    event_list = list(selected)
                    expected = _declared_expectations(
                        event_list, runner.activities(benchmark)
                    )
                    n_obs = _observe_probe(
                        benchmark,
                        event_list,
                        measurement.measurement_matrix(),
                        expected,
                        config,
                        evidence,
                    )
                    probe_span.set(
                        events=len(event_list), observations=n_obs
                    )
                tracer.incr("vet.probes")
                tracer.incr("vet.observations", n_obs)
        verdicts: Dict[str, EventVerdict] = {}
        unvetted: List[str] = []
        for name in sorted(evidence):
            obs = evidence[name]
            if not obs.ratios and not obs.ghost_rows:
                unvetted.append(name)
                continue
            verdicts[name] = _classify(name, obs, config)
        n_refuted = sum(1 for v in verdicts.values() if v.refuted)
        span.set(
            vetted=len(verdicts), refuted=n_refuted, unvetted=len(unvetted)
        )
    tracer.incr("vet.events_vetted", len(verdicts))
    tracer.incr("vet.refuted", n_refuted)
    tracer.incr("vet.unvetted", len(unvetted))
    return ValidationReport(
        arch=arch,
        system=system,
        seed=config.seed,
        n_configs=config.n_configs,
        domains=tuple(domains),
        probes=tuple(probes),
        verdicts=verdicts,
        unvetted=tuple(unvetted),
    )
