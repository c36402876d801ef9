"""Counter validation and drift detection (``repro.vet``).

The pipeline implicitly trusts that every raw event counts what its
documentation says it counts.  Röhl et al. showed that on real silicon a
significant fraction do not — they over-, under- or multi-count, or
drift unpredictably — and CounterPoint demonstrated refuting such events
by comparing measured counts against analytically expected ones.  This
package closes that gap for the reproduction:

* :mod:`~repro.vet.campaign` runs the known-activity CAT probes across
  perturbed configurations and hands down per-event verdicts with
  tolerance bands derived from each event's documented noise model;
* :mod:`~repro.vet.priors` feeds those verdicts into the analysis
  pipeline (refuted events are excluded before QRCP selection; composed
  metrics carry a :class:`~repro.vet.priors.VetStamp`);
* :mod:`~repro.vet.forge` builds deliberately lying counters — the test
  substrate that proves the layer catches what it claims to catch;
* :mod:`~repro.vet.drift` aggregates catalog version diffs into typed
  anomaly reports (coefficient drift, trust transitions, verdict flips)
  and flags entries stale against the live registry.
"""

from repro.vet.campaign import CampaignConfig, run_campaign
from repro.vet.drift import (
    DriftAnomaly,
    DriftReport,
    anomalies_from_diff,
    detect_drift,
    stale_entry_rows,
)
from repro.vet.forge import ForgedEvent, forge_registry, parse_forge_spec
from repro.vet.model import (
    ACCURATE,
    MULTI_COUNTING,
    OVERCOUNTING,
    REFUTED_VERDICTS,
    UNDERCOUNTING,
    UNRELIABLE,
    UNVETTED,
    VERDICTS,
    EventVerdict,
    ValidationReport,
)
from repro.vet.priors import TrustPriors, VetStamp

__all__ = [
    "ACCURATE",
    "CampaignConfig",
    "DriftAnomaly",
    "DriftReport",
    "EventVerdict",
    "ForgedEvent",
    "MULTI_COUNTING",
    "OVERCOUNTING",
    "REFUTED_VERDICTS",
    "TrustPriors",
    "UNDERCOUNTING",
    "UNRELIABLE",
    "UNVETTED",
    "VERDICTS",
    "ValidationReport",
    "VetStamp",
    "anomalies_from_diff",
    "detect_drift",
    "forge_registry",
    "parse_forge_spec",
    "run_campaign",
    "stale_entry_rows",
]
