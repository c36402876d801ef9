"""Preset metrics: the artifact the paper's pipeline exists to produce.

PAPI presets (``PAPI_DP_OPS``, ``PAPI_BR_MSP``, …) are named metrics defined
per architecture as scaled sums of native events.  Historically these
definitions were written by hand from vendor documentation; the paper
automates their derivation.  :class:`PresetTable` holds derived definitions
and evaluates them against event readings, closing the loop: the analysis
pipeline emits presets, and tools consume them through this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

__all__ = ["PresetMetric", "PresetTable", "PAPI_PRESET_NAMES"]

#: Conventional PAPI preset names for the metrics the paper composes.
PAPI_PRESET_NAMES: Dict[str, str] = {
    "SP Instrs.": "PAPI_SP_INS",
    "SP Ops.": "PAPI_SP_OPS",
    "DP Instrs.": "PAPI_DP_INS",
    "DP Ops.": "PAPI_DP_OPS",
    "Mispredicted Branches.": "PAPI_BR_MSP",
    "Correctly Predicted Branches.": "PAPI_BR_PRC",
    "Conditional Branches Taken.": "PAPI_BR_TKN",
    "Conditional Branches Not Taken.": "PAPI_BR_NTK",
    "Unconditional Branches.": "PAPI_BR_UCN",
    "Conditional Branches Retired.": "PAPI_BR_CN",
    "L1 Misses.": "PAPI_L1_DCM",
    "L1 Hits.": "PAPI_L1_DCH",
    "L1 Reads.": "PAPI_L1_DCR",
    "L2 Hits.": "PAPI_L2_DCH",
    "L2 Misses.": "PAPI_L2_DCM",
    "L3 Hits.": "PAPI_L3_DCH",
    "DTLB Misses.": "PAPI_TLB_DM",
}


@dataclass(frozen=True)
class PresetMetric:
    """A named metric defined as a scaled sum of native events.

    ``terms`` maps native event full names to coefficients.  ``fitness`` is
    the backward error of the least-squares fit that produced the
    definition (paper Equation 5); consumers can gate on it.
    """

    name: str
    terms: Mapping[str, float]
    fitness: float = 0.0
    description: str = ""

    def evaluate(self, readings: Mapping[str, float]) -> float:
        """Apply the definition to a set of raw-event readings."""
        missing = [e for e in self.terms if e not in readings]
        if missing:
            raise KeyError(f"readings missing events for {self.name}: {missing}")
        return float(sum(c * readings[e] for e, c in self.terms.items()))

    @property
    def native_events(self) -> List[str]:
        return list(self.terms.keys())

    def pretty(self) -> str:
        """Paper-table style rendering of the combination."""
        parts = []
        for event, coeff in self.terms.items():
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            coeff_str = f"{mag:g}" if mag >= 1e-3 else f"{mag:.2e}"
            parts.append(f"{sign} {coeff_str} x {event}")
        body = " ".join(parts).lstrip("+ ")
        return f"{self.name} = {body}   (error {self.fitness:.2e})"


class PresetTable:
    """Derived preset definitions for one architecture."""

    def __init__(self, architecture: str):
        self.architecture = architecture
        self._presets: Dict[str, PresetMetric] = {}

    def define(self, preset: PresetMetric) -> None:
        self._presets[preset.name] = preset

    def get(self, name: str) -> PresetMetric:
        try:
            return self._presets[name]
        except KeyError:
            raise KeyError(
                f"preset {name!r} not defined for {self.architecture!r}; "
                f"available: {sorted(self._presets)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._presets

    def __iter__(self):
        return iter(self._presets.values())

    def __len__(self) -> int:
        return len(self._presets)

    def composable(self, max_fitness: float = 1e-3) -> List[PresetMetric]:
        """Presets whose backward error certifies a real composition."""
        return [p for p in self._presets.values() if p.fitness <= max_fitness]
