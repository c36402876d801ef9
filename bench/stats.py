"""Order statistics shared by the runner, the recorder and ``compare``."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

__all__ = ["percentile", "summarize"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: always a value that was observed."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles (``statistics.quantiles(n=4)``) of run values."""
    values = list(values)
    if len(values) < 2:
        only = values[0] if values else 0.0
        return {"median": only, "q1": only, "q3": only, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}
