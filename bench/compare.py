"""Compare two recorded benchmark files (parent first, change second).

For each workload and end-to-end metric it reports both sides' median
and quartiles, the pair wins of the change, and a verdict:

``improved``
    the change wins at least nine tenths of the pairs (ties count for
    neither side) and the medians differ by more than the parent's
    spread between quartiles;
``worse``
    the change's median is worse than the parent's by more than the
    metric's bound;
``unresolved``
    either side's spread (quartile distance over median) is wider than
    the bound, and not every run of the change beats every run of the
    parent;
``no change``
    none of the above.

Runs pair up by position (``python -m bench run`` gives run ``i`` the
seed ``--seed + i`` on both sides).  A paired output digest that
differs is a correctness failure, whatever the timings say.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from bench.stats import summarize

__all__ = ["Row", "compare", "render", "verdict"]

WIN_SHARE = 0.9


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    parent: Dict[str, float]
    change: Dict[str, float]
    wins: int
    pairs: int
    verdict: str


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> tuple:
    """``(verdict, wins, pairs)`` for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    a, b = summarize(parent), summarize(change)
    spread = max(
        (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0 for s in (a, b)
    )
    all_better = all(sign * (y - x) > 0 for x in parent for y in change)
    gain = sign * (b["median"] - a["median"])
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if pairs and wins >= WIN_SHARE * len(pairs) and gain > a["q3"] - a["q1"]:
        return "improved", wins, len(pairs)
    if -gain > bound * abs(a["median"]):
        return "worse", wins, len(pairs)
    return "no change", wins, len(pairs)


def compare(parent_doc: dict, change_doc: dict, spec: dict) -> List[Row]:
    """One row per (workload, end-to-end metric) present on both sides,
    plus a ``correctness`` row per workload whose digests or checks fail."""
    rows: List[Row] = []
    for workload, parent in parent_doc["workloads"].items():
        change = change_doc["workloads"].get(workload)
        if change is None:
            continue
        a_runs, b_runs = parent["runs"], change["runs"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in a_runs]
            b = [run["metrics"][name]["value"] for run in b_runs]
            result, wins, pairs = verdict(a, b, metric["better"], metric["bound"])
            rows.append(
                Row(workload, name, metric["unit"], summarize(a), summarize(b),
                    wins, pairs, result)
            )
        problems = [
            f"run {i}: output digest {x['output_digest']} != {y['output_digest']}"
            for i, (x, y) in enumerate(zip(a_runs, b_runs))
            if x["seed"] == y["seed"] and x["output_digest"] != y["output_digest"]
        ] + [
            f"{side} run {i} failed {run['failed']} of {run['attempted']}"
            for side, runs in (("parent", a_runs), ("change", b_runs))
            for i, run in enumerate(runs)
            if not run["correct"]
        ]
        if problems:
            rows.append(
                Row(workload, "correctness", "", {}, {}, 0, 0,
                    "correctness failure: " + "; ".join(problems))
            )
    return rows


def render(rows: Sequence[Row]) -> str:
    def cell(s: Dict[str, float]) -> str:
        return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]" if s else ""

    lines = [
        f"{'workload':<16} {'metric':<12} {'unit':<6} {'parent median [q1, q3]':<30} "
        f"{'change median [q1, q3]':<30} {'wins':<6} verdict"
    ]
    for r in rows:
        wins = f"{r.wins}/{r.pairs}" if r.pairs else ""
        lines.append(
            f"{r.workload:<16} {r.metric:<12} {r.unit:<6} {cell(r.parent):<30} "
            f"{cell(r.change):<30} {wins:<6} {r.verdict}"
        )
    return "\n".join(lines)
