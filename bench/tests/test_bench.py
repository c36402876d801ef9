"""Tests of the benchmark itself, kept apart from the tier-1 suite::

    PYTHONPATH=src python -m pytest bench/tests -q

Quick runs (one set-up, one cycle) of every workload, traced and
untraced, through the same command the benchmark is run with; plus unit
tests of the ``compare`` verdicts on synthetic records.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench.compare import compare, verdict

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 2024


def run_bench(workload: str, trace: int, cwd: Path = ROOT, env=None):
    proc = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--quick",
        ],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc


def parsed(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("bench-detail ")
    return json.loads(lines[-1]), json.loads(lines[-2].split(" ", 1)[1])


@pytest.fixture(scope="module")
def untraced():
    return {w: parsed(run_bench(w, 0)) for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {w: parsed(run_bench(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(untraced, workload):
    result, detail = untraced[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"], detail["failures"]
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        reading = result["metrics"][metric["name"]]
        assert reading["unit"] == metric["unit"]
        assert reading["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_equals_untraced(untraced, traced, workload):
    result, detail = traced[workload]
    assert result["failed"] == 0 and result["correct"], detail["failures"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    # The traced run checks its replayed operations against its own
    # untraced phase; across processes, the first cycles must agree too.
    assert detail["output_digest"] == untraced[workload][1]["output_digest"]


def test_traced_runs_match_all_golden_cases(traced):
    from tests.test_golden_e2e import CASES

    assert sum(detail["golden"] for _, detail in traced.values()) == len(CASES)


def test_run_without_the_program_fails_cleanly(tmp_path):
    """In a directory holding only the benchmark, the run must fail
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path, env=env)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- compare -------------------------------------------------------------

STABLE = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def test_nine_of_ten_wins_and_a_gap_beyond_the_spread_is_improved():
    faster = [v * 0.8 for v in STABLE]
    faster[3] = 130.0  # one lost pair of ten still counts
    assert verdict(STABLE, faster, "lower", 0.1) == ("improved", 9, 10)


def test_eight_of_ten_wins_is_not_improved():
    faster = [v * 0.8 for v in STABLE]
    faster[3], faster[7] = 100.5, 101.5
    assert verdict(STABLE, faster, "lower", 0.1) == ("no change", 8, 10)


def test_a_gap_within_the_parent_spread_is_not_improved():
    nudged = [v - 0.5 for v in STABLE]
    assert verdict(STABLE, nudged, "lower", 0.1)[0] == "no change"


def test_a_median_beyond_the_bound_is_worse():
    slower = [v * 1.2 for v in STABLE]
    assert verdict(STABLE, slower, "lower", 0.1)[0] == "worse"
    assert verdict(STABLE, [v * 0.8 for v in STABLE], "higher", 0.1)[0] == "worse"


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert verdict(noisy, [v * 0.95 for v in noisy], "lower", 0.1)[0] == "unresolved"
    # ...unless every run of the change beats every run of the parent.
    assert verdict(noisy, [10.0] * 10, "lower", 0.1)[0] == "improved"


def _record(values, digest="d0", correct=True):
    return {
        "workloads": {
            "w": {
                "runs": [
                    {
                        "seed": i,
                        "correct": correct,
                        "attempted": 1,
                        "failed": 0 if correct else 1,
                        "output_digest": digest,
                        "metrics": {"t_ms": {"value": v, "unit": "ms"}},
                    }
                    for i, v in enumerate(values)
                ]
            }
        }
    }


SPEC_T = {"end_to_end": [{"name": "t_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}


def test_compare_reports_a_digest_mismatch_as_a_correctness_failure():
    rows = compare(_record(STABLE), _record(STABLE, digest="d1"), SPEC_T)
    assert [r.verdict for r in rows if r.metric == "t_ms"] == ["no change"]
    failure = [r.verdict for r in rows if r.metric == "correctness"]
    assert len(failure) == 1 and "output digest d0 != d1" in failure[0]


def test_compare_reports_failed_runs():
    rows = compare(_record(STABLE), _record(STABLE, correct=False), SPEC_T)
    assert any("change run 0 failed" in r.verdict for r in rows)


def test_identical_records_compare_clean():
    rows = compare(_record(STABLE), _record(STABLE), SPEC_T)
    assert [r.verdict for r in rows] == ["no change"]
